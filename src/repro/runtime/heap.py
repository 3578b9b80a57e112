"""Per-place object heaps.

Each place owns a private heap; the APGAS contract says remote data is only
reachable by shifting execution to the owning place (``at``).  The simulator
enforces that contract: closures receive a :class:`~repro.runtime.runtime.PlaceContext`
bound to exactly one heap.  Killing a place destroys its heap — this is what
makes snapshots necessary and what the double in-memory store protects
against.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, List


class _Entries(dict):
    """A heap's backing dict: a hit is one C-level lookup, a miss raises
    the heap's own errors (``PlaceHeap.get`` is this dict's ``__getitem__``)."""

    __slots__ = ("place_id", "dead")

    def __missing__(self, key: Hashable) -> Any:
        if self.dead:
            raise RuntimeError(f"heap of dead place {self.place_id} accessed")
        raise KeyError(f"place {self.place_id} heap has no entry {key!r}")


class PlaceHeap:
    """The private object store of one place.

    Keys are arbitrary hashable values; multi-place GML objects namespace
    their entries as ``("gml", object_id, ...)`` and snapshots as
    ``("snap", snapshot_id, key)``.

    While the place lives, the four per-entry operations are the backing
    dict's own bound methods, so a call costs no Python frame:

    * ``get(key)`` fetches an entry (``KeyError`` if absent);
    * ``put(key, value)`` stores *value*, replacing any previous entry;
    * ``contains(key)`` is True if an entry exists;
    * ``pop(key, default)`` deletes and returns the entry, or *default*.

    :meth:`destroy` rebinds the last three to a stub raising the dead-heap
    ``RuntimeError`` (``get`` reaches it through the emptied store's
    ``__missing__``).
    """

    __slots__ = ("place_id", "_store", "destroyed", "get", "put", "contains", "pop")

    def __init__(self, place_id: int):
        self.place_id = place_id
        store = self._store = _Entries()
        store.place_id = place_id
        store.dead = False
        self.destroyed = False
        self.get = store.__getitem__
        self.put = store.__setitem__
        self.contains = store.__contains__
        self.pop = store.pop

    def __getstate__(self):
        # The bound methods are derived from the store and rebuilt on load; a
        # plain dict keeps the pickled heap (every fork image holds them all) small.
        return self.place_id, dict(self._store), self.destroyed

    def __setstate__(self, state) -> None:
        place_id, entries, destroyed = state
        self.__init__(place_id)
        self._store.update(entries)
        if destroyed:
            self.destroy()

    def _check_live(self, *_args) -> None:
        """Raise on a destroyed heap; with any arguments, the stand-in for
        ``put`` / ``contains`` / ``pop`` once the place is dead."""
        if self.destroyed:
            raise RuntimeError(f"heap of dead place {self.place_id} accessed")

    def get_or(self, key: Hashable, default: Any = None) -> Any:
        """Fetch the entry for *key* or *default* when absent."""
        self._check_live()
        return self._store.get(key, default)

    def remove(self, key: Hashable) -> Any:
        """Delete and return the entry for *key*; ``KeyError`` if absent."""
        value = self.get(key)
        del self._store[key]
        return value

    def remove_if_present(self, key: Hashable) -> None:
        """Delete the entry for *key* if it exists."""
        self.pop(key, None)

    def keys_with_prefix(self, prefix: tuple) -> List[Hashable]:
        """All tuple keys starting with *prefix* (for bulk eviction)."""
        self._check_live()
        return [
            k
            for k in self._store
            if isinstance(k, tuple) and len(k) >= len(prefix) and k[: len(prefix)] == prefix
        ]

    def remove_prefix(self, prefix: tuple) -> int:
        """Delete all entries whose tuple key starts with *prefix*."""
        keys = self.keys_with_prefix(prefix)
        for k in keys:
            del self._store[k]
        return len(keys)

    def clear(self) -> None:
        """Drop all contents of a live heap (its tenant is done with the place)."""
        self._check_live()
        self._store.clear()

    def destroy(self) -> None:
        """Irrevocably drop all contents (the place died)."""
        self._store.clear()
        self._store.dead = self.destroyed = True
        self.put = self.contains = self.pop = self._check_live

    def __len__(self) -> int:
        self._check_live()
        return len(self._store)

    def __iter__(self) -> Iterator[Hashable]:
        self._check_live()
        return iter(self._store)

    def __repr__(self) -> str:
        state = "destroyed" if self.destroyed else f"{len(self._store)} entries"
        return f"PlaceHeap(place={self.place_id}, {state})"
