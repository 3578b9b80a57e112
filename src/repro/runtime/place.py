"""Places and place groups — the APGAS process abstraction.

An X10 *place* is an OS process holding data and tasks; ``PlaceGroup`` is an
ordered collection of places.  The resilience work in the paper hinges on
two properties reproduced here exactly:

* a place keeps its *identifier* forever, but its *index* within a group
  shifts when dead places are filtered out (``SparsePlaceGroup`` semantics);
* multi-place GML objects are built over an arbitrary group, not the whole
  world, so they can be ``remake``-d over survivors or spares.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

from repro.util.validation import check_index, require


class Place:
    """An APGAS place, identified by a stable integer id."""

    __slots__ = ("id",)

    def __init__(self, place_id: int):
        if place_id < 0:
            raise ValueError(f"place id must be >= 0, got {place_id}")
        self.id = place_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Place) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("Place", self.id))

    def __repr__(self) -> str:
        return f"Place({self.id})"

    def __lt__(self, other: "Place") -> bool:
        return self.id < other.id


class PlaceGroup:
    """An ordered, duplicate-free collection of places.

    The *index* of a place inside a group (its position) is what GML uses as
    the key of its data partition; the *id* is the stable runtime identity.
    """

    def __init__(self, places: Iterable[Place]):
        self._places: List[Place] = list(places)
        ids = [p.id for p in self._places]
        require(len(set(ids)) == len(ids), f"duplicate places in group: {ids}")
        # Groups are immutable (every mutator builds a new group), so the
        # id -> index map is built once and serves the hot membership /
        # index lookups in O(1) instead of scanning the place list.
        self._index_by_id = {pid: i for i, pid in enumerate(ids)}
        #: Number of places in the group (X10 ``PlaceGroup.size()``).
        self.size = len(ids)

    # -- constructors -----------------------------------------------------

    @classmethod
    def of_ids(cls, ids: Iterable[int]) -> "PlaceGroup":
        """Build a group from raw place ids (order preserved)."""
        return cls(Place(i) for i in ids)

    @classmethod
    def dense(cls, n: int) -> "PlaceGroup":
        """The canonical group of places ``0..n-1``."""
        return cls.of_ids(range(n))

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._places)

    def __iter__(self) -> Iterator[Place]:
        return iter(self._places)

    def __getitem__(self, index: int) -> Place:
        if 0 <= index < len(self._places):
            return self._places[index]
        check_index(index, len(self._places), "place index")
        return self._places[index]  # pragma: no cover - check_index raised

    def __contains__(self, place: object) -> bool:
        return isinstance(place, Place) and place.id in self._index_by_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlaceGroup) and other._places == self._places

    def __hash__(self) -> int:
        return hash(tuple(p.id for p in self._places))

    def __repr__(self) -> str:
        return f"PlaceGroup({[p.id for p in self._places]})"

    # -- group algebra -----------------------------------------------------

    @property
    def ids(self) -> List[int]:
        """The place ids, in group order."""
        return [p.id for p in self._places]

    def index_of(self, place: Place) -> int:
        """Index of *place* within this group; ``-1`` if absent."""
        return self._index_by_id.get(place.id, -1)

    def contains_id(self, place_id: int) -> bool:
        """True if a place with the given id is in the group."""
        return place_id in self._index_by_id

    def next_place(self, index: int) -> Place:
        """The place after position *index*, wrapping around.

        This is the backup location used by the snapshot double store.
        """
        check_index(index, len(self._places), "place index")
        return self._places[(index + 1) % len(self._places)]

    def filter_dead(self, dead_ids: Sequence[int]) -> "PlaceGroup":
        """Survivor group: same order, dead places removed, indices shifted.

        This reproduces the paper's observation that after a failure "the
        identifiers of the remaining places will remain unchanged, but the
        index of some places will be shifted due to filtering out the dead
        places".
        """
        dead = set(dead_ids)
        return PlaceGroup(p for p in self._places if p.id not in dead)

    def remove(self, place: Place) -> "PlaceGroup":
        """Group without *place* (order preserved)."""
        return PlaceGroup(p for p in self._places if p != place)

    def extend(self, places: Iterable[Place]) -> "PlaceGroup":
        """Group with *places* appended (duplicates rejected)."""
        return PlaceGroup(list(self._places) + list(places))

    def replace(self, old: Place, new: Place) -> "PlaceGroup":
        """Group with *old* substituted by *new* at the same index.

        This is how the replace-redundant mode keeps every data partition on
        the same *index* while swapping the dead place's *id* for a spare's.
        """
        require(old in self, f"{old} not in group")
        require(new not in self, f"{new} already in group")
        return PlaceGroup(new if p == old else p for p in self._places)
