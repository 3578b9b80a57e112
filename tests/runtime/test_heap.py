"""Tests for per-place heaps and their destruction on failure."""

import pytest

from repro.engine.fork import ForkContext
from repro.runtime import CostModel, Runtime
from repro.runtime.heap import PlaceHeap


class TestPlaceHeap:
    def test_put_get_remove(self):
        h = PlaceHeap(0)
        h.put("a", 1)
        assert h.get("a") == 1
        assert h.contains("a")
        assert h.remove("a") == 1
        assert not h.contains("a")

    def test_missing_key(self):
        h = PlaceHeap(0)
        with pytest.raises(KeyError, match="place 0 heap has no entry 'missing'"):
            h.get("missing")
        with pytest.raises(KeyError):
            h.remove("missing")
        assert h.get_or("missing", 42) == 42
        h.remove_if_present("missing")  # no raise

    def test_replace(self):
        h = PlaceHeap(0)
        h.put("k", 1)
        h.put("k", 2)
        assert h.get("k") == 2
        assert len(h) == 1

    def test_prefix_queries(self):
        h = PlaceHeap(0)
        h.put(("snap", 1, 0), "a")
        h.put(("snap", 1, 1), "b")
        h.put(("snap", 2, 0), "c")
        h.put(("gml", 1), "d")
        assert sorted(h.keys_with_prefix(("snap", 1))) == [("snap", 1, 0), ("snap", 1, 1)]
        assert h.remove_prefix(("snap",)) == 3
        assert len(h) == 1

    def test_destroy_loses_everything(self):
        h = PlaceHeap(3)
        h.put("x", 1)
        h.destroy()
        assert h.destroyed
        for op in (
            lambda: h.get("x"),
            lambda: h.put("y", 2),
            lambda: h.contains("x"),
            lambda: len(h),
        ):
            with pytest.raises(RuntimeError, match="heap of dead place 3 accessed"):
                op()

    def test_dead_heap_raises_on_every_entry_operation(self):
        """``put`` / ``contains`` / ``pop`` are the store's own bound methods
        while the place lives; a destroyed heap — and one resumed from a fork
        image of a destroyed heap — must raise on all of them."""
        origin = Runtime(2, cost=CostModel.zero())
        origin.heap_of(1).put("x", 1)
        origin.kill(1)
        resumed = ForkContext().capture(origin).load()
        for heap in (origin._heaps[1], resumed._heaps[1]):
            assert heap.destroyed
            for op in (
                lambda: heap.get("x"),
                lambda: heap.put("y", 2),
                lambda: heap.contains("x"),
                lambda: heap.pop("x", None),
                lambda: heap.remove_if_present("x"),
                lambda: heap.remove("x"),
                lambda: heap.get_or("x"),
                lambda: heap.clear(),
            ):
                with pytest.raises(RuntimeError, match="heap of dead place 1 accessed"):
                    op()

    def test_live_heap_entry_operations_are_the_stores_own(self):
        h = PlaceHeap(0)
        assert h.put == h._store.__setitem__
        assert h.contains == h._store.__contains__
        assert h.pop == h._store.pop
        h.put("k", 1)
        assert h.pop("k", None) == 1 and h.pop("k", "gone") == "gone"
        h.put("k", 2)
        h.clear()
        assert len(h) == 0

    def test_get_follows_the_heap_through_a_fork(self):
        """``get`` is bound to the backing store, so a loaded image must
        rebind it to its own store rather than carry the origin's."""
        origin = Runtime(2, cost=CostModel.zero())
        origin.heap_of(0).put("shared-key", "origin")
        origin.kill(1)
        fork = ForkContext().capture(origin).load()
        loaded = fork.heap_of(0)
        assert loaded is not origin.heap_of(0) and loaded.get("shared-key") == "origin"
        marker = object()
        loaded.put("only-in-fork", marker)
        assert loaded.get("only-in-fork") is marker
        with pytest.raises(KeyError):
            origin.heap_of(0).get("only-in-fork")
        with pytest.raises(RuntimeError, match="heap of dead place 1 accessed"):
            fork._heaps[1].get("shared-key")

    def test_non_tuple_keys_ignored_by_prefix(self):
        h = PlaceHeap(0)
        h.put("plain", 1)
        assert h.keys_with_prefix(("snap",)) == []
