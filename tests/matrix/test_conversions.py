"""Tests for DistVector ↔ DupVector conversions."""

import numpy as np
import pytest

from repro.matrix.distvector import DistVector
from repro.matrix.dupvector import DupVector
from repro.runtime import CostModel, PlaceGroup, Runtime


def make_rt(n=4):
    return Runtime(n, cost=CostModel.zero())


class TestToDup:
    def test_every_replica_holds_full_vector(self):
        rt = make_rt()
        v = DistVector.make(rt, 10).init_random(3)
        d = DupVector.make(rt, 10)
        v.to_dup(d)
        assert d.replicas_consistent()
        assert np.array_equal(d.to_array(), v.to_array())

    def test_counts_gather_plus_broadcast(self):
        rt = make_rt()
        v = DistVector.make(rt, 10).init_random(3)
        d = DupVector.make(rt, 10)
        before = rt.stats.finishes
        v.to_dup(d)
        assert rt.stats.finishes - before == 2  # copy_to + sync


class TestFromDup:
    def test_scatter_matches(self):
        rt = make_rt()
        d = DupVector.make(rt, 11).init_random(5)
        v = DistVector.make(rt, 11)
        v.from_dup(d)
        assert np.array_equal(v.to_array(), d.to_array())

    def test_local_only_one_finish(self):
        rt = Runtime(4, cost=CostModel.zero(), trace=True)
        d = DupVector.make(rt, 11).init_random(5)
        v = DistVector.make(rt, 11)
        timeline = rt.engine.timeline
        timeline.clear()
        v.from_dup(d)
        assert len(timeline.of_kind("finish")) == 1
        # No payload moves: each place copies from its own replica.
        assert timeline.of_kind("transfer") == []

    def test_mismatch_rejected(self):
        rt = make_rt()
        d = DupVector.make(rt, 10)
        v = DistVector.make(rt, 11)
        with pytest.raises(ValueError):
            v.from_dup(d)
        sub = DupVector.make(rt, 11, PlaceGroup.of_ids([0, 1]))
        with pytest.raises(ValueError):
            v.from_dup(sub)

    def test_roundtrip_identity(self):
        rt = make_rt(3)
        v = DistVector.make(rt, 9).init_random(7)
        ref = v.to_array()
        d = DupVector.make(rt, 9)
        v.to_dup(d)
        v.fill(0.0)
        v.from_dup(d)
        assert np.array_equal(v.to_array(), ref)
