"""Transient message faults: drops, retries, duplicates, partitions.

The network stays *correct* under transient faults — retransmission with
exponential backoff re-delivers dropped messages, sequence-number
suppression absorbs duplicates (at-most-once delivery), and only a place
that stays unreachable past the retry budget escalates to the failure
detector as a ``CommTimeoutError``.
"""

import pytest

from repro.runtime import CostModel, Runtime
from repro.runtime.comm import point_to_point, tree_allreduce, tree_broadcast
from repro.runtime.exceptions import CommTimeoutError
from repro.runtime.failure import (
    BACKOFF,
    MAX_RETRIES,
    LinkPartition,
    MessageFate,
    TransientFaultModel,
    rto,
)


def rt_with(n, **cost_kwargs):
    return Runtime(n, cost=CostModel(**cost_kwargs))


class TestRetransmitBackoff:
    def test_rto_grows_by_the_backoff_per_attempt(self):
        cost = CostModel(latency=0.5)
        assert rto(0, cost) == pytest.approx(2.0)
        assert rto(1, cost) == pytest.approx(2.0 * BACKOFF)
        assert rto(3, cost) == pytest.approx(2.0 * BACKOFF**3)

    def test_default_rto_derived_from_cost_model(self):
        cost = CostModel(latency=0.1, byte_time=0.01)
        expected = 4 * 0.1 + 0.01 * cost.scaled_bytes(8.0)
        assert rto(0, cost, nbytes=8.0) == pytest.approx(expected)
        # The all-zero test cost model keeps retries free.
        assert rto(0, CostModel.zero()) == 0.0


class TestLinkPartition:
    def test_validation(self):
        with pytest.raises(ValueError, match="t_heal"):
            LinkPartition({1}, {2}, 1.0, 1.0)
        with pytest.raises(ValueError, match="disjoint"):
            LinkPartition({1, 2}, {2, 3}, 0.0, 1.0)

    def test_blocks_both_directions_only_inside_the_window(self):
        cut = LinkPartition({1}, {0, 2}, 1.0, 2.0)
        assert cut.blocks(1, 0, 1.5) and cut.blocks(0, 1, 1.5)
        assert not cut.blocks(1, 0, 0.5)  # before
        assert not cut.blocks(1, 0, 2.0)  # healed
        assert not cut.blocks(0, 2, 1.5)  # same side


class TestTransientFaultModel:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="drop_rate"):
            TransientFaultModel(drop_rate=1.0)
        with pytest.raises(ValueError, match="dup_rate"):
            TransientFaultModel(dup_rate=-0.1)
        with pytest.raises(ValueError):
            TransientFaultModel(delay_seconds=-1.0)

    def test_fate_sequence_deterministic_given_seed(self):
        draws_a = [TransientFaultModel(drop_rate=0.5, seed=7).fate(0, 1, 0.0)
                   for _ in range(1)]
        model_a = TransientFaultModel(drop_rate=0.5, dup_rate=0.3, seed=7)
        model_b = TransientFaultModel(drop_rate=0.5, dup_rate=0.3, seed=7)
        fates_a = [model_a.fate(0, 1, float(t)) for t in range(50)]
        fates_b = [model_b.fate(0, 1, float(t)) for t in range(50)]
        assert fates_a == fates_b
        assert model_a.dropped == model_b.dropped > 0
        del draws_a

    def test_partition_drops_without_consuming_randomness(self):
        cut = LinkPartition({1}, {0}, 0.0, 1.0)
        model = TransientFaultModel(partitions=[cut])
        assert model.fate(0, 1, 0.5) == MessageFate(delivered=False)
        assert model.fate(0, 1, 1.5).delivered
        assert model.dropped == 1

    def test_plain_fates_are_shared_and_the_rest_drawn_fresh(self):
        """A drop and a plain delivery return one shared fate each; only a
        duplicate or a delay builds its own."""
        model = TransientFaultModel(drop_rate=0.3, dup_rate=0.3, delay_rate=0.3,
                                    delay_seconds=1e-3, seed=4)
        fates = [model.fate(0, 1, float(t)) for t in range(200)]
        dropped = [f for f in fates if not f.delivered]
        plain = [f for f in fates if f == MessageFate(delivered=True)]
        drawn = [f for f in fates if f.duplicated or f.extra_delay]
        assert dropped and plain and drawn
        assert len({id(f) for f in dropped}) == len({id(f) for f in plain}) == 1
        assert len({id(f) for f in drawn}) == len(drawn)
        assert len(dropped) + len(plain) + len(drawn) == len(fates)

    def test_heartbeat_loss_is_stable_per_sequence_number(self):
        model = TransientFaultModel(drop_rate=0.4, seed=3)
        first = [model.heartbeat_lost(2, seq, 0.1 * seq) for seq in range(100)]
        again = [model.heartbeat_lost(2, seq, 0.1 * seq) for seq in range(100)]
        assert first == again  # hash-based, not draw-order dependent
        assert any(first) and not all(first)


class TestRetriesEndToEnd:
    def test_dropped_messages_are_retransmitted_and_delivered(self):
        rt = rt_with(3, latency=0.01)
        rt.set_faults(TransientFaultModel(drop_rate=0.4, seed=5))
        for _ in range(30):
            point_to_point(rt, 1, 2, nbytes=8)
        assert rt.faults.dropped > 0
        assert rt.faults.retransmissions == rt.faults.dropped
        assert rt.faults.timeouts == 0

    def test_retry_pays_backoff_in_virtual_time(self):
        rt_clean = rt_with(3, latency=0.01)
        point_to_point(rt_clean, 1, 2, nbytes=8)
        rt_lossy = rt_with(3, latency=0.01)
        # Seed chosen so the first draw drops and the retry delivers.
        model = TransientFaultModel(drop_rate=0.5, seed=8)
        rt_lossy.set_faults(model)
        point_to_point(rt_lossy, 1, 2, nbytes=8)
        assert model.retransmissions > 0
        assert rt_lossy.clock.now(2) > rt_clean.clock.now(2)

    def test_unreachable_place_escalates_after_bounded_retries(self):
        rt = rt_with(3, latency=0.01)
        cut = LinkPartition({2}, {0, 1}, 0.0, 1e9)
        rt.set_faults(TransientFaultModel(partitions=[cut]))
        with pytest.raises(CommTimeoutError) as exc_info:
            point_to_point(rt, 1, 2, nbytes=8)
        assert exc_info.value.place_id == 2
        assert exc_info.value.retries == MAX_RETRIES
        assert rt.faults.timeouts == 1

    def test_duplicates_are_absorbed_at_most_once(self):
        rt = rt_with(3, latency=0.01)
        rt.set_faults(TransientFaultModel(dup_rate=0.9, seed=1))
        t_done = point_to_point(rt, 1, 2, nbytes=8)
        assert rt.faults.duplicates > 0
        # The duplicate burns receive-side server time strictly after the
        # real delivery; the receiver's clock reflects one delivery.
        assert rt.clock.now(2) == pytest.approx(t_done)

    def test_collectives_survive_drops(self):
        rt = rt_with(8, latency=0.01)
        rt.set_faults(TransientFaultModel(drop_rate=0.3, seed=9))
        tree_broadcast(rt, rt.world, 0, nbytes=64)
        tree_allreduce(rt, rt.world, nbytes=64)
        assert rt.faults.dropped > 0
        assert rt.faults.timeouts == 0

    def test_zero_rate_model_changes_nothing(self):
        clocks = {}
        for label, faults in (
            ("off", None),
            ("zero", TransientFaultModel(seed=4)),
        ):
            rt = rt_with(4, latency=0.01, byte_time=0.001)
            if faults is not None:
                rt.set_faults(faults)
            tree_broadcast(rt, rt.world, 0, nbytes=128)
            tree_allreduce(rt, rt.world, nbytes=128)
            clocks[label] = [rt.clock.now(i) for i in range(4)]
        assert clocks["off"] == clocks["zero"]
