"""Tests for the virtual clock and the cost model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runtime.clock import VirtualClock
from repro.runtime.cost import CostModel, validate_cost_model


class TestVirtualClock:
    def test_register_and_advance(self):
        c = VirtualClock()
        c.register(0)
        c.register(1, at_time=5.0)
        assert c.now(0) == 0.0
        assert c.now(1) == 5.0
        c.advance(0, 2.5)
        assert c.now(0) == 2.5

    def test_double_register_rejected(self):
        c = VirtualClock()
        c.register(0)
        with pytest.raises(ValueError):
            c.register(0)

    def test_negative_advance_rejected(self):
        c = VirtualClock()
        c.register(0)
        with pytest.raises(ValueError):
            c.advance(0, -1.0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("slowdown", [1.0, 3.0])
    def test_non_finite_advance_rejected(self, seconds, slowdown):
        c = VirtualClock()
        c.register(0, at_time=1.5)
        c.set_slowdown(0, slowdown)
        with pytest.raises(ValueError, match="non-finite|negative"):
            c.advance(0, seconds)
        assert c.now(0) == 1.5

    def test_set_at_least_only_moves_forward(self):
        c = VirtualClock()
        c.register(0, at_time=10.0)
        c.set_at_least(0, 5.0)
        assert c.now(0) == 10.0
        c.set_at_least(0, 12.0)
        assert c.now(0) == 12.0

    def test_barrier(self):
        c = VirtualClock()
        for i in range(3):
            c.register(i, at_time=float(i))
        t = c.barrier([0, 1, 2])
        assert t == 2.0
        assert all(c.now(i) == 2.0 for i in range(3))

    def test_barrier_subset(self):
        c = VirtualClock()
        for i in range(3):
            c.register(i, at_time=float(i))
        c.barrier([0, 1])
        assert c.now(0) == 1.0
        assert c.now(2) == 2.0

    def test_global_time(self):
        c = VirtualClock()
        c.register(0, 1.0)
        c.register(1, 7.0)
        assert c.global_time() == 7.0

    def test_empty_barrier(self):
        assert VirtualClock().barrier([]) == 0.0


class TestCostModel:
    def test_zero_charges_nothing(self):
        m = CostModel.zero()
        assert m.flops(1e9) == 0.0
        assert m.message(1e9) == 0.0
        assert m.memcpy(1e9) == 0.0

    def test_unit_rates(self):
        m = CostModel.unit()
        assert m.flops(3) == 3.0
        assert m.message(2) == 3.0  # latency 1 + 2 bytes * 1
        assert m.memcpy(4) == 4.0

    def test_logical_scale_multiplies_volume_terms(self):
        m = CostModel.unit().with_scale(10.0)
        assert m.flops(3) == 30.0
        # Latency is not scaled; byte volume is.
        assert m.message(2) == 21.0
        assert m.scaled_bytes(2) == 20.0

    def test_with_rates(self):
        m = CostModel.zero().with_rates(latency=5.0)
        assert m.message(0) == 5.0
        assert m.flop_time == 0.0

    def test_validation(self):
        assert validate_cost_model(CostModel.unit()) is None
        bad = CostModel(latency=-1.0)
        assert "latency" in validate_cost_model(bad)

    def test_frozen(self):
        with pytest.raises(Exception):
            CostModel.unit().latency = 2.0

    @given(
        n=st.floats(0, 1e9),
        scale=st.floats(0.1, 1e4),
        rate=st.floats(0, 1e-3),
    )
    def test_flops_linear_in_scale(self, n, scale, rate):
        m = CostModel(flop_time=rate).with_scale(scale)
        assert m.flops(n) == pytest.approx(rate * n * scale)
