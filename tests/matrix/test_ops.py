"""Tests for the distributed kernels against NumPy references."""

from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.data import RegressionWorkload
from repro.apps.nonresilient.linreg import LinRegNonResilient
from repro.apps.nonresilient.logreg import LogRegNonResilient
from repro.matrix.dense import DenseMatrix
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.distvector import DistVector
from repro.matrix.dupvector import DupVector
from repro.matrix.grid import Grid, Partition1D
from repro.matrix.ops import dist_block_matvec, dist_block_normal_matvec, dist_block_t_matvec
from repro.matrix.random import LinkMatrix
from repro.runtime import CostModel, PlaceGroup, Runtime
from repro.runtime.exceptions import DeadPlaceException


def make_rt(n=4):
    return Runtime(n, cost=CostModel.zero())


#: Output / operand segments of 5/4/3 rows over a 12-row matrix whose 6
#: blocks are dealt 4/4/4 rows to 3 places: misaligned with every band but
#: the first.
MISALIGNED = Partition1D(12, [5, 4, 3])
#: What the kernels say when a vector is not on the matrix's row bands.
OFF_BANDS = r"partition \[5, 4, 3\] is not the matrix's row bands \[4, 4, 4\]"


def aligned_out(rt, G):
    return DistVector.make(rt, G.m, G.group, partition=G.aligned_row_partition())


class TestMatvec:
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_matches_numpy_aligned(self, kind):
        rt = make_rt(4)
        maker = DistBlockMatrix.make_dense if kind == "dense" else DistBlockMatrix.make_sparse
        G = maker(rt, 16, 10, 8).init_random(3, **({} if kind == "dense" else {"density": 0.4}))
        x = DupVector.make(rt, 10).init_random(5)
        y = aligned_out(rt, G).mult(G, x)
        assert np.allclose(y.to_array(), G.to_dense().data @ x.to_array())

    def test_scattered_blocks_route_remotely(self):
        # Row bands of 4 against output segments of 5/4/3: part of each
        # later band would land in another place's segment.  The kernel
        # refuses before any task runs: no clock moves, no event is logged.
        rt = Runtime(3, cost=CostModel.unit(), trace=True)
        G = DistBlockMatrix.make_dense(rt, 12, 6, 6).init_random(4)
        x = DupVector.make(rt, 6).init_random(5)
        y = DistVector.make(rt, 12, partition=MISALIGNED)
        rt.engine.timeline.clear()
        clocks = rt.clock.snapshot()
        with pytest.raises(ValueError, match="output " + OFF_BANDS):
            dist_block_matvec(G, x, y)
        assert rt.clock.snapshot() == clocks and not rt.engine.timeline.events

    def test_after_shrink_remap(self):
        rt = make_rt(4)
        G = DistBlockMatrix.make_dense(rt, 16, 6, 8).init_random(1)
        ref = G.to_dense().data
        snap = G.make_snapshot()
        rt.kill(2)
        survivors = rt.live_world()
        G.remake(survivors)
        G.restore_snapshot(snap)
        x = DupVector.make(rt, 6, survivors).init_random(2)
        y = aligned_out(rt, G).mult(G, x)
        assert np.allclose(y.to_array(), ref @ x.to_array())

    def test_dimension_checks(self):
        rt = make_rt(2)
        G = DistBlockMatrix.make_dense(rt, 8, 4, 4)
        with pytest.raises(ValueError):
            dist_block_matvec(G, DupVector.make(rt, 5), DistVector.make(rt, 8))
        with pytest.raises(ValueError):
            dist_block_matvec(G, DupVector.make(rt, 4), DistVector.make(rt, 9))

    def test_group_checks(self):
        rt = make_rt(3)
        G = DistBlockMatrix.make_dense(rt, 8, 4, 4, group=PlaceGroup.of_ids([0, 1]))
        x = DupVector.make(rt, 4, PlaceGroup.of_ids([0, 2]))
        with pytest.raises(ValueError):
            dist_block_matvec(G, x, DistVector.make(rt, 8, PlaceGroup.of_ids([0, 1])))


class TestTransposeMatvec:
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_matches_numpy(self, kind):
        rt = make_rt(4)
        maker = DistBlockMatrix.make_dense if kind == "dense" else DistBlockMatrix.make_sparse
        G = maker(rt, 16, 10, 8).init_random(3, **({} if kind == "dense" else {"density": 0.4}))
        r = aligned_out(rt, G).init_random(6)
        g = DupVector.make(rt, 10)
        dist_block_t_matvec(G, r, g)
        assert np.allclose(g.to_array(), G.to_dense().data.T @ r.to_array())
        assert g.replicas_consistent(1e-12)

    def test_misaligned_operand_fetches_remote(self):
        # An operand off the 4/4/4 bands would need rows from other places:
        # refused before any task runs.
        rt = Runtime(3, cost=CostModel.unit())
        G = DistBlockMatrix.make_dense(rt, 12, 6, 6).init_random(4)
        r = DistVector.make(rt, 12, partition=MISALIGNED).init_random(5)
        g = DupVector.make(rt, 6)
        clocks = rt.clock.snapshot()
        with pytest.raises(ValueError, match="operand " + OFF_BANDS):
            dist_block_t_matvec(G, r, g)
        assert rt.clock.snapshot() == clocks

    def test_dimension_checks(self):
        rt = make_rt(2)
        G = DistBlockMatrix.make_dense(rt, 8, 4, 4)
        with pytest.raises(ValueError):
            dist_block_t_matvec(G, DistVector.make(rt, 7), DupVector.make(rt, 4))
        with pytest.raises(ValueError):
            dist_block_t_matvec(G, DistVector.make(rt, 8), DupVector.make(rt, 5))


def host_gemvs(monkeypatch):
    """Count host ``DenseMatrix`` matvec / t_matvec calls by enclosing finish.

    Returns a Counter keyed ``(method, finish label)``.
    """
    calls: Counter = Counter()
    labels = []
    finish = Runtime._finish

    def traced_finish(self, tasks, n_tasks, ret_bytes, label, flops=None):
        labels.append(label)
        try:
            return finish(self, tasks, n_tasks, ret_bytes, label, flops)
        finally:
            labels.pop()

    monkeypatch.setattr(Runtime, "_finish", traced_finish)
    for name in ("matvec", "t_matvec"):
        method = getattr(DenseMatrix, name)

        def counted(self, x, name=name, method=method):
            calls[name, labels[-1] if labels else None] += 1
            return method(self, x)

        monkeypatch.setattr(DenseMatrix, name, counted)
    return calls


def _aligned_world():
    rt = Runtime(4, cost=CostModel.unit())
    G = DistBlockMatrix.make_dense(rt, 16, 10, 8).init_random(3)
    x = DupVector.make(rt, 10).init_random(5)
    return rt, G, x, aligned_out(rt, G), DupVector.make(rt, 10)


def _scattered_world():
    rt = Runtime(3, cost=CostModel.unit())
    G = DistBlockMatrix.make_dense(rt, 12, 6, 6).init_random(4)
    x = DupVector.make(rt, 6).init_random(5)
    return rt, G, x, DistVector.make(rt, 12, partition=MISALIGNED), DupVector.make(rt, 6)


def _shrunk_world(rebalance: bool):
    rt = Runtime(4, cost=CostModel.unit())
    G = DistBlockMatrix.make_dense(rt, 16, 6, 8).init_random(1)
    snap = G.make_snapshot()
    rt.kill(2)
    survivors = rt.live_world()
    grid = Grid.partition(16, 6, survivors.size) if rebalance else None
    G.remake(survivors, new_grid=grid)
    G.restore_snapshot(snap)
    x = DupVector.make(rt, 6, survivors).init_random(2)
    return rt, G, x, aligned_out(rt, G), DupVector.make(rt, 6, survivors)


WORLDS = {
    "aligned": _aligned_world,
    "scattered": _scattered_world,
    "shrink": lambda: _shrunk_world(False),
    "shrink-rebalance": lambda: _shrunk_world(True),
}


def _state(rt, y, g):
    """Every live byte and every virtual number the two finishes leave behind."""
    live = [i for i, place in enumerate(g.group) if rt.is_alive(place.id)]
    payloads = [v.payload_at_index(i).data.tobytes() for v in (y, g) for i in live]
    return payloads, rt.clock.snapshot(), asdict(rt.stats), rt.phase


def _two_kernels(G, x, y, g):
    dist_block_matvec(G, x, y)
    dist_block_t_matvec(G, y, g)


class TestNormalMatvec:
    """``dist_block_normal_matvec`` is bitwise the two-kernel sequence."""

    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_bitwise_the_two_kernels(self, world, monkeypatch):
        rt, G, x, y, g = WORLDS[world]()
        if world == "scattered":  # an output off the row bands: both refuse alike
            with pytest.raises(ValueError, match="output " + OFF_BANDS):
                _two_kernels(G, x, y, g)
            expected = _state(rt, y, g)
            rt, G, x, y, g = WORLDS[world]()
            calls = host_gemvs(monkeypatch)
            with pytest.raises(ValueError, match="output " + OFF_BANDS):
                dist_block_normal_matvec(G, x, y, g)
            assert _state(rt, y, g) == expected and not calls
            return
        _two_kernels(G, x, y, g)
        expected = _state(rt, y, g)
        rt, G, x, y, g = WORLDS[world]()
        calls = host_gemvs(monkeypatch)
        dist_block_normal_matvec(G, x, y, g)
        assert _state(rt, y, g) == expected
        assert np.allclose(g.to_array(), G.to_dense().data.T @ (G.to_dense().data @ x.to_array()))
        # Every transpose product is formed in the matvec finish.
        blocks = G.grid.num_row_blocks
        assert calls == Counter({("matvec", "matvec"): blocks, ("t_matvec", "matvec"): blocks})

    def test_rows_that_differ_in_bytes_are_multiplied_again(self, monkeypatch):
        # The matvec adds a block's rows to a zeroed segment, so a -0.0 in
        # G_b x reaches the t_matvec finish as +0.0: equal values, other
        # bytes.  BLAS never returns -0.0 here, so a matvec that does stands
        # in; the stored product must not be used for that block.
        matvec = DenseMatrix.matvec

        def signed_zeros(self, x):
            out = matvec(self, x)
            out[out == 0.0] = -0.0
            return out

        monkeypatch.setattr(DenseMatrix, "matvec", signed_zeros)

        def world():
            rt, G, x, y, g = _aligned_world()
            zeroed = G.block_set(1).get(2).data  # one of place 1's blocks
            zeroed.touch()
            zeroed.data[:] = 0.0
            return rt, G, x, y, g

        rt, G, x, y, g = world()
        _two_kernels(G, x, y, g)
        expected = _state(rt, y, g)
        rt, G, x, y, g = world()
        calls = host_gemvs(monkeypatch)
        dist_block_normal_matvec(G, x, y, g)
        assert _state(rt, y, g) == expected
        assert calls[("t_matvec", "matvec")] == 8
        assert calls[("t_matvec", "t_matvec")] == 1

    def test_kill_before_the_t_matvec_finish(self, monkeypatch):
        def world():
            rt, G, x, y, g = _aligned_world()
            snap = G.make_snapshot()
            rt.injector.kill_at_phase(1, rt.phase + 2)  # the second finish
            return rt, G, x, y, g, snap

        def after_kill(rt, G, snap, multiply):
            survivors = rt.live_world()
            G.remake(survivors)
            G.restore_snapshot(snap)
            x = DupVector.make(rt, 10, survivors).init_random(9)
            y, g = aligned_out(rt, G), DupVector.make(rt, 10, survivors)
            multiply(G, x, y, g)
            return _state(rt, y, g)

        rt, G, x, y, g, snap = world()
        with pytest.raises(DeadPlaceException) as raised:
            _two_kernels(G, x, y, g)
        expected_error = (type(raised.value), str(raised.value), _state(rt, y, g))
        expected = after_kill(rt, G, snap, _two_kernels)

        rt, G, x, y, g, snap = world()
        calls = host_gemvs(monkeypatch)
        with pytest.raises(DeadPlaceException) as raised:
            dist_block_normal_matvec(G, x, y, g)
        assert (type(raised.value), str(raised.value), _state(rt, y, g)) == expected_error
        calls.clear()
        # The next call forms and uses only its own products.
        assert after_kill(rt, G, snap, dist_block_normal_matvec) == expected
        assert calls == Counter({("matvec", "matvec"): 8, ("t_matvec", "matvec"): 8})


class TestNormalMatvecFastPath:
    """Guard against a refactor that silently drops the fusion."""

    WORKLOAD = RegressionWorkload(features=8, examples_per_place=20, iterations=3)

    def test_linreg_forms_each_transpose_product_in_the_matvec_finish(self, monkeypatch):
        app = LinRegNonResilient(Runtime(4, cost=CostModel.zero()), self.WORKLOAD)
        blocks = app.X.grid.num_row_blocks
        calls = host_gemvs(monkeypatch)
        app.step()
        assert calls == Counter({("matvec", "matvec"): blocks, ("t_matvec", "matvec"): blocks})

    def test_logreg_gemv_count_is_unchanged(self, monkeypatch):
        app = LogRegNonResilient(Runtime(4, cost=CostModel.zero()), self.WORKLOAD)
        blocks = app.X.grid.num_row_blocks
        calls = host_gemvs(monkeypatch)
        app.step()
        assert calls == Counter(
            {("matvec", "matvec"): 2 * blocks, ("t_matvec", "t_matvec"): blocks}
        )


class TestPageRankKernelChain:
    def test_one_power_iteration_matches_numpy(self):
        # The exact Listing 2 chain on a small graph.
        rt = make_rt(4)
        n, alpha = 20, 0.85
        link = LinkMatrix(n, 3, seed=1)
        G = DistBlockMatrix.make_sparse(rt, n, n, 8).init_link_matrix(link)
        P = DupVector.make(rt, n).init(1.0 / n)
        GP = DistVector.make(rt, n, partition=G.aligned_row_partition())

        Gd = G.to_dense().data
        expected = alpha * (Gd @ P.to_array()) + (1 - alpha) / n

        GP.mult(G, P).scale(alpha)
        GP.copy_to(P.local())
        P.local().cell_add((1 - alpha) / n)
        P.sync()

        assert np.allclose(P.to_array(), expected)
        assert P.replicas_consistent(1e-12)

    @settings(max_examples=10, deadline=None)
    @given(places=st.integers(1, 6), row_blocks=st.integers(1, 10), seed=st.integers(0, 20))
    def test_matvec_place_count_invariance(self, places, row_blocks, seed):
        """The kernel result is independent of distribution."""
        n = 15
        row_blocks = max(row_blocks, places)
        link = LinkMatrix(n, 2, seed=seed)
        rt = make_rt(places)
        G = DistBlockMatrix.make_sparse(rt, n, n, row_blocks).init_link_matrix(link)
        x = DupVector.make(rt, n).init_random(seed)
        y = aligned_out(rt, G).mult(G, x)
        assert np.allclose(y.to_array(), link.block(0, n, 0, n).to_dense() @ x.to_array())
