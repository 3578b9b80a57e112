"""Coherent replicas: duplicated in virtual bytes, shared in host bytes.

While the replicas of a ``DupVector`` / ``DupDenseMatrix`` hold equal bytes
they alias **one frozen array** (observed by identity, never assumed); one
place's local write detaches that one replica; a replica-uniform operation
computes once per distinct input and the other places adopt the result.
None of it may move a value, a result or a virtual clock:

* the identity tests pin what births, keeps and breaks coherence;
* the state machine drives random operation sequences on a *subject* world
  against (a) an independent model of P plain NumPy arrays — contents and
  results, bitwise — and (b) a *twin* world whose replicas are forced
  private before every step, i.e. the one-array-per-place behaviour this
  design replaced — virtual clocks, bitwise;
* a place killed in the middle of a uniform finish leaves the survivors
  updated and raises the same ``DeadPlaceException``.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.bench.calibration import regression_cost
from repro.engine.fork import ForkContext
from repro.matrix.dense import DenseMatrix
from repro.matrix.dupmatrix import DupDenseMatrix
from repro.matrix.dupvector import DupVector
from repro.matrix.vector import Vector
from repro.runtime import CostModel, DeadPlaceException, Runtime

N, K = 6, 3  # vector length, matrix order


def replica_arrays(dup):
    return [dup.payload_at_index(i).data for i in range(dup.group.size)]


def assert_coherent(dup):
    arrays = replica_arrays(dup)
    assert all(array is arrays[0] for array in arrays)
    assert not arrays[0].flags.writeable


def local_write(dup, index, values):
    """One place's write, by the write protocol: ``touch()`` first."""
    replica = dup.payload_at_index(index)
    replica.touch()
    replica.data[...] = values


def make_dup(kind, rt):
    if kind == "vector":
        return DupVector.make(rt, N)
    return DupDenseMatrix.make_zero(rt, K, K)


# -- (i) what births, keeps and breaks coherence --------------------------------


def _init(dup):
    dup.init(2.0) if isinstance(dup, DupVector) else dup.fill(2.0)


def _init_values(dup):
    if isinstance(dup, DupVector):
        dup.init_random(7)
    else:
        dup.init_from(DenseMatrix(np.arange(K * K, dtype=float).reshape(K, K)))


def _uniform_ops(dup):
    other = make_dup("vector" if isinstance(dup, DupVector) else "matrix", dup.runtime)
    _init(other)
    dup.scale(0.5).cell_add(other).cell_mult(other)
    assert_coherent(other)


def _sync_after_root_write(dup):
    dup.local().fill(9.0)  # a driver-side update detaches the root
    assert replica_arrays(dup)[0].flags.writeable
    dup.sync()


def _reduce_sum_of_partials(dup):
    for index in range(dup.group.size):
        local_write(dup, index, float(index))
    dup.reduce_sum()
    assert np.all(dup.to_array() == sum(range(dup.group.size)))


def _same_size_restore(dup):
    _init_values(dup)
    saved = dup.to_array()
    snap = dup.make_snapshot()
    dup.scale(3.0)
    dup.restore_snapshot(snap)
    assert np.array_equal(dup.to_array(), saved)


BIRTHS = {
    "construction": lambda dup: None,
    "init": _init,
    "init_values": _init_values,
    "uniform_ops": _uniform_ops,
    "sync": _sync_after_root_write,
    "reduce_sum": _reduce_sum_of_partials,
    "restore": _same_size_restore,
}


@pytest.mark.parametrize("kind", ["vector", "matrix"])
@pytest.mark.parametrize("birth", sorted(BIRTHS))
def test_every_live_replica_is_one_frozen_array(kind, birth):
    dup = make_dup(kind, Runtime(4, cost=CostModel.zero()))
    BIRTHS[birth](dup)
    assert_coherent(dup)
    assert dup.replicas_consistent()


@pytest.mark.parametrize("kind", ["vector", "matrix"])
@pytest.mark.parametrize("recohere", ["sync", "reduce_sum"])
def test_a_local_write_detaches_exactly_that_replica(kind, recohere):
    dup = make_dup(kind, Runtime(4, cost=CostModel.zero()))
    _init(dup)
    local_write(dup, 2, 5.0)
    arrays = replica_arrays(dup)
    assert arrays[2].flags.writeable and np.all(arrays[2] == 5.0)
    rest = [arrays[i] for i in (0, 1, 3)]
    assert all(a is rest[0] for a in rest) and not rest[0].flags.writeable
    assert np.all(rest[0] == 2.0)

    # A uniform operation keeps both facts: the sharers share its result,
    # the private replica is computed on in place.
    dup.scale(2.0)
    after = replica_arrays(dup)
    assert after[2] is arrays[2] and np.all(after[2] == 10.0)
    assert after[0] is after[1] is after[3] and np.all(after[0] == 4.0)
    assert not dup.replicas_consistent()

    getattr(dup, recohere)()
    assert_coherent(dup)
    assert np.all(dup.to_array() == (4.0 if recohere == "sync" else 22.0))


def test_adopt_shares_the_array_and_touch_detaches():
    for obj, fresh in (
        (Vector.make(N), np.ones(N)),
        (DenseMatrix.make(K, K), np.ones((K, K))),
    ):
        before = obj.version
        obj.adopt(fresh)
        assert obj.data is fresh and not fresh.flags.writeable
        assert obj.version != before
        with pytest.raises(ValueError):
            obj.adopt(np.ones(N + 1))
        obj.touch()
        assert obj.data is not fresh and obj.data.flags.writeable
        assert np.array_equal(obj.data, fresh)


def test_a_uniform_operation_runs_its_kernel_once_per_distinct_input():
    rt = Runtime(6, cost=CostModel.zero())
    dup = DupVector.make(rt, N).init(1.0)
    calls = []

    def kernel(data):
        calls.append(data)
        return data + 1.0

    dup.map(kernel)
    assert len(calls) == 1 and rt.stats.tasks >= 6
    local_write(dup, 4, 7.0)
    dup.map(kernel)
    assert len(calls) == 3  # the sharers' array once, the private one once
    assert np.all(replica_arrays(dup)[4] == 8.0) and np.all(dup.to_array() == 3.0)


def test_a_memo_hit_rebinds_under_adopts_contract():
    rt = Runtime(4, cost=CostModel.zero(), resilient=True)
    dup = DupVector.make(rt, N).init(1.0)
    base = dup.make_snapshot()
    saved = dup.partition_versions()
    assert all(base.can_reuse(index, token) for index, token in saved.items())

    dup.scale(2.0)  # the kernel runs at place 0; places 1..3 take memo hits
    assert_coherent(dup)
    tokens = dup.partition_versions()
    assert len(set(tokens.values()) | set(saved.values())) == 2 * len(saved)
    # Every rebound replica reads dirty, so a delta checkpoint saves it.
    assert not any(base.can_reuse(index, token) for index, token in tokens.items())

    replica = dup.payload_at_index(2)
    shared = replica.data
    local_write(dup, 2, 5.0)  # a later in-place write detaches through touch()
    assert replica.data is not shared and np.all(shared == 2.0)
    assert np.all(replica_arrays(dup)[3] == 2.0)

    def reshape(vector):  # rebinds without adopt(): a result of another shape
        vector.data = np.zeros(N + 1)

    dup.sync()
    with pytest.raises(ValueError, match="cannot adopt"):
        dup._replica_uniform([dup], reshape, 0.0, "reshape")


# -- (iii) a place killed in the middle of a uniform finish -----------------------


@pytest.mark.parametrize("killer_call", [1, 2])
def test_kill_in_the_middle_of_a_uniform_finish(killer_call):
    rt = Runtime(4, cost=CostModel.zero(), resilient=True)
    dup = DupVector.make(rt, N).init(1.0)
    if killer_call == 2:
        local_write(dup, 1, 3.0)  # place 1 is private: the kernel runs there too
    calls = []

    def kernel(data):
        calls.append(data)
        if len(calls) == killer_call:
            rt.kill(2)  # dies while the finish is running, before its own task
        return data * 2.0

    with pytest.raises(DeadPlaceException) as raised:
        dup.map(kernel)
    assert raised.value.places == [2]
    assert len(calls) == killer_call
    survivors = {i: dup.payload_at_index(i).data for i in (0, 1, 3)}
    assert np.all(survivors[0] == 2.0) and survivors[3] is survivors[0]
    assert np.all(survivors[1] == (6.0 if killer_call == 2 else 2.0))
    assert (survivors[1] is survivors[0]) == (killer_call == 1)


# -- (ii) random operation sequences against an independent model -----------------


class _World:
    """One runtime with two duplicated vectors and three duplicated matrices."""

    def __init__(self):
        self.runtime = rt = Runtime(5, cost=regression_cost(), resilient=True)
        self.vectors = [DupVector.make(rt, N).init_random(seed) for seed in (1, 2)]
        self.matrices = [DupDenseMatrix.make_zero(rt, K, K) for _ in range(3)]
        for seed, matrix in enumerate(self.matrices):
            matrix.init_from(DenseMatrix.random(K, K, np.random.default_rng(seed)))
        self.snapshots = None

    @property
    def objects(self):
        return self.vectors + self.matrices

    @property
    def group(self):
        return self.vectors[0].group

    def force_private(self):
        """Give every replica its own writable array (same bytes, same
        version): every operation then runs per place, as before sharing."""
        for obj in self.objects:
            for index in range(obj.group.size):
                replica = obj.payload_at_index(index)
                if not replica.data.flags.writeable:
                    replica.data = replica.data.copy()

    def checkpoint(self):
        old, self.snapshots = self.snapshots, [obj.make_snapshot() for obj in self.objects]
        for snap in old or ():
            snap.delete()

    def recover(self, new_group, rehome):
        for vector in self.vectors:
            vector.rehome(new_group) if rehome else vector.remake(new_group)
        for matrix in self.matrices:
            matrix.remake(new_group)
        for obj, snap in zip(self.objects, self.snapshots):
            obj.restore_snapshot(snap)

    def forked(self):
        return ForkContext().capture(self).load()


_ALPHA = st.floats(-2.0, 2.0, allow_nan=False, width=32)
_VEC = st.integers(0, 1)
_MAT = st.integers(0, 2)


class CoherenceMachine(RuleBasedStateMachine):
    """Subject world, forced-private twin and a plain-NumPy model, in lock step."""

    def __init__(self):
        super().__init__()
        self.subject, self.twin = _World(), _World()
        # The model: per object, one plain array per group index.
        self.model = [
            [array.copy() for array in replica_arrays(obj)] for obj in self.subject.objects
        ]
        self.saved = None

    def teardown(self):
        self.subject.runtime.close()
        self.twin.runtime.close()

    # -- plumbing ---------------------------------------------------------------

    def _both(self, action):
        """Run *action(world)* on both worlds; the results must agree bitwise."""
        self.twin.force_private()
        got = [action(world) for world in (self.subject, self.twin)]
        assert got[0] == got[1]
        return got[0]

    def _vec(self, i):
        return self.model[i]

    def _mat(self, i):
        return self.model[2 + i]

    # -- uniform vector operations -------------------------------------------------

    @rule(i=_VEC, alpha=_ALPHA)
    def vector_scale(self, i, alpha):
        self._both(lambda w: w.vectors[i].scale(alpha) and None)
        for a in self._vec(i):
            a *= alpha

    @rule(i=_VEC, j=_VEC, alpha=_ALPHA)
    def vector_axpy(self, i, j, alpha):
        self._both(lambda w: w.vectors[i].axpy(alpha, w.vectors[j]) and None)
        for a, b in zip(self._vec(i), self._vec(j)):
            a += alpha * b

    @rule(i=_VEC, j=_VEC, op=st.sampled_from(["cell_add", "cell_sub", "cell_mult", "copy_from"]))
    def vector_pair(self, i, j, op):
        self._both(lambda w: getattr(w.vectors[i], op)(w.vectors[j]) and None)
        for a, b in zip(self._vec(i), self._vec(j)):
            if op == "cell_add":
                a += b
            elif op == "cell_sub":
                a -= b
            elif op == "cell_mult":
                a *= b
            else:
                a[:] = b

    @rule(i=_VEC, value=_ALPHA)
    def vector_fill_and_map(self, i, value):
        self._both(lambda w: w.vectors[i].fill(value).map(np.cos) and None)
        for a in self._vec(i):
            a.fill(value)
            a[:] = np.cos(a)

    @rule(i=_VEC, j=_VEC)
    def vector_dot(self, i, j):
        got = self._both(lambda w: w.vectors[i].dot(w.vectors[j]))
        assert got == float(self._vec(i)[0] @ self._vec(j)[0])

    # -- uniform matrix operations -------------------------------------------------

    @rule(i=_MAT, alpha=_ALPHA)
    def matrix_scale(self, i, alpha):
        self._both(lambda w: w.matrices[i].scale(alpha) and None)
        for a in self._mat(i):
            a *= alpha

    @rule(i=_MAT, j=_MAT, op=st.sampled_from(["cell_add", "cell_mult", "cell_div"]))
    def matrix_pair(self, i, j, op):
        self._both(lambda w: getattr(w.matrices[i], op)(w.matrices[j]) and None)
        for a, b in zip(self._mat(i), self._mat(j)):
            if op == "cell_add":
                a += b
            elif op == "cell_mult":
                a *= b
            else:
                a /= np.maximum(b, 1e-12)

    @rule(out=_MAT, i=_MAT, j=_MAT)
    def matrix_mult(self, out, i, j):
        self._both(lambda w: w.matrices[out].mult(w.matrices[i], w.matrices[j]) and None)
        products = [np.matmul(a, b) for a, b in zip(self._mat(i), self._mat(j))]
        for target, product in zip(self._mat(out), products):
            target[:] = product

    @rule(out=_MAT, i=_MAT)
    def matrix_transpose(self, out, i):
        self._both(lambda w: w.matrices[out].transpose_from(w.matrices[i]) and None)
        transposed = [a.T.copy() for a in self._mat(i)]
        for target, t in zip(self._mat(out), transposed):
            target[:] = t

    @rule(i=_MAT)
    def matrix_norm(self, i):
        got = self._both(lambda w: w.matrices[i].norm_f())
        assert got == float(np.linalg.norm(self._mat(i)[0]))

    # -- local writes and the collectives that re-cohere ---------------------------

    @rule(data=st.data(), which=st.integers(0, 4), value=_ALPHA)
    def write_locally(self, data, which, value):
        index = data.draw(st.integers(0, self.subject.group.size - 1))
        self._both(lambda w: local_write(w.objects[which], index, value))
        self.model[which][index][...] = value

    @rule(which=st.integers(0, 4))
    def sync(self, which):
        self._both(lambda w: w.objects[which].sync() and None)
        for a in self.model[which][1:]:
            a[...] = self.model[which][0]

    @rule(which=st.integers(0, 4))
    def reduce_sum(self, which):
        self._both(lambda w: w.objects[which].reduce_sum() and None)
        total = np.zeros_like(self.model[which][0])
        for a in self.model[which]:
            total += a
        for a in self.model[which]:
            a[...] = total

    # -- checkpoint, failure and restore, fork ----------------------------------------

    @rule()
    def checkpoint(self):
        self._both(lambda w: w.checkpoint())
        self.saved = [[a.copy() for a in arrays] for arrays in self.model]

    @precondition(lambda self: self.saved is not None and self.subject.group.size > 2)
    @rule(data=st.data(), replace=st.booleans())
    def kill_and_restore(self, data, replace):
        size = self.subject.group.size
        victim = data.draw(st.integers(1, size - 1))

        def fail_and_recover(world):
            rt, group = world.runtime, world.group
            dead = group[victim]
            rt.kill(dead.id)
            with pytest.raises(DeadPlaceException):
                world.vectors[0].scale(1.0)  # survivors run, the finish raises
            if replace:
                world.recover(group.replace(dead, rt.add_place()), rehome=True)
            else:
                world.recover(rt.live_group(group), rehome=False)
            world.checkpoint()

        self._both(fail_and_recover)
        new_size = size if replace else size - 1
        # Duplicates are interchangeable: index i reloads saved partition i.
        self.model = [[a.copy() for a in arrays[:new_size]] for arrays in self.saved]
        self.saved = [[a.copy() for a in arrays] for arrays in self.model]

    @rule()
    def fork(self):
        self.subject, self.twin = self.subject.forked(), self.twin.forked()

    # -- what must hold after every step -------------------------------------------

    @invariant()
    def contents_match_the_model_bitwise(self):
        for world in (self.subject, self.twin):
            for obj, arrays in zip(world.objects, self.model):
                assert obj.group.size == len(arrays)
                for got, want in zip(replica_arrays(obj), arrays):
                    assert got.tobytes() == want.tobytes()

    @invariant()
    def virtual_clocks_match_the_private_twin(self):
        assert self.subject.runtime.clock.snapshot() == self.twin.runtime.clock.snapshot()

    @invariant()
    def no_writable_array_is_shared(self):
        for obj in self.subject.objects:
            arrays = replica_arrays(obj)
            for i, a in enumerate(arrays):
                if a.flags.writeable:
                    assert not any(np.shares_memory(a, b) for b in arrays[:i] + arrays[i + 1 :])


CoherenceMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
# Random products of random matrices overflow; inf and nan compare bitwise too.
TestCoherenceMachine = pytest.mark.filterwarnings("ignore::RuntimeWarning")(
    CoherenceMachine.TestCase
)
