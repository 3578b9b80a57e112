"""Collective communication with modeled timing.

GML's multi-place operations move data in three patterns, all reproduced
here with explicit virtual-time models:

* **tree broadcast** — ``DupVector.sync()`` ships one place's copy to every
  other place; GML uses a binomial tree, so cost grows as
  ``log2(P) * (latency + bytes/bw)``;
* **flat gather** — ``DistVector.copyTo(local)`` pulls every segment to one
  place, which absorbs the messages serially (cost grows linearly in P);
* **tree reduce / allreduce** — dot products and gradient sums.

Each collective is an X10 *finish* under the hood, so under resilience it
posts spawn/termination events to the place-zero ledger exactly like
:meth:`repro.runtime.runtime.Runtime.finish_all` does — the join and the
ledger wait are completed by the runtime's engine
(:meth:`~repro.engine.scheduler.Scheduler.complete_finish`) rather than
re-derived here.

These helpers only account *time and liveness*; the caller (the matrix
layer) performs the actual NumPy data movement between heaps.  They raise
``DeadPlaceException`` when a participating place is dead.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.runtime.exceptions import (
    CommTimeoutError,
    DeadPlaceException,
    MultipleException,
)
from repro.runtime.failure import MAX_RETRIES, rto
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import Runtime
from repro.util.validation import check_index


def check_group_alive(rt: Runtime, group: PlaceGroup) -> None:
    """Raise for any dead member of *group* (before moving any data)."""
    alive = rt._alive
    dead = []
    for pid in group.ids:
        if not alive.get(pid, False):
            dead.append(pid)
    if len(dead) == 1:
        raise DeadPlaceException(dead[0])
    if dead:
        raise MultipleException([DeadPlaceException(d) for d in dead])


def _edge_fault(
    rt: Runtime, faults, src_id: int, dst_id: int, t_send: float, nbytes: float
) -> Tuple[float, float]:
    """Transient-fault outcome of one collective edge under *faults*.

    Returns ``(wait, extra_delay)``: *wait* is sender-side time lost to
    retransmissions before the successful attempt (a reliable network
    skips this call and keeps both 0.0 — bit-exact), *extra_delay* is
    in-flight jitter on the delivered copy.  A duplicated delivery burns
    receive-side server time but is suppressed (at-most-once).  Raises
    :class:`CommTimeoutError` when the retransmission budget is exhausted.
    """
    wait = 0.0
    attempt = 0
    while True:
        fate = faults.fate(src_id, dst_id, t_send + wait)
        if fate.delivered:
            if fate.duplicated:
                rt.engine.resource(("srv", dst_id)).acquire(
                    t_send + wait, rt.cost.message(0)
                )
            return wait, fate.extra_delay
        if attempt >= MAX_RETRIES:
            faults.timeouts += 1
            raise CommTimeoutError(dst_id, retries=attempt)
        wait += rto(attempt, rt.cost, nbytes)
        attempt += 1
        faults.retransmissions += 1


def _finish_phase(
    rt: Runtime,
    label: str,
    t_start: float,
    task_ends: List[float],
    n_tasks: int,
) -> float:
    """Join + ledger accounting shared by all collectives.

    The driver serially absorbs one termination message per task; under
    resilience the phase additionally waits for the ledger to drain two
    events per task (spawn + termination).  Both are scheduled by the
    engine; this is the same completion path the dispatch loop uses.
    """
    arrivals = None
    if rt.resilient:
        latency = rt.cost.latency
        arrivals = [t_start + latency] * n_tasks
        for t in task_ends:
            arrivals.append(t + latency)
    return rt.engine.complete_finish(rt, label, t_start, task_ends, n_tasks, arrivals)


def _zero_collective(rt: Runtime, size: int) -> float:
    """Zero-time completion shared by the collective fast paths.

    Every pattern over a *size*-place group completes a *size*-task finish;
    under :meth:`~repro.engine.scheduler.Scheduler.zero_fast` all its timing
    math lands on 0.0, so only the finish and task counts remain.
    """
    rt.engine.complete_finish_zero(rt, size)
    return 0.0


def point_to_point(rt: Runtime, src_id: int, dst_id: int, nbytes: float) -> float:
    """One payload message from *src* to *dst*; returns arrival time.

    The receive is served by the destination's communication server
    (concurrent with its compute, serialized against other transfers).
    """
    rt.check_alive(src_id)
    rt.check_alive(dst_id)
    return rt.transfer(src_id, dst_id, nbytes, rt.clock._times[src_id])


# The timed collectives index ``clock._times`` themselves (a write is
# ``VirtualClock.set_at_least`` inlined, ``_moved`` included) and compute the
# per-call constants once, with no helper call: wire times are read from the
# cost model's message memo (``CostModel.message`` only on a miss), the
# gather's absorb time and the reduce's fold seconds are ``scaled_bytes`` /
# ``flops`` arithmetic verbatim.
# Each edge's float operations keep their order, and on a reliable network
# its ``w`` and ``extra`` stay 0.0.


def tree_broadcast(
    rt: Runtime,
    group: PlaceGroup,
    root_index: int,
    nbytes: float,
    label: str = "bcast",
) -> float:
    """Binomial-tree broadcast of *nbytes* from the group's *root_index*.

    Returns the finish completion time at the driver.
    """
    size = group.size
    if not 0 <= root_index < size:
        check_index(root_index, size, "root_index")
    check_group_alive(rt, group)
    clock, cost = rt.clock, rt.cost
    if rt.engine.zero_fast():
        return _zero_collective(rt, size)
    times, faults = clock._times, rt.engine.faults
    msg = cost._msg_memo.get(nbytes)
    if msg is None:
        msg = cost.message(nbytes)
    t_start = times[rt.DRIVER_ID]

    # Virtual ranks: rank 0 = root; rank r lives at group index
    # (root_index + r) % size.  Round k: ranks < 2^k send to rank + 2^k.
    ids = group.ids
    pids = ids[root_index:] + ids[:root_index]

    w = extra = 0.0
    ready = [0.0] * size
    ready[0] = max(times[pids[0]], t_start)
    span = 1
    while span < size:
        for rank in range(span):
            peer = rank + span
            if peer >= size:
                break
            t_send = ready[rank]
            if faults is not None:
                w, extra = _edge_fault(rt, faults, pids[rank], pids[peer], t_send, nbytes)
            ready[peer] = max(t_send + w, times[pids[peer]]) + msg + extra
            ready[rank] = t_send + w + msg  # sender busy per send
        span *= 2
    for pid, t in zip(pids, ready):
        if t > times[pid]:
            times[pid] = t
            clock._moved = True
    return _finish_phase(rt, label, t_start, ready, n_tasks=size)


def flat_gather(
    rt: Runtime,
    group: PlaceGroup,
    root_index: int,
    nbytes_each: float,
    label: str = "gather",
) -> float:
    """Flat gather: every place sends *nbytes_each* to the root serially.

    The root absorbs one message per sender, one after another — this is the
    linear-in-P pattern of GML's ``copyTo`` (gather into a local vector).
    Returns the finish completion time at the driver.
    """
    size = group.size
    if not 0 <= root_index < size:
        check_index(root_index, size, "root_index")
    check_group_alive(rt, group)
    clock, cost = rt.clock, rt.cost
    if rt.engine.zero_fast():
        return _zero_collective(rt, size)
    times, faults = clock._times, rt.engine.faults
    latency = cost.latency
    absorb = cost.byte_time * (nbytes_each * cost.logical_scale)
    ids = group.ids
    root_id = ids[root_index]
    t_start = times[rt.DRIVER_ID]

    w = extra = 0.0
    t_root = max(times[root_id], t_start)
    task_ends = []
    senders = []
    for pid in ids:
        if pid != root_id:
            senders.append((times[pid], pid))
    senders.sort()
    for t_sender, sender_id in senders:
        t_send = max(t_sender, t_start)
        if faults is not None:
            w, extra = _edge_fault(rt, faults, sender_id, root_id, t_send, nbytes_each)
        send_done = t_send + w + latency + extra
        t_root = max(t_root, send_done) + absorb
        if send_done > times[sender_id]:
            times[sender_id] = send_done
            clock._moved = True
        task_ends.append(t_root)
    if t_root > times[root_id]:
        times[root_id] = t_root
        clock._moved = True
    task_ends.append(t_root)
    return _finish_phase(rt, label, t_start, task_ends, n_tasks=size)


def tree_reduce(
    rt: Runtime,
    group: PlaceGroup,
    root_index: int,
    nbytes: float,
    reduce_flops: float = 0.0,
    label: str = "reduce",
) -> float:
    """Binomial-tree reduction of *nbytes* payloads toward the root.

    Each merge step receives a peer's payload and folds it in at
    *reduce_flops* cost.  Returns the finish completion time at the driver.
    """
    size = group.size
    if not 0 <= root_index < size:
        check_index(root_index, size, "root_index")
    check_group_alive(rt, group)
    clock, cost = rt.clock, rt.cost
    if rt.engine.zero_fast():
        return _zero_collective(rt, size)
    times, faults = clock._times, rt.engine.faults
    memo = cost._msg_memo
    msg = memo.get(nbytes)
    if msg is None:
        msg = cost.message(nbytes)
    ack = memo.get(0)
    if ack is None:
        ack = cost.message(0)
    fold = cost.flop_time * reduce_flops * cost.logical_scale
    t_start = times[rt.DRIVER_ID]

    ids = group.ids
    pids = ids[root_index:] + ids[:root_index]  # rank -> place id, as in tree_broadcast

    w = extra = 0.0
    ready = []
    for pid in pids:
        ready.append(max(times[pid], t_start))
    span = 1
    while span < size:
        for rank in range(0, size, span * 2):
            peer = rank + span
            if peer >= size:
                continue
            t_send = ready[peer]
            if faults is not None:
                w, extra = _edge_fault(rt, faults, pids[peer], pids[rank], t_send, nbytes)
            ready[rank] = max(t_send + w, ready[rank]) + msg + extra + fold
            ready[peer] = t_send + w + ack
        span *= 2
    for pid, t in zip(pids, ready):
        if t > times[pid]:
            times[pid] = t
            clock._moved = True
    return _finish_phase(rt, label, t_start, ready, n_tasks=size)


def tree_allreduce(
    rt: Runtime,
    group: PlaceGroup,
    nbytes: float,
    reduce_flops: float = 0.0,
    label: str = "allreduce",
) -> float:
    """Reduce to the group's first place, then broadcast back out."""
    tree_reduce(rt, group, 0, nbytes, reduce_flops, label=label + ":reduce")
    return tree_broadcast(rt, group, 0, nbytes, label=label + ":bcast")
