"""Property suite: fork/resume of the simulator is bitwise exact.

For each scenario the straight-through run is executed once with a
``boundary_hook`` that captures a :class:`~repro.engine.fork.SimulatorImage`
at *every* iteration-commit boundary — with scripted kills armed, delta
checkpointing, parity placement, or a failure detector in flight.  Every
image is then resumed to completion and must reproduce the straight run's
``ExecutionReport``, final vector, virtual clock, and message counters
*bitwise* (exact float equality, not tolerances) — the invariant the chaos
prefix cache (:mod:`repro.chaos`) is built on.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.bench.catalogue import APPS
from repro.chaos import CampaignConfig, PrefixCache, schedule_spec
from repro.engine.fork import ForkContext, capture_boundaries
from repro.matrix import DistBlockMatrix, DistVector
from repro.matrix.multiplace import MultiPlaceObject
from repro.resilience.executor import IterativeExecutor, RestoreMode
from repro.resilience.placement import make_placement
from repro.resilience.protection import Protection
from repro.runtime.cost import CostModel
from repro.runtime.detector import PhiAccrualDetector
from repro.runtime.exceptions import RuntimeFault
from repro.runtime.factory import make_runtime
from repro.runtime.failure import ScriptedKill


def _fingerprint(executor, report):
    """Everything a resumed run must reproduce exactly."""
    rt = executor.runtime
    return {
        "report": asdict(report),
        "time": rt.clock.global_time(),
        "finishes": rt.stats.finishes,
    }


def _run_with_captures(config: CampaignConfig, kills, checkpoint_mode="blocking"):
    """Straight run with *kills* armed, capturing an image at every boundary."""
    rt, app, _, executor = replace(config.spec, checkpoint_mode=checkpoint_mode).build()
    for kill in kills:
        rt.injector.add(kill)
    context = ForkContext()
    images = {}

    def snap(boundary: int) -> bool:
        images[boundary] = context.capture(executor)
        return True

    report = executor.run(boundary_hook=snap)
    result_of = APPS[config.app].result
    return (
        _fingerprint(executor, report),
        np.asarray(result_of(app)).copy(),
        images,
        config.app,
    )


def _resume_and_check(images, expected_fp, expected_result, app_name):
    """Resume every captured boundary; each must match the straight run."""
    result_of = APPS[app_name].result
    assert images, "no boundaries captured"
    for boundary, image in sorted(images.items()):
        forked = image.load()
        report = forked.run()
        fp = _fingerprint(forked, report)
        assert fp == expected_fp, f"fork at boundary {boundary} diverged"
        result = np.asarray(result_of(forked.app))
        assert np.array_equal(result, expected_result), (
            f"fork at boundary {boundary}: final vector not bitwise identical"
        )


KILLS = [
    ScriptedKill(place_id=2, iteration=3),
    ScriptedKill(place_id=4, iteration=5),
]


@pytest.mark.parametrize("app", ["linreg", "pagerank", "cg"])
def test_every_boundary_fork_is_exact_checkpoint(app):
    config = CampaignConfig(
        app=app, places=6, iterations=8, checkpoint_interval=2, schedules=1
    )
    fp, result, images, name = _run_with_captures(config, KILLS)
    _resume_and_check(images, fp, result, name)


def test_every_boundary_fork_is_exact_reconstruct():
    config = CampaignConfig(
        app="cg",
        places=6,
        iterations=8,
        checkpoint_interval=2,
        schedules=1,
        spares=2,
        recovery="reconstruct",
    )
    fp, result, images, name = _run_with_captures(config, KILLS)
    _resume_and_check(images, fp, result, name)


def test_every_boundary_fork_is_exact_overlapped_delta():
    config = CampaignConfig(
        app="linreg",
        places=6,
        iterations=8,
        checkpoint_interval=2,
        schedules=1,
        ckpt_delta=True,
    )
    fp, result, images, name = _run_with_captures(
        config, KILLS, checkpoint_mode="overlapped"
    )
    _resume_and_check(images, fp, result, name)


def test_every_boundary_fork_is_exact_parity_placement():
    config = CampaignConfig(
        app="pagerank",
        places=8,
        iterations=8,
        checkpoint_interval=2,
        schedules=1,
        replicas=1,
        placement="parity:3",
    )
    fp, result, images, name = _run_with_captures(config, KILLS)
    _resume_and_check(images, fp, result, name)


def test_fork_with_detector_suspicion_in_flight():
    """Capture boundaries while a phi-accrual detector (whose heartbeats
    move the virtual clocks) and an armed kill are live in the world."""
    app_name = "cg"
    entry = APPS[app_name]
    rt = make_runtime(6, cost=CostModel.zero(), resilient=True)
    app = entry.resilient(rt, entry.tiny_workload(8))
    rt.injector.add(ScriptedKill(place_id=3, iteration=4))
    detector = PhiAccrualDetector(rt, detect_timeout=5.0)
    executor = IterativeExecutor(
        rt,
        app,
        protection=Protection(replicas=2, placement=make_placement("spread")),
        checkpoint_interval=2,
        mode=RestoreMode.SHRINK,
        detector=detector,
    )
    context = ForkContext()
    images = {}

    def snap(boundary: int) -> bool:
        images[boundary] = context.capture(executor)
        return True

    report = executor.run(boundary_hook=snap)
    fp = _fingerprint(executor, report)
    result = np.asarray(entry.result(app)).copy()
    _resume_and_check(images, fp, result, app_name)


def test_bench_pagerank_image_shares_link_blocks_by_reference():
    """Full-width link blocks are frozen slices of the memoized graph: an
    image parks them by reference, so a 12-place bench world costs kilobytes
    per boundary, not the graph."""
    entry = APPS["pagerank"]
    workload = entry.bench_workload(4)
    rt = make_runtime(12, cost=entry.bench_cost(), resilient=True)
    app = entry.resilient(rt, workload)
    rt.injector.add(ScriptedKill(place_id=5, iteration=3))
    executor = IterativeExecutor(rt, app, checkpoint_interval=2)
    context = ForkContext()
    images = {}

    def snap(boundary: int) -> bool:
        images[boundary] = context.capture(executor)
        return True

    report = executor.run(boundary_hook=snap)
    assert report.restores == 1
    assert max(image.nbytes for image in images.values()) < 256 * 1024
    graph = app.link.global_csr()
    parked = [a for a in context._frozen if isinstance(a, np.ndarray)]
    assert any(np.shares_memory(a, graph.values) for a in parked)
    _resume_and_check(
        images, _fingerprint(executor, report), np.asarray(app.ranks()).copy(), "pagerank"
    )


def test_frozen_view_of_a_writable_base_is_still_copied():
    base = np.arange(10.0)
    view = base[2:6]
    view.setflags(write=False)
    context = ForkContext()
    loaded = context.capture({"v": view}).load()
    base[2] = -1.0
    assert loaded["v"][0] == 2.0 and not loaded["v"].flags.writeable


def test_a_live_block_set_is_pickled_by_value():
    """A capture freezes a live vector but not a ``DistBlockMatrix``'s blocks
    (a ``BlockSet`` is not a snapshot payload): a touched block stays
    writable on the origin, and the fork writes its own copy."""
    rt = make_runtime(2, cost=CostModel.zero())
    v, g = DistVector.make(rt, 4), DistBlockMatrix.make_dense(rt, 4, 4, 2).init_random(1)
    block = g.scale(2.0).block_set(0).get(0).data.data
    before, fork = block.copy(), ForkContext().capture(g).load()
    assert block.flags.writeable and not v.payload_at_index(0).data.flags.writeable
    fork.block_set(0).get(0).data.data[...] = -1.0
    assert np.array_equal(block, before)


def test_sibling_forks_are_independent():
    """Two forks of one image cannot perturb each other (CoW isolation):
    resuming the same boundary twice gives identical results, and the
    shared frozen arrays are never written through."""
    config = CampaignConfig(
        app="linreg", places=6, iterations=8, checkpoint_interval=2, schedules=1
    )
    fp, result, images, name = _run_with_captures(config, KILLS)
    result_of = APPS[name].result
    mid = sorted(images)[len(images) // 2]
    first = images[mid].load()
    report_a = first.run()
    second = images[mid].load()
    report_b = second.run()
    assert asdict(report_a) == asdict(report_b)
    assert _fingerprint(first, report_a) == fp
    assert _fingerprint(second, report_b) == fp
    assert np.array_equal(np.asarray(result_of(first.app)), result)
    assert np.array_equal(np.asarray(result_of(second.app)), result)


def test_pause_resume_on_origin_equals_fork():
    """run() pausing at a boundary and continuing on the *origin* executor
    is the same as continuing on a fork taken there."""
    config = CampaignConfig(
        app="cg", places=6, iterations=8, checkpoint_interval=2, schedules=1
    )
    result_of = APPS[config.app].result
    rt, app, _, executor = config.spec.build()
    for kill in KILLS:
        rt.injector.add(kill)
    context = ForkContext()
    paused = executor.run(boundary_hook=lambda b: b < 4)
    assert paused is None
    image = context.capture(executor)
    report_origin = executor.run()
    fp = _fingerprint(executor, report_origin)
    result = np.asarray(result_of(app)).copy()

    forked = image.load()
    report_fork = forked.run()
    assert _fingerprint(forked, report_fork) == fp
    assert np.array_equal(np.asarray(result_of(forked.app)), result)


def test_shared_slots_dedupe_within_and_across_captures():
    """One side-table slot per shared object per context; a frozen view of a
    writable base is snapshotted once per capture however often the graph
    names it."""
    owner = np.arange(6.0)
    owner.setflags(write=False)
    view = np.arange(10.0)[2:6]
    view.setflags(write=False)
    context = ForkContext()
    first = context.capture({"a": owner, "b": owner, "v": view, "w": view}).load()
    assert first["a"] is owner and first["b"] is owner
    assert first["v"] is first["w"] and first["v"] is not view
    assert len(context._frozen) == 2
    second = context.capture([owner, view]).load()
    assert second[0] is owner
    assert len(context._frozen) == 3  # the owner's slot reused, the view re-snapshotted


def test_context_and_images_survive_process_transport():
    """What a spawn-style pool does: pickle the images (and through them the
    context) with the plain pickler, load them elsewhere, resume."""
    import pickle

    config = CampaignConfig(
        app="linreg", places=4, iterations=6, checkpoint_interval=2, schedules=1
    )
    fp, result, images, name = _run_with_captures(
        config, [ScriptedKill(place_id=2, iteration=3)]
    )
    shipped = pickle.loads(pickle.dumps(images))
    contexts = {id(image._context) for image in shipped.values()}
    assert len(contexts) == 1
    assert shipped[0].version_floor == images[0].version_floor
    frozen = next(iter(shipped.values()))._context._frozen
    assert all(not a.flags.writeable for a in frozen if isinstance(a, np.ndarray))
    _resume_and_check(shipped, fp, result, name)


def test_a_context_resolves_each_global_once():
    """Loads share the context's table of resolved globals: a first load
    fills it through ``pickle``'s import-and-getattr, later loads of the same
    images add nothing, and it neither outlives the context nor rides
    along when the context is shipped to another process."""
    import pickle

    from repro.engine import fork

    config = CampaignConfig(
        app="pagerank", places=4, iterations=4, checkpoint_interval=2,
        schedules=1, placement="parity:2", replicas=1,
    )
    fp, result, images, name = _run_with_captures(config, [])
    context = images[0]._context
    shared = (fork.__name__, "_shared")
    assert list(context._resolved) == [shared]
    for image in images.values():
        image.load()
    resolved = dict(context._resolved)
    assert len(resolved) > 10 and resolved[shared] == context._frozen.__getitem__
    assert resolved["repro.resilience.executor", "IterativeExecutor"] is IterativeExecutor

    for image in images.values():
        image.load()
    assert context._resolved == resolved

    # Later loads are answered from the table alone: an entry swapped for a
    # marked subclass is what the next load builds its places from.
    from repro.runtime.place import Place

    class MarkedPlace(Place):
        __slots__ = ()

    context._resolved["repro.runtime.place", "Place"] = MarkedPlace
    assert type(images[0].load().runtime.world[0]) is MarkedPlace
    context._resolved.update(resolved)

    assert list(ForkContext()._resolved) == [shared]
    shipped = pickle.loads(pickle.dumps(images))
    arrived = shipped[0]._context
    assert list(arrived._resolved) == [shared]
    assert arrived._resolved[shared] == arrived._frozen.__getitem__
    _resume_and_check(shipped, fp, result, name)


def test_capture_boundaries_named_pauses_after_the_last():
    config = CampaignConfig(
        app="linreg", places=4, iterations=8, checkpoint_interval=3, schedules=1
    )
    result_of = APPS[config.app].result
    rt, app, _, executor = config.spec.build()
    straight = executor.run()
    fp, result = _fingerprint(executor, straight), np.asarray(result_of(app)).copy()

    rt, app, _, executor = config.spec.build()
    seen = []
    images = capture_boundaries(executor, [5, 2], observe=seen.append)
    assert sorted(images) == seen == [2, 5]
    assert app.iteration == 5  # paused: nothing past the last boundary ran
    _resume_and_check(images, fp, result, config.app)
    assert _fingerprint(executor, executor.run()) == fp  # the origin continues too


def test_capture_boundaries_unnamed_captures_all_and_skips_the_unreached():
    config = CampaignConfig(
        app="pagerank", places=4, iterations=5, checkpoint_interval=2, schedules=1
    )
    executor = config.spec.build()[3]
    assert sorted(capture_boundaries(executor)) == [0, 1, 2, 3, 4, 5]
    executor = config.spec.build()[3]
    assert sorted(capture_boundaries(executor, [3, 99])) == [3]


def _layout(app):
    """Where each distributed object of *app* ended up: per object its place
    group and, as it has them, its grid's row sizes with each place's row
    blocks as its task plan deals them, and its row partition — what a shrink and a shrink-rebalance restore
    leave differently even when the zero cost model times them alike."""
    layout = {"places": app.places.ids}
    for name, obj in vars(app).items():
        if isinstance(obj, MultiPlaceObject):
            entry = [obj.group.ids]
            if isinstance(obj, DistBlockMatrix):
                entry += [obj.grid.row_sizes, obj.task_plan().blocks]
            partition = getattr(obj, "partition", None)
            if partition is not None:
                entry.append(partition.sizes)
            layout[name] = entry
    return layout


def _final_layout(executor):
    with executor.runtime:
        try:
            executor.run()
            outcome = None
        except RuntimeFault as exc:  # an unrecoverable schedule ends here
            outcome = type(exc).__name__
        return outcome, _layout(executor.app)


@pytest.mark.parametrize("app", ["linreg", "pagerank"])
def test_a_spareless_fork_restores_in_its_drawn_mode(app):
    """Without spares a campaign draws shrink or shrink-rebalance, and at a
    zero cost model no report tells them apart: the fork of every such
    schedule must leave each object laid out as the schedule built from
    scratch does."""
    config = CampaignConfig(
        app=app, places=6, iterations=8, checkpoint_interval=2, schedules=1
    )
    prefix = PrefixCache(config).build()
    moved = {RestoreMode.SHRINK: 0, RestoreMode.SHRINK_REBALANCE: 0}
    for index in range(16):
        spec = schedule_spec(config, index)
        forked = prefix.fork(spec)
        if forked is None:
            continue
        layout = _final_layout(forked)
        assert layout == _final_layout(spec.build()[3]), f"schedule {index} ({spec.mode})"
        moved[spec.mode] += layout[1]["places"] != list(range(config.places))
    assert min(moved.values()) >= 2, moved
