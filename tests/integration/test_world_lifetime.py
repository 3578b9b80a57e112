"""A closed world has no reference cycle: it dies by refcount.

Each case runs once to warm memos and caches, then again with the cycle
collector off; a ``DEBUG_SAVEALL`` collection afterwards must find nothing.
Anything it finds is a cycle some closed world (or a handled failure's
traceback) left behind, which only a generation-2 pass would reclaim.
"""

from __future__ import annotations

import gc

import pytest

from repro import chaos, service
from repro.bench.harness import _restore_cell


def cyclic_garbage(run) -> list:
    """The objects a collection finds after *run* ran with the collector off."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [type(obj).__qualname__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


#: The seven campaign configurations of the benchmark's chaos workloads.
CAMPAIGNS = {
    "linreg": dict(app="linreg"),
    "parity": dict(app="pagerank", placement="parity:2", replicas=1, spares=2),
    "reconstruct": dict(app="cg", recovery="reconstruct", spares=1),
    "delta-stable": dict(app="pagerank", ckpt_delta=True, stable_fallback=True),
    "drops-dups": dict(app="linreg", drop_rate=0.05, dup_rate=0.02),
    "detector-partitions": dict(app="linreg", detect_timeout=0.5, partition_rate=0.3),
    "corruption-stragglers": dict(
        app="pagerank", corrupt_rate=0.05, straggler_max=4.0, detect_timeout=0.5
    ),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_leaves_no_cyclic_garbage(name):
    config = chaos.CampaignConfig(schedules=10, seed=1234, **CAMPAIGNS[name])
    assert cyclic_garbage(lambda: chaos.run_campaign(config)) == []


def test_service_stream_leaves_no_cyclic_garbage():
    config = service.ServiceConfig(
        n_jobs=10, seed=1234, arrival_rate=2.0, places=17, reserve=4,
        economics="pooled", crash_rate=0.4, pair_rate=0.03, repair_mttr=5.0,
        apps=("linreg", "logreg", "pagerank", "gnmf", "cg"),
    )
    assert cyclic_garbage(lambda: service.run_service(config)) == []


def test_restore_cell_leaves_no_cyclic_garbage():
    """A sweep cell: one reference world, an image at the kill and one
    resumed fork per restore mode, every world closed as it finishes."""
    assert cyclic_garbage(lambda: _restore_cell("pagerank", 6, 2, 3, 4)) == []
