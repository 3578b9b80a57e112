"""The shape predicates of the pinned artefacts are live.

``benchmarks/artefacts.py`` holds each committed table or figure with the
shape claims its result must satisfy.  A predicate that could never go red
would pin nothing, so a planted cost-model change must turn the claim it
breaks red and leave an unrelated claim green: with free place-zero
bookkeeping (``ledger_event_time=0``) the resilient runtime costs what the
non-resilient one does, so Fig. 2's resilient overhead vanishes, while the
non-resilient growth with places does not depend on the ledger at all.
"""

from __future__ import annotations

import dataclasses
import importlib
from pathlib import Path

from repro.bench.catalogue import APPS
from repro.bench.harness import run_overhead_sweep

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _reduced_fig2():
    return run_overhead_sweep("linreg", [2, 44], iterations=3)


def test_free_place_zero_bookkeeping_turns_fig2_overhead_red(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    predicates = importlib.import_module("artefacts").REGISTRY["overhead_linreg"].predicates
    calibrated = _reduced_fig2()
    assert predicates["resilient_overhead"](calibrated)
    assert predicates["nonresilient_grows"](calibrated)

    linreg = APPS["linreg"]
    free_ledger = linreg.bench_cost().with_rates(ledger_event_time=0.0)
    monkeypatch.setitem(APPS, "linreg", dataclasses.replace(linreg, bench_cost=lambda: free_ledger))
    planted = _reduced_fig2()
    assert not predicates["resilient_overhead"](planted)
    assert predicates["nonresilient_grows"](planted)
