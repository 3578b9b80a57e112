"""Golden-timing regression tests for the paper's Fig. 2-4 protocols.

These pin the *exact* virtual-time numbers the simulator produced before
the discrete-event engine refactor (the seed), at a reduced scale that
keeps the suite fast: places [2, 8, 20], six iterations.  The engine
rewiring was required to be bit-exact — any drift here means the timing
semantics changed, not just an implementation detail.

If a deliberate cost-model change invalidates these numbers, regenerate
them with the printed repro snippet and say so in the commit.
"""

import pytest

from repro.bench.harness import run_overhead_sweep

PLACES = [2, 8, 20]
ITERATIONS = 6

#: app -> series label -> ms/iteration at PLACES (captured pre-refactor).
GOLDEN = {
    "linreg": {
        "non-resilient finish": [76.73699999999998, 96.69500000000035, 130.30499999999876],
        "resilient finish": [85.56499999999993, 128.48499999999743, 209.98000000000636],
    },
    "logreg": {
        "non-resilient finish": [117.05099999999975, 136.1249999999997, 171.2949999999952],
        "resilient finish": [124.60499999999941, 169.62499999999832, 255.32000000000914],
    },
    "pagerank": {
        "non-resilient finish": [39.297952000000045, 65.1486080000003, 132.63828799999956],
        "resilient finish": [42.818975999999985, 76.37833600000053, 155.49731199999695],
    },
}


@pytest.mark.parametrize("app", sorted(GOLDEN))
def test_overhead_sweep_matches_golden(app):
    series = run_overhead_sweep(app, places_list=PLACES, iterations=ITERATIONS)
    assert series.places == PLACES
    for label, golden in GOLDEN[app].items():
        measured = series.values[label]
        assert measured == pytest.approx(golden, rel=1e-12, abs=1e-9), (
            f"{app} / {label}: measured {measured!r} != "
            f"golden {golden!r}; regenerate with run_overhead_sweep"
            f"({app!r}, places_list={PLACES}, iterations={ITERATIONS})"
        )


@pytest.mark.parametrize("app", sorted(GOLDEN))
def test_resilient_overhead_is_positive_and_grows(app):
    """The paper's qualitative claim, derived from the same goldens."""
    nonres = GOLDEN[app]["non-resilient finish"]
    res = GOLDEN[app]["resilient finish"]
    overheads = [(r - n) / n for n, r in zip(nonres, res)]
    assert all(o > 0 for o in overheads)
    # Resilient-finish overhead widens with the place count (ledger is
    # serialized at place zero).
    assert overheads[-1] > overheads[0]
