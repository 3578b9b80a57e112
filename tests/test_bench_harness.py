"""Tests for the benchmark harness (small axes so they run quickly)."""

import argparse
import dataclasses

import numpy as np
import pytest

from repro import baseline
from repro.bench import calibration, figures
from repro.bench.catalogue import APPS, CHAOS_APP_NAMES
from repro.bench.harness import (
    _overhead_cell,
    _restore_cell,
    run_checkpoint_sweep,
    run_overhead_sweep,
    run_restore_sweep,
    table4_from_reports,
)
from repro.resilience.executor import IterativeExecutor, RestoreMode
from repro.runtime.factory import make_runtime

MODES = ("shrink-rebalance", "shrink", "replace-redundant")


def _restore_cell_from_scratch(
    app_name, iterations, checkpoint_interval, failure_iteration, mode_values,
    places, spares=None,
):
    """The reference the forked cell must equal: one fresh world per mode,
    the kill armed before ``run()``, and a fresh baseline run.  *spares*
    overrides the protocol's choice (one iff the mode replaces)."""
    entry = APPS[app_name]
    NonRes, Res, cost_factory = entry.nonresilient, entry.resilient, entry.bench_cost
    wl = entry.bench_workload(iterations)
    reports = {}
    for mode_value in mode_values:
        mode = RestoreMode(mode_value)
        mode_spares = spares
        if mode_spares is None:
            mode_spares = 1 if mode == RestoreMode.REPLACE_REDUNDANT else 0
        with make_runtime(
            places, cost=cost_factory(), resilient=True, spares=mode_spares
        ) as rt:
            app = Res(rt, wl)
            rt.injector.kill_at_iteration(places // 2, iteration=failure_iteration)
            reports[mode_value] = IterativeExecutor(
                rt, app, checkpoint_interval=checkpoint_interval, mode=mode
            ).run()
    with make_runtime(places, cost=cost_factory(), resilient=False) as rt:
        app = NonRes(rt, wl)
        t0 = rt.now()
        app.run()
        return {"reports": reports, "baseline": rt.now() - t0}


class TestCalibration:
    def test_places_axis_matches_paper(self):
        axis = calibration.places_axis()
        assert axis[0] == 2 and axis[-1] == 44
        assert axis == [2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44]

    def test_cluster_profile_valid(self):
        from repro.runtime.cost import validate_cost_model

        assert validate_cost_model(calibration.cluster_2015()) is None

    def test_scales_applied(self):
        assert calibration.regression_cost().logical_scale == calibration.REGRESSION_SCALE
        assert calibration.pagerank_cost().logical_scale == calibration.PAGERANK_SCALE

    def test_registry_covers_all_apps(self):
        assert set(APPS) == {"linreg", "logreg", "pagerank", "gnmf", "cg"}


class TestCatalogue:
    """One table of apps behind ``run``, ``sweep``, ``chaos`` and ``serve``."""

    @pytest.mark.parametrize("workload", ["bench_workload", "tiny_workload"])
    @pytest.mark.parametrize("name", sorted(APPS))
    def test_every_entry_builds_and_answers(self, name, workload):
        entry = APPS[name]
        for cls in (entry.nonresilient, entry.resilient):
            with make_runtime(2, cost=entry.bench_cost(), resilient=True) as rt:
                app = cls(rt, getattr(entry, workload)(2))
                assert app.places.size == 2
                assert isinstance(entry.result(app), np.ndarray)

    @pytest.mark.parametrize("name", sorted(APPS))
    def test_resilient_app_is_its_program_plus_checkpoint_and_restore(self, name):
        entry = APPS[name]
        assert issubclass(entry.resilient, entry.nonresilient)
        # What Python adds to a class's namespace (``__slotnames__`` once an
        # instance has been pickled, as fork images do).
        generated = {
            "__module__", "__doc__", "__qualname__", "__abstractmethods__",
            "_abc_impl", "__slotnames__",
        }
        expected = {"__init__", "step", "checkpoint", "restore"}
        if name == "cg":
            expected |= {"publish_redundant", "reconstruct", "_solve_lost_x"}
        assert set(vars(entry.resilient)) - generated == expected

    def test_every_verb_accepts_the_names_it_always_did(self):
        from repro.cli import _build_parser
        from repro.service import ServiceConfig

        verbs = next(
            action.choices
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )

        def choices(verb):
            return set(verbs[verb]._actions[1].choices)  # [0] is --help

        every = {"cg", "gnmf", "linreg", "logreg", "pagerank"}
        assert set(APPS) == choices("run") == every
        assert set(CHAOS_APP_NAMES) == choices("chaos") == every - {"gnmf"}
        assert choices("sweep") == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "table3", "table4", "gnmf", "overlap",
        }
        assert ServiceConfig(apps=tuple(sorted(every))).apps == tuple(sorted(every))
        with pytest.raises(ValueError, match="unknown app 'fft'"):
            ServiceConfig(apps=("linreg", "fft"))


class TestOverheadSweep:
    def test_produces_both_series(self):
        s = run_overhead_sweep("linreg", places_list=[2, 4], iterations=3)
        assert s.places == [2, 4]
        assert set(s.values) == {"non-resilient finish", "resilient finish"}
        assert all(len(v) == 2 for v in s.values.values())

    def test_resilient_costs_more(self):
        s = run_overhead_sweep("pagerank", places_list=[4], iterations=3)
        assert s.values["resilient finish"][0] >= s.values["non-resilient finish"][0]


class TestCheckpointSweep:
    def test_three_checkpoints_per_run(self):
        s = run_checkpoint_sweep("linreg", places_list=[3], iterations=30)
        assert s.values["checkpoints"] == [3.0]
        assert s.values["mean checkpoint (ms)"][0] > 0


class TestRestoreSweep:
    def test_all_modes_and_baseline(self):
        out = run_restore_sweep(
            "pagerank", places_list=[4], iterations=12, checkpoint_interval=5,
            failure_iteration=7,
        )
        series = out["series"]
        assert set(series.values) == {
            "shrink",
            "shrink-rebalance",
            "replace-redundant",
            "non-resilient (no failure)",
        }
        t4 = table4_from_reports(out["reports"], places=4)
        for mode, row in t4.items():
            assert 0 <= row["C%"] <= 100
            assert 0 <= row["R%"] <= 100

    def test_failure_actually_happened(self):
        out = run_restore_sweep(
            "linreg", places_list=[4], iterations=12, checkpoint_interval=5,
            failure_iteration=7,
        )
        for by_places in out["reports"].values():
            assert by_places[4].restores == 1


    def test_unreachable_failure_point_is_rejected(self):
        with pytest.raises(ValueError, match=r"iteration 15.*10 iterations"):
            run_restore_sweep(
                "linreg", places_list=[2], iterations=10, failure_iteration=15
            )
        for failure_iteration in (0, 12):
            with pytest.raises(ValueError):
                run_restore_sweep(
                    "linreg", places_list=[2], iterations=12,
                    failure_iteration=failure_iteration,
                )


class TestSharedPrefix:
    """A restore cell simulates the failure-free prefix once and forks the
    modes from it: same bytes as three from-scratch runs, fewer steps."""

    #: (iterations, checkpoint interval, failure iteration): mid-period, on
    #: a checkpoint boundary, the last iteration, right after the first
    #: checkpoint.
    PROTOCOLS = [(12, 5, 7), (12, 5, 5), (12, 4, 11), (12, 5, 1)]

    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: "-".join(map(str, p)))
    @pytest.mark.parametrize("places", [2, 5])
    @pytest.mark.parametrize("app_name", sorted(APPS))
    def test_forked_cell_equals_from_scratch(self, app_name, places, protocol):
        cell = _restore_cell(app_name, *protocol, places)
        reference = _restore_cell_from_scratch(app_name, *protocol, MODES, places)
        assert list(cell["reports"]) == list(reference["reports"])
        for mode, report in reference["reports"].items():
            assert report.restores == 1
            assert dataclasses.asdict(cell["reports"][mode]) == dataclasses.asdict(
                report
            ), mode
        assert cell["baseline"] == reference["baseline"]

    @pytest.mark.parametrize("places", [2, 8])
    @pytest.mark.parametrize("app_name", ["linreg", "pagerank"])
    def test_an_idle_spare_is_invisible_to_the_shrink_modes(self, app_name, places):
        """Why one reference world can serve all three modes."""
        shrinks = ("shrink", "shrink-rebalance")
        without, with_spare = (
            _restore_cell_from_scratch(
                app_name, 12, 5, 7, shrinks, places, spares=spares
            )["reports"]
            for spares in (0, 1)
        )
        for mode in shrinks:
            assert dataclasses.asdict(with_spare[mode]) == dataclasses.asdict(
                without[mode]
            )

    def test_step_budget(self, monkeypatch):
        """7 prefix steps once, then per mode the 2 rolled-back and the 5
        remaining: 28.  Three from-scratch runs complete 3 * (12 + 2) = 42."""
        from repro.apps.resilient import LinRegResilient

        attempted, completed = [], []
        step = LinRegResilient.step

        def counted(self):
            attempted.append(self.iteration)
            step(self)
            completed.append(self.iteration)

        monkeypatch.setattr(LinRegResilient, "step", counted)
        _restore_cell("linreg", 12, 5, 7, 4)
        assert len(completed) == 7 + 3 * (2 + 5)
        assert len(attempted) == len(completed) + 3  # one aborted by each kill


class TestBaselineMemo:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        baseline.clear()
        yield
        baseline.clear()

    def _key(self, places=3, iterations=12):
        entry = APPS["linreg"]
        return entry.nonresilient, entry.bench_workload(iterations), entry.bench_cost(), places

    def test_returns_what_a_fresh_run_returns(self):
        fresh = _restore_cell_from_scratch("linreg", 12, 5, 7, (), 3)["baseline"]
        assert baseline.failure_free_time(*self._key()) == fresh
        assert baseline.failure_free_time(*self._key()) == fresh  # the hit
        assert isinstance(fresh, float) and fresh > 0

    def test_overhead_and_restore_cells_share_one_run(self, monkeypatch):
        NonRes = APPS["linreg"].nonresilient
        built_on_resilient = []
        init = NonRes.__init__

        def counted(self, runtime, *args, **kwargs):
            built_on_resilient.append(runtime.resilient)
            init(self, runtime, *args, **kwargs)

        monkeypatch.setattr(NonRes, "__init__", counted)
        overhead = dict(_overhead_cell("linreg", 12, 3))
        cell = _restore_cell("linreg", 12, 5, 7, 3)
        # One non-resilient run serves both; the resilient-finish run of
        # the overhead protocol is nobody's duplicate and is not memoized.
        assert built_on_resilient == [False, True]
        assert cell["baseline"] / 12 * 1e3 == overhead["non-resilient finish"]
        assert list(baseline._time_memo) == [self._key()]

    def test_a_changed_cost_model_misses(self):
        NonRes, wl, cost, places = self._key()
        slower = dataclasses.replace(cost, latency=cost.latency * 2)
        assert baseline.failure_free_time(
            NonRes, wl, slower, places
        ) > baseline.failure_free_time(NonRes, wl, cost, places)
        assert len(baseline._time_memo) == 2

    def test_clear_empties_it(self):
        baseline.failure_free_time(*self._key())
        assert baseline._time_memo
        baseline.clear()
        assert not baseline._time_memo


class TestFigures:
    def test_series_table(self):
        table = figures.series_table([2, 4], {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        assert "places" in table
        assert len(table.splitlines()) == 3

    def test_ascii_chart(self):
        chart = figures.ascii_chart([2, 4], {"a": [1.0, 2.0]}, title="t")
        assert "t" in chart and "█" in chart

    def test_write_csv(self, tmp_path):
        path = figures.write_csv(
            str(tmp_path / "x.csv"), [2, 4], {"a": [1.0, 2.0]}
        )
        content = open(path).read().splitlines()
        assert content[0] == "places,a"
        assert content[1].startswith("2,")

    def test_comparison_line(self):
        line = figures.comparison_line("w", 100.0, 150.0)
        assert "1.50x" in line


class TestParallelHarness:
    """The --jobs process pool must never change a sweep's values."""

    def test_overhead_sweep_jobs_identical(self):
        serial = run_overhead_sweep("linreg", places_list=[2, 4, 8], iterations=3)
        pooled = run_overhead_sweep(
            "linreg", places_list=[2, 4, 8], iterations=3, jobs=2
        )
        assert pooled.places == serial.places
        assert pooled.values == serial.values

    def test_checkpoint_sweep_jobs_identical(self):
        serial = run_checkpoint_sweep("pagerank", places_list=[3, 4], iterations=10)
        pooled = run_checkpoint_sweep(
            "pagerank", places_list=[3, 4], iterations=10, jobs=2
        )
        assert pooled.values == serial.values

    def test_restore_sweep_jobs_identical(self):
        kw = dict(
            places_list=[4, 6], iterations=12, checkpoint_interval=5,
            failure_iteration=7,
        )
        serial = run_restore_sweep("linreg", **kw)
        pooled = run_restore_sweep("linreg", jobs=2, **kw)
        assert pooled["series"].values == serial["series"].values
        for mode, by_places in serial["reports"].items():
            for places, report in by_places.items():
                assert (
                    pooled["reports"][mode][places].total_time == report.total_time
                )

    def test_checkpoint_sweep_delta_is_cheaper_for_pagerank(self):
        # PageRank's mutable save (the rank vector) dirties every
        # checkpoint, but its read-only reuse already dominates; the delta
        # path must at minimum never be more expensive.
        full = run_checkpoint_sweep("pagerank", places_list=[4], iterations=30)
        delta = run_checkpoint_sweep(
            "pagerank", places_list=[4], iterations=30, delta=True
        )
        assert (
            delta.values["mean checkpoint (ms)"][0]
            <= full.values["mean checkpoint (ms)"][0] * 1.001
        )
