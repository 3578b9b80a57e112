"""Tests for the benchmark harness (small axes so they run quickly)."""


from repro.bench import calibration, figures
from repro.bench.harness import (
    APP_REGISTRY,
    run_checkpoint_sweep,
    run_overhead_sweep,
    run_restore_sweep,
    table4_from_reports,
)


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
        assert set(APP_REGISTRY) == {"linreg", "logreg", "pagerank", "gnmf", "cg"}


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


class TestWorldLifetime:
    def test_a_finished_cell_leaves_no_payload_to_the_cycle_collector(self):
        """Every world a sweep cell creates is closed, and no frame keeps a
        raised exception, so with the collector *off* a cell (kill, restore
        and all) frees its payloads by refcount: a SAVEALL collection
        afterwards finds the small Runtime cycles but no payload object."""
        import gc

        from repro.bench.harness import _restore_cell

        modes = ("shrink", "shrink-rebalance", "replace-redundant")
        _restore_cell("pagerank", 6, 2, 3, modes, 4)  # warm memos and caches
        gc.collect()
        gc.disable()
        try:
            _restore_cell("pagerank", 6, 2, 3, modes, 4)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [
                type(obj).__name__
                for obj in gc.garbage
                if type(obj).__name__
                in ("ndarray", "Vector", "DenseMatrix", "SparseCSR", "BlockSet")
                or type(obj).__module__.startswith("scipy")
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []
