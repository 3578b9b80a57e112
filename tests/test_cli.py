"""Tests for the command-line interface."""

import pytest

from repro.cli import main

#: A run small enough to build in milliseconds.
SMALL = ["--places", "4", "--iterations", "4"]
PARITY_K2 = ["--placement", "parity", "--replicas", "2"]


class TestList:
    def test_lists_apps_and_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("linreg", "logreg", "pagerank", "gnmf", "fig2", "table4"):
            assert name in out


class TestRun:
    def test_nonresilient_run(self, capsys):
        assert main(["run", "pagerank", "--places", "3", "--iterations", "4",
                     "--non-resilient"]) == 0
        out = capsys.readouterr().out
        assert "iterations executed:  4" in out
        assert "checkpoints/restores: 0/0" in out

    def test_resilient_run_with_failure(self, capsys):
        assert main([
            "run", "linreg", "--places", "4", "--iterations", "8",
            "--ckpt-interval", "4", "--fail-at", "5", "--victim", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "failures observed:    1" in out
        assert "[0, 1, 3]" in out  # shrank

    def test_replace_redundant_with_spares(self, capsys):
        assert main([
            "run", "pagerank", "--places", "4", "--iterations", "6",
            "--ckpt-interval", "3", "--fail-at", "4", "--victim", "1",
            "--mode", "replace-redundant", "--spares", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "[0, 4, 2, 3]" in out  # spare took index 1

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nosuchapp"])


class TestSweep:
    def test_overhead_sweep(self, capsys):
        assert main(["sweep", "fig4", "--max-places", "4", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "non-resilient finish" in out
        assert "resilient finish" in out

    def test_restore_sweep(self, capsys):
        assert main(["sweep", "fig7", "--max-places", "4", "--iterations", "16"]) == 0
        out = capsys.readouterr().out
        assert "shrink-rebalance" in out
        # A restore really happened: the three modes recover differently.
        for row in out.splitlines()[1:]:
            assert len(set(row.split()[1:4])) == 3, row

    def test_table4(self, capsys):
        assert main(["sweep", "table4", "--max-places", "4", "--iterations", "16"]) == 0
        out = capsys.readouterr().out
        assert "C%" in out and "R%" in out
        restore_pcts = [float(line.split()[-1]) for line in out.splitlines()]
        assert len(restore_pcts) == 9 and all(pct > 0 for pct in restore_pcts)

    @pytest.mark.parametrize("experiment", ["fig5", "table4"])
    def test_unreachable_failure_is_a_usage_error(self, experiment, capsys):
        """--iterations below the protocol's kill used to print a table in
        which no failure ever fired (three equal columns, R% 0.0)."""
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", experiment, "--max-places", "4", "--iterations", "12"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "the restore protocol kills a place at iteration 15; "
            "--iterations must be at least 16" in captured.err
        )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "fig99"])


class TestTraceOut:
    def test_dumps_engine_event_log(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main([
            "run", "linreg", "--places", "3", "--iterations", "4",
            "--ckpt-interval", "2", "--trace-out", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "engine trace:" in out

        from repro.bench.timeline import load_engine_events

        events = load_engine_events(path)
        assert events
        kinds = {e.kind for e in events}
        assert "finish" in kinds
        assert "transfer" in kinds

    def test_trace_round_trips_into_profile(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main([
            "run", "pagerank", "--places", "3", "--iterations", "3",
            "--non-resilient", "--trace-out", path,
        ]) == 0
        capsys.readouterr()

        from repro.bench.timeline import load_engine_events, render_profile
        from repro.engine.timeline import iter_spans

        finishes = list(iter_spans(load_engine_events(path), "finish"))
        assert finishes
        assert "operation" in render_profile(finishes)


class TestCheckpointMode:
    def test_overlapped_run(self, capsys):
        assert main([
            "run", "linreg", "--places", "4", "--iterations", "6",
            "--ckpt-interval", "3", "--ckpt-mode", "overlapped",
        ]) == 0
        out = capsys.readouterr().out
        assert "iterations executed:  6" in out

    def test_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "linreg", "--ckpt-mode", "bogus"])

    def test_overlap_sweep(self, capsys):
        assert main(["sweep", "overlap", "--max-places", "4",
                     "--iterations", "4"]) == 0
        out = capsys.readouterr().out
        assert "blocking stall (ms)" in out
        assert "overlapped stall (ms)" in out


class TestReplication:
    def test_k2_spread_survives_adjacent_pair(self, capsys):
        # The seed configuration would abort here; k=2 spread recovers.
        assert main([
            "run", "linreg", "--places", "6", "--iterations", "8",
            "--ckpt-interval", "3", "--fail-at", "5", "--victim", "2",
            "--replicas", "2", "--placement", "spread",
        ]) == 0
        out = capsys.readouterr().out
        assert "checkpoints/restores" in out

    def test_stable_fallback_reports_disk_reads(self, capsys):
        assert main([
            "run", "linreg", "--places", "4", "--iterations", "8",
            "--ckpt-interval", "3", "--fail-at", "5", "--victim", "2",
            "--stable-fallback",
        ]) == 0
        # Single failure, k=1: memory tier suffices, so no disk lines
        # required — just a clean exit with the knob on.
        assert "checkpoints/restores: 3/1" in capsys.readouterr().out

    def test_unrecoverable_run_exits_nonzero(self, capsys):
        # Adjacent double kill with the seed's k=1 ring: data loss.
        assert main([
            "run", "linreg", "--places", "6", "--iterations", "8",
            "--ckpt-interval", "3", "--fail-at", "5", "--victim", "2",
            "--fail-at", "5", "--victim", "3",
        ]) == 1
        err = capsys.readouterr().err
        assert "unrecoverable" in err
        assert "--stable-fallback" in err  # the hint points at the ladder

    def test_loss_after_a_commit_hints_at_the_protection_flags(self, capsys):
        assert main([
            "run", "linreg", "--places", "6", "--iterations", "8",
            "--ckpt-interval", "3", "--fail-at", "5", "--victim", "2",
            "--fail-at", "5", "--victim", "3",
        ]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "hint: raise --replicas, use --placement spread, or add --stable-fallback"
        )

    @pytest.mark.parametrize("app, tail", [
        ("linreg", ""),
        ("cg", "; --recovery reconstruct with --spares recovers without one"),
    ])
    def test_loss_before_the_first_commit_hints_that_no_protection_helps(
        self, capsys, app, tail
    ):
        # No checkpoint has committed: the strongest protection loses too,
        # and only an app that reconstructs is pointed anywhere.
        assert main([
            "run", app, "--places", "4", "--iterations", "6", "--fail-at", "0",
            "--replicas", "3", "--placement", "spread", "--stable-fallback",
        ]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "hint: no protection flag helps a failure before the first checkpoint commits"
            + tail
        )

    @pytest.mark.parametrize("mode", ["shrink", "replace-redundant"])
    def test_a_failure_at_iteration_zero_is_survived_by_reconstruction(self, capsys, mode):
        assert main([
            "run", "cg", "--places", "4", "--iterations", "6", "--fail-at", "0",
            "--recovery", "reconstruct", "--spares", "1", "--mode", mode,
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "iterations executed:  6" in out
        assert "reconstructions:      1 (1 partitions, 0 aborted, 0 fell back to rollback)" in out

    def test_reconstruct_without_replicas_rolls_back_like_one_replica(self, capsys):
        # No spare to reconstruct onto: CG falls back to its rollback
        # checkpoint, which keeps the default backup of x even though the
        # redundant-state store publishes x primary-only.
        argv = ["run", "cg", "--recovery", "reconstruct", "--places", "4",
                "--iterations", "12", "--fail-at", "5"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--replicas", "1"]) == 0
        assert capsys.readouterr().out == default
        assert "1 fell back to rollback" in default

    def test_mttf_schedules_random_failures(self, capsys):
        assert main([
            "run", "linreg", "--places", "6", "--iterations", "8",
            "--ckpt-interval", "3", "--mttf", "1e9", "--chaos-seed", "7",
        ]) == 0
        # Astronomically large MTTF: kills scheduled but never due.
        assert "iterations executed:  8" in capsys.readouterr().out

    def test_bad_placement_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "linreg", "--placement", "mirror"])


class TestChaosCommand:
    def test_small_campaign_exits_clean(self, capsys):
        assert main([
            "chaos", "linreg", "--schedules", "5", "--chaos-seed", "3",
            "--replicas", "2", "--placement", "spread",
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos campaign" in out
        assert "schedules=5" in out
        assert "all recovery invariants held" in out

    def test_stable_fallback_campaign(self, capsys):
        assert main([
            "chaos", "pagerank", "--schedules", "5", "--chaos-seed", "4",
            "--replicas", "1", "--placement", "ring", "--stable-fallback",
        ]) == 0
        assert "stable_fallback=True" in capsys.readouterr().out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "nosuchapp"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["chaos", "linreg", "--recovery", "reconstruct", "--schedules", "2"],
                "needs a ReconstructableIterativeApp",
            ),
            (
                ["chaos", "cg", "--recovery", "reconstruct", "--placement", "parity",
                 "--spares", "2", "--schedules", "2"],
                "parity placement applies to snapshot stores only",
            ),
            (["run", "linreg", *SMALL, "--recovery", "reconstruct"],
             "needs a ReconstructableIterativeApp"),
            (["run", "cg", *SMALL, "--recovery", "reconstruct", "--placement", "parity"],
             "parity placement applies to snapshot stores only"),
            (["run", "linreg", *SMALL, "--ckpt-interval", "0"],
             "checkpoint_interval must be positive"),
            (["chaos", "linreg", "--ckpt-interval", "0"],
             "checkpoint_interval must be positive"),
            (["serve", "--ckpt-interval", "0"], "checkpoint_interval must be positive"),
            (["run", "linreg", *SMALL, "--fail-at", "3", "--victim", "0"],
             "cannot script a kill of place 0"),
            # Used to arm a kill nothing could fire and report 0 failures.
            (["run", "linreg", *SMALL, "--fail-at", "3", "--victim", "9"],
             "--victim 9 names no place of this world"),
            (["serve", "--places", "3", "--max-job-places", "6"],
             "max_places cannot exceed the worker count"),
            # The parity x replicas rule: one wording on every verb.
            (["run", "linreg", *SMALL, *PARITY_K2], "replicas must be <= 1, got 2"),
            (["chaos", "linreg", *PARITY_K2], "replicas must be <= 1, got 2"),
            (["serve", *PARITY_K2], "replicas must be <= 1, got 2"),
            # Used to die with `DeadPlaceException: place 99 is dead`.
            (["run", "linreg", *SMALL, "--straggler", "99:2"],
             "--straggler 99 names no place of this world"),
            # Used to raise `ValueError: low >= high` out of a pool worker.
            (["chaos", "linreg", "--iterations", "1"], "iterations must be >= 2"),
            # Used to run failure-free and print `failures observed: 0`.
            (["run", "linreg", *SMALL, "--non-resilient", "--fail-at", "3", "--victim", "2"],
             "--fail-at, --victim: not read by a --non-resilient run"),
            *(
                (["run", "linreg", *SMALL, "--non-resilient", *flag], f"{flag[0]}: not read")
                for flag in (
                    ["--mttf", "20"], ["--spares", "1"], ["--replicas", "2"],
                    ["--placement", "spread"], ["--stable-fallback"],
                    ["--ckpt-interval", "3"], ["--ckpt-mode", "overlapped"],
                    ["--ckpt-delta"], ["--mode", "replace-redundant"],
                    ["--recovery", "reconstruct"], ["--detect-timeout", "1"],
                    ["--heartbeat-interval", "0.1"], ["--drop-rate", "0.1"],
                    ["--dup-rate", "0.1"], ["--delay-rate", "0.1"],
                    ["--delay-seconds", "0.1"], ["--straggler", "2:4"],
                    ["--corrupt", "0.1"], ["--chaos-seed", "3"],
                )
            ),
            (["run", "linreg", *SMALL, "--heartbeat-interval", "0.1"],
             "--heartbeat-interval: not read without --detect-timeout"),
            # Each of these used to exit 1 with a traceback ...
            *(
                ([*verb, "--replicas", "-1"], "replicas must be >= 0, got -1")
                for verb in (["run", "linreg", *SMALL], ["chaos", "linreg"], ["serve"])
            ),
            (["chaos", "linreg", "--spares", "-1"], "spares must be >= 0, got -1"),
            (["chaos", "linreg", "--drop-rate", "2"], "drop_rate must be in [0, 1)"),
            (["chaos", "linreg", "--corrupt", "2"], "corruption rate must be in [0, 1)"),
            (["serve", "--crash-rate", "5"], "crash_rate must be in [0, 1]"),
            (["serve", "--drop-rate", "2"], "drop_rate must be in [0, 1)"),
            (["serve", "--max-job-places", "1"], "max_places must be >= min_places"),
            (["sweep", "fig2", "--iterations", "0"], "iterations must be positive, got 0"),
            # ... and each of these ran, ignoring the offending value.
            (["chaos", "linreg", "--schedules", "0"], "schedules must be positive, got 0"),
            (["chaos", "linreg", "--schedules", "-2"], "schedules must be positive, got -2"),
            (["chaos", "linreg", "--places", "1"], "places must be >= 2"),
            *(
                ([*verb, "--detect-timeout", "-1"], "detect_timeout must be >= 0, got -1.0")
                for verb in (["run", "linreg", *SMALL], ["chaos", "linreg"], ["serve"])
            ),
            (["chaos", "linreg", "--straggler-max", "0.5"], "straggler_max must be >= 1"),
            (["run", "linreg", *SMALL, "--victim", "2"], "--victim: not read without --fail-at"),
            (["run", "linreg", *SMALL, "--fail-at", "3", "--victim", "1", "--victim", "2"],
             "--victim given 2 times for 1 --fail-at"),
            (["run", "linreg", "--places", "4", "--iterations", "6", "--fail-at", "6"],
             "--fail-at 6 never fires"),
            (["serve", "--streams", "0"], "streams must be positive, got 0"),
        ],
    )
    def test_unservable_recovery_is_a_usage_error(self, argv, message, capsys):
        """A configuration no world can be built from is one ``error:`` line
        and exit 2 on every verb — these used to be tracebacks from inside
        the first schedule, job or executor (or, for the unknown victim, a
        run that silently killed nobody)."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_a_kill_before_the_last_iteration_fires_at_the_middle_place(self, capsys):
        assert main(["run", "linreg", "--places", "4", "--iterations", "6", "--fail-at", "5"]) == 0
        out = capsys.readouterr().out
        assert "failures observed:    1" in out and "kills never fired" not in out
        assert "final place group:    [0, 1, 3]" in out

    def test_an_idle_spare_is_a_valid_victim(self, capsys):
        assert main([
            "run", "linreg", *SMALL, "--spares", "1", "--fail-at", "3", "--victim", "4",
        ]) == 0
        assert "kills never fired" not in capsys.readouterr().out


class TestDeltaAndJobs:
    def test_run_with_ckpt_delta(self, capsys):
        assert main([
            "run", "pagerank", "--places", "3", "--iterations", "8",
            "--ckpt-interval", "3", "--ckpt-delta",
        ]) == 0
        out = capsys.readouterr().out
        assert "virtual total" in out

    def test_chaos_delta_with_jobs(self, capsys):
        assert main([
            "chaos", "linreg", "--schedules", "6", "--ckpt-delta",
            "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "ckpt_delta=True" in out
        assert "all recovery invariants held" in out

    def test_sweep_with_jobs(self, capsys):
        assert main([
            "sweep", "fig2", "--max-places", "4", "--iterations", "2",
            "--jobs", "2",
        ]) == 0
        assert "ms/iteration" in capsys.readouterr().out
