"""Tests of the benchmark harness itself.

Not in tier-1 ``testpaths``; run with ``python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

run._bootstrap()

import trace  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All five workloads at the smoke sizing (10 schedules / 10 jobs /
    places [2]), one process each, both the counted and the traced pass."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    before = (ROOT / "BENCHMARK.json").read_bytes()
    done = _run("--workload", "all", "--smoke", "--seconds", "0", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert (ROOT / "BENCHMARK.json").read_bytes() == before
    return json.loads(out.read_text()), done.stdout


def test_smoke_runs_all_five_workloads_clean(smoke):
    data, stdout = smoke
    assert [r["workload"] for r in data["reports"]] == [
        w["name"] for w in BENCHMARK["workloads"]
    ]
    for report in data["reports"]:
        assert report["correct"] and report["failed"] == 0
        assert report["attempted"] >= report["ops_per_pass"] * 5
        assert report["trace_missing"] == []
    assert json.loads(stdout.splitlines()[-1])["correct"] is True


def test_smoke_output_is_flagged_and_refused_as_a_measurement(smoke, tmp_path):
    data, stdout = smoke
    assert data["smoke"] is True and all(r["smoke"] for r in data["reports"])
    assert "SMOKE" in stdout
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit, match="smoke"):
        compare.load([str(path)])


def test_traced_self_times_sum_to_the_traced_wall(smoke):
    for report in smoke[0]["reports"]:
        layers = report["per_layer"]
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        total += layers["trace.root_self_s"] + layers["trace.resample_s"]
        assert total == pytest.approx(report["traced_pass"]["raw_s"], rel=0.01)
        assert report["trace_closure_error"] < 0.01


def test_emitted_names_equal_benchmark_json(smoke):
    assert BENCHMARK == run.spec()
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    names = end_to_end + per_layer + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in end_to_end and len(per_layer) <= 128
    for report in smoke[0]["reports"]:
        for which, expected in (("end_to_end", end_to_end), ("per_layer", per_layer)):
            line = json.loads(run.result_line(report, [which]))
            assert sorted(line["metrics"]) == sorted(expected)
            units = {m["name"]: m["unit"] for m in BENCHMARK[which]}
            assert {k: v["unit"] for k, v in line["metrics"].items()} == units


def _resolve(target: str):
    module_name, _, path = target.rstrip("?").partition(":")
    holder = __import__(module_name, fromlist=["_"])
    owner, _, name = path.rpartition(".")
    if owner:
        holder = getattr(holder, owner)
    return vars(holder).get(name)


def test_patches_are_fully_removed_after_a_traced_pass():
    targets = [t for group in trace.TARGETS.values() for t in group]
    before = {t: _resolve(t) for t in targets}
    from_imports = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and module is not None
        for attr, value in vars(module).items()
        if callable(value)
    }
    workload = workloads.WORKLOADS["chaos_crash"]
    inputs = workload.inputs(7, True)
    reference = workload.judge(inputs, workload.run(inputs))
    tracer = trace.Tracer()
    with tracer:
        assert tracer.installed > 100 and tracer.missing == []
        assert _resolve("repro.chaos:run_schedule") is not before["repro.chaos:run_schedule"]
        traced = workload.judge(inputs, workload.run(inputs))
    assert traced.outcome == reference.outcome
    assert tracer.groups["chaos.schedule"][0] == 40
    assert tracer.installed == 0
    assert {t: _resolve(t) for t in targets} == before
    for (name, attr), value in from_imports.items():
        assert getattr(sys.modules[name], attr) is value, (name, attr)


def test_a_missing_target_is_reported_not_raised(monkeypatch):
    gone = "repro.engine.scheduler:Scheduler.renamed_away"
    monkeypatch.setitem(trace.TARGETS, "engine.serve", [gone])
    monkeypatch.setitem(trace.TARGETS, "chaos.baseline", ["repro.no_such_module:f"])
    tracer = trace.Tracer()
    with tracer:
        assert tracer.missing == [gone, "repro.no_such_module:f"]
    metrics = tracer.metrics(1.0)
    assert metrics["trace.missing_targets"] == 2
    assert metrics["engine.serve.calls"] == 0 and metrics["engine.serve.self_s"] == 0


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, [1.02, 1.03, 1.01, 1.02], "lower", 0.10) == "same"
    assert compare.verdict(steady, [1.20, 1.21, 1.19, 1.22], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [0.80, 0.81, 0.79, 0.82], "higher", 0.10) == "worse"
    noisy = [1.0, 1.3, 0.8, 1.2]
    assert compare.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    # Spread wider than the bound, yet every B run beats every A run.
    assert compare.verdict(noisy, [0.5, 0.7, 0.6, 0.75], "lower", 0.10) == "same"


def test_exits_nonzero_without_the_simulator_source(tmp_path):
    """The contract's bare directory: BENCHMARK.json + the benchmark's own
    files, no ``src/`` — must fail fast and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = _run(
        "--workload", "chaos_crash", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "perf" / "run.py",
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
