#!/usr/bin/env python3
"""The repo benchmark: five workloads, calibrated wall-clock, exact call
counts, and an outside-in per-layer trace.  See README.md beside this file.

    python3 benchmarks/perf/run.py [--workload NAME|all] [--seed S]
        [--seconds N] [--trace 0|1] [--out FILE] [--smoke]

One process measures one workload (``all`` starts one child per workload):

1. import ``repro``, generate the inputs, run one *cold* full-size pass
   -> ``setup_s``;
2. *warm* passes, untraced, ``gc.collect()`` between them, for ``--seconds``
   (never fewer than two) -> ``wall_s`` (their median), then ``peak_rss_mb``;
3. one *counted* pass under ``cProfile`` -> ``py_calls_m``      (``--trace 0``)
4. one *traced* pass under the span wrappers -> every per-layer metric
                                                                (``--trace 1``)

Without ``--trace`` both 3 and 4 run.  A fixed calibration loop runs before
and after every timed pass and scales it to reference-machine seconds.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero only on a harness
error; a failed operation is reported, not hidden.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

RUN_SECONDS = 6
MIN_WARM_PASSES = 2
MAX_WARM_PASSES = 6

#: name -> (unit, better, bound).  ``*_s`` values are seconds on the reference
#: machine (see calibrate.py).  A bound is the share of the parent's median by
#: which the metric may worsen; each is about three times the widest spread
#: (quartile distance over median) seen over ten seeds on any workload —
#: README.md, "First numbers" — because the gate runs every seed once.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "py_calls_m": ("Mcalls", "lower", 0.20),
    "peak_rss_mb": ("MiB", "lower", 0.15),
}

#: Simulated-time numbers a workload's verdict carries (0 where not its own).
VERDICT_LAYER_METRICS = (
    "service.virt.makespan_s",
    "service.virt.latency_p95_s",
    "service.virt.jobs_per_s",
    "service.rejected",
    "bench.virt.total_s",
    "bench.paper_err_pct",
)

#: Per-layer metrics the harness adds to the tracer's own.
HARNESS_LAYER_METRICS = (
    "resilience.survived_frac",
    *VERDICT_LAYER_METRICS,
    "trace.overhead_frac",
    "host.raw_wall_s",
    "host.calib_s",
    "host.wall_iqr_frac",
)

_UNIT_BY_SUFFIX = (
    (".calls", "count"),
    ("_ms", "ms"),
    ("_mb", "MiB"),
    ("_frac", "share"),
    ("_pct", "%"),
    (".flops", "flop"),
    (".vs_raw", "ratio"),
    ("jobs_per_s", "1/s"),
    ("_s", "s"),
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name; plain counts otherwise."""
    for suffix, unit in _UNIT_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def _bootstrap() -> float:
    """Pin BLAS/OMP threads, put ``src/`` on the path and import the
    simulator; returns the import wall-clock (part of ``setup_s``)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no simulator source under {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (imports numpy, scipy and repro)

    return time.perf_counter() - t0


def layer_metric_names() -> List[str]:
    """Every per-layer metric name, in report order (needs ``_bootstrap``)."""
    import trace

    return list(trace.Tracer().metrics(1.0)) + list(HARNESS_LAYER_METRICS)


def spec() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json`` (``--spec`` prints it)."""
    import workloads

    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {
                "name": name,
                "unit": unit_of(name),
                "better": "higher"
                if name in ("resilience.survived_frac", "chaos.prefix.hit_frac")
                or name.endswith("jobs_per_s")
                else "lower",
            }
            for name in layer_metric_names()
        ],
    }


# -- correctness --------------------------------------------------------------


def _close(a: Any, b: Any, rel: float = 1e-12) -> bool:
    """Structural equality with a relative tolerance on floats (the
    ``test_golden_timing`` tolerance)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= rel * max(abs(a), abs(b))
    return a == b


def _expected_summary(workload: str) -> Optional[Any]:
    path = HERE / "expected.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload)


# -- the protocol -------------------------------------------------------------


def measure(
    name: str,
    seed: int,
    seconds: float,
    smoke: bool,
    counted: bool,
    traced: bool,
    import_s: float,
) -> Dict[str, Any]:
    """Run the whole protocol for one workload in this process."""
    import numpy
    import scipy

    import trace
    import workloads
    from calibrate import CAL_REF_S, calibration_pass
    from compare import iqr_frac
    from repro.matrix import sparse_backend

    workload = workloads.WORKLOADS[name]
    calibrations: List[float] = []

    def calibrate() -> float:
        calibrations.append(calibration_pass())
        return calibrations[-1]

    def timed(run):
        """One pass between two calibrations: its result, and its wall-clock
        raw and scaled to reference seconds."""
        before = calibrations[-1]
        t0 = time.perf_counter()
        result = run()
        raw = time.perf_counter() - t0
        after = calibrate()
        scale = CAL_REF_S / ((before + after) / 2.0)
        return result, {"raw_s": raw, "ref_s": raw * scale, "scale": scale}

    # 1. cold: input generation + first full-size pass, import included.
    calibrate()
    inputs = None

    def cold_pass():
        nonlocal inputs
        inputs = workload.inputs(seed, smoke)
        return workload.run(inputs)

    result, cold = timed(cold_pass)
    first = workload.judge(inputs, result)
    setup_s = (import_s + cold["raw_s"]) * cold["scale"]

    pinned = seed == workloads.DEFAULT_SEED and not smoke
    expected = _expected_summary(name) if pinned else None
    expected_ok = expected is None or _close(first.summary, expected)
    attempted = failed = 0

    def gate(verdict) -> None:
        """Count a pass's operations; a pass whose outcome differs from the
        cold pass's (or from expected.json) fails all of them."""
        nonlocal attempted, failed
        attempted += verdict.attempted
        same = verdict is first or verdict.outcome == first.outcome
        failed += verdict.failed if same and expected_ok else verdict.attempted

    gate(first)

    # 2. warm passes for `seconds`.
    warm: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(warm) < MIN_WARM_PASSES or (
        time.perf_counter() < deadline and len(warm) < MAX_WARM_PASSES
    ):
        gc.collect()
        result, one = timed(lambda: workload.run(inputs))
        gate(workload.judge(inputs, result))
        warm.append(one)
    wall_s = statistics.median(p["ref_s"] for p in warm)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "ops_per_pass": first.attempted,
        "warm_passes": len(warm),
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "per_layer": {},
        "wall_quartiles_s": statistics.quantiles(
            [p["ref_s"] for p in warm], n=4
        ),
        "cold_pass": cold,
        "warm": warm,
    }

    # 3. counted: host work as an exact count of Python-level calls.
    if counted:
        gc.collect()
        profile = cProfile.Profile(builtins=False)
        result = profile.runcall(workload.run, inputs)
        gate(workload.judge(inputs, result))
        report["end_to_end"]["py_calls_m"] = pstats.Stats(profile).total_calls / 1e6

    # 4. traced: every per-layer number.
    if traced:
        gc.collect()
        calibrate()
        tracer = trace.Tracer()
        with tracer:
            result, one = timed(lambda: workload.run(inputs))
        verdict = workload.judge(inputs, result)
        gate(verdict)
        report["traced_pass"] = one
        layers = tracer.metrics(one["raw_s"])
        report["trace_closure_error"] = tracer.closure_error(one["raw_s"])
        report["trace_missing"] = tracer.missing
        layers["resilience.survived_frac"] = verdict.survived_frac
        for key in VERDICT_LAYER_METRICS:
            layers[key] = verdict.virt.get(key, 0.0)
        layers["trace.overhead_frac"] = one["ref_s"] / wall_s - 1.0
        layers["host.raw_wall_s"] = statistics.median(p["raw_s"] for p in warm)
        layers["host.calib_s"] = statistics.fmean(calibrations)
        layers["host.wall_iqr_frac"] = iqr_frac([p["ref_s"] for p in warm])
        report["per_layer"] = layers

    report["calibrations_s"] = calibrations
    report["attempted"] = attempted
    report["failed"] = failed
    report["correct"] = failed == 0
    report["failed_frac"] = failed / attempted
    report["survived_frac"] = first.survived_frac
    report["environment"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sparse_backend": sparse_backend.active_backend(),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cal_ref_s": CAL_REF_S,
        "commit": _commit(),
    }
    return report


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


# -- output -------------------------------------------------------------------


def result_line(report: Dict[str, Any], which: List[str]) -> str:
    """The contract's last line: the chosen metric families of one report."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if "end_to_end" in which:
        for key, value in report["end_to_end"].items():
            metrics[key] = {"value": value, "unit": END_TO_END[key][0]}
    if "per_layer" in which:
        for key, value in report["per_layer"].items():
            metrics[key] = {"value": value, "unit": unit_of(key)}
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def print_report(report: Dict[str, Any]) -> None:
    flag = "  [SMOKE sizing: not a measurement]" if report["smoke"] else ""
    print(
        f"== {report['workload']}  seed {report['seed']}  "
        f"{report['ops_per_pass']} ops/pass  {report['warm_passes']} warm passes{flag}"
    )
    q1, q2, q3 = report["wall_quartiles_s"]
    print(f"  wall_s quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s (n={report['warm_passes']})")
    for key, value in report["end_to_end"].items():
        print(f"  {key:34s} {value:14.6g} {END_TO_END[key][0]}")
    print(f"  {'failed_frac':34s} {report['failed_frac']:14.6g} share")
    print(f"  {'survived_frac':34s} {report['survived_frac']:14.6g} share")
    for key, value in report["per_layer"].items():
        print(f"  {key:34s} {value:14.6g} {unit_of(key)}")
    for target in report.get("trace_missing", []):
        print(f"  MISSING trace target: {target}")


def _run_children(args, names: List[str]) -> List[Dict[str, Any]]:
    """One fresh process per workload, so each pays its own cold set-up."""
    reports = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--out", str(out),
            ]
            if args.trace is not None:
                command += ["--trace", str(args.trace)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                raise SystemExit(f"run.py: workload {name} exited {done.returncode}")
            reports.append(json.loads(out.read_text())["reports"][0])
    return reports


def write_expected() -> None:
    import workloads

    expected = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.inputs(workloads.DEFAULT_SEED, False)
        verdict = workload.judge(inputs, workload.run(inputs))
        if verdict.failed:
            raise SystemExit(f"run.py: {name} fails {verdict.failed} operations")
        expected[name] = verdict.summary
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the warm passes measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--out", help="write the full report(s) as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizing for tests; output is flagged")
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--spec", action="store_true",
                        help="print the content of BENCHMARK.json")
    args = parser.parse_args(argv)

    import_s = _bootstrap()
    import workloads

    if args.spec:
        print(json.dumps(spec(), indent=1))
        return 0
    if args.write_expected:
        write_expected()
        return 0

    if args.workload == "all":
        reports = _run_children(args, list(workloads.WORKLOADS))
    elif args.workload in workloads.WORKLOADS:
        reports = [
            measure(
                args.workload, args.seed, args.seconds, args.smoke,
                counted=args.trace != 1, traced=args.trace != 0,
                import_s=import_s,
            )
        ]
    else:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)} or all"
        )
    for report in reports:
        print_report(report)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"smoke": args.smoke, "reports": reports}, indent=1) + "\n"
        )
    which = {None: ["end_to_end", "per_layer"], 0: ["end_to_end"], 1: ["per_layer"]}
    if len(reports) == 1:
        print(result_line(reports[0], which[args.trace]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": {},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
