#!/usr/bin/env python3
"""Scale — whole-process host cost of one failure-and-restore run at 44 to
1024 places (ROADMAP item 6).

    python3 benchmarks/bench_scale.py [--parent TREE] [--out BENCH_scale.json]
    python3 benchmarks/bench_scale.py --smoke

Every cell is one subprocess running the CLI line

    repro run <app> --places P --iterations 12 --ckpt-interval 5 \\
        --fail-at 7 --victim 3

and records the child's host wall-clock, its own peak RSS (``ru_maxrss`` of
that child, from ``os.wait4``) and the virtual total the run prints.  With
``--parent`` (a checkout of the parent commit) each cell runs on both trees,
the parent first.  A child runs under an address-space limit (``--limit-gib``),
so a cell that would otherwise grow until the kernel kills it dies early with
``MemoryError`` and is recorded as ``oom`` — the machine is shared.

``--smoke`` is the CI gate (job ``scale-smoke``): pagerank at 256 and linreg
at 1024 places on this tree only; exit 1 unless both finish under 2 GiB.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUN_ARGS = ("--iterations", "12", "--ckpt-interval", "5", "--fail-at", "7", "--victim", "3")
CELLS: Tuple[Tuple[str, int], ...] = (
    ("linreg", 44), ("linreg", 256), ("linreg", 1024),
    ("pagerank", 44), ("pagerank", 128), ("pagerank", 256), ("pagerank", 1024),
)
SMOKE_CELLS: Tuple[Tuple[str, int], ...] = (("pagerank", 256), ("linreg", 1024))
SMOKE_RSS_MB = 2048.0
_VIRTUAL_TOTAL = re.compile(r"^virtual total:\s+([0-9.eE+-]+) s", re.MULTILINE)


def run_cell(tree: Path, app: str, places: int, limit_gib: float) -> Dict[str, object]:
    """One ``repro run`` of *tree*'s source, in a child of its own."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    limit = int(limit_gib * (1 << 30))
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", app, "--places", str(places), *RUN_ARGS],
            env=env,
            stdout=out,
            stderr=err,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        # wait4 hands back this child's own accounting; RUSAGE_CHILDREN would
        # report the largest child so far.
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        # Reaped here, behind Popen's back: tell it, or it warns at collection.
        child.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        total = _VIRTUAL_TOTAL.search(out.read())
        errors = err.read()
    if code == 0 and total:
        return {
            "status": "ok",
            "wall_s": round(wall, 2),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
            "virtual_total_s": float(total.group(1)),
        }
    oom = "MemoryError" in errors or "Unable to allocate" in errors or code == -9
    return {
        "status": "oom" if oom else "failed",
        "wall_s": round(wall, 2),
        "limit_gib": limit_gib,
        "detail": (errors.strip().splitlines() or [f"exit {code}"])[-1][:200],
    }


def _show(side: str, app: str, places: int, cell: Dict[str, object]) -> None:
    if cell["status"] == "ok":
        body = (
            f"{cell['wall_s']:7.2f} s  {cell['peak_rss_mb']:8.1f} MiB  "
            f"virtual {cell['virtual_total_s']:.4f} s"
        )
    else:
        body = f"{cell['status']} after {cell['wall_s']} s ({cell['detail']})"
    print(f"{side:>6}  {app:>8} @ {places:<4}  {body}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    parser.add_argument("--limit-gib", type=float, default=6.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if args.smoke:
        bad = 0
        for app, places in SMOKE_CELLS:
            cell = run_cell(ROOT, app, places, args.limit_gib)
            _show("change", app, places, cell)
            if cell["status"] != "ok" or cell["peak_rss_mb"] >= SMOKE_RSS_MB:
                print(f"::error::{app} at {places} places: not ok under {SMOKE_RSS_MB:.0f} MiB")
                bad = 1
        return bad

    sides = ([("parent", args.parent.resolve())] if args.parent else []) + [("change", ROOT)]
    rows = []
    for app, places in CELLS:
        row: Dict[str, object] = {"app": app, "places": places}
        for side, tree in sides:
            row[side] = run_cell(tree, app, places, args.limit_gib)
            _show(side, app, places, row[side])
        rows.append(row)
    report = {
        "command": "repro run <app> --places P " + " ".join(RUN_ARGS),
        "measures": "one child process per cell: host wall_s, that child's ru_maxrss, "
        "the virtual total it prints; 'oom' = died at the address-space limit",
        "limit_gib": args.limit_gib,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "cells": rows,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
