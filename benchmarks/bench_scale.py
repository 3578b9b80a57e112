#!/usr/bin/env python3
"""Scale — whole-process host cost of one failure-and-restore run at 44 to
1024 places (ROADMAP item 6).

    python3 benchmarks/bench_scale.py [--parent TREE] [--out BENCH_scale.json]
    python3 benchmarks/bench_scale.py --smoke

Every cell is one subprocess running the CLI line

    repro run <app> --places P --iterations 12 --ckpt-interval 5 \\
        --fail-at 7 --victim 3 [--mode M]

(the restore mode only where a cell names one) and records the child's
host wall-clock, its own peak RSS (``ru_maxrss`` of that child, from
``os.wait4``) and the virtual total the run prints.  With
``--parent`` (a checkout of the parent commit) each cell runs on both trees,
the parent first.  A child runs under an address-space limit (``--limit-gib``),
so a cell that would otherwise grow until the kernel kills it dies early with
``MemoryError`` and is recorded as ``oom`` — the machine is shared.

``--smoke`` is the CI gate (job ``scale-smoke``): pagerank at 256 and 1024
and linreg at 1024 places on this tree only; exit 1 unless each finishes
under 1.5 GiB, peaks at no more than 1.1x the RSS committed for its cell in
``BENCH_scale.json`` (``change.peak_rss_mb``) and prints the virtual total
committed there (``change.virtual_total_s``): a host-side change can neither
grow a 1024-place run's memory nor move a simulated number unnoticed.
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
from typing import Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUN_ARGS = ("--iterations", "12", "--ckpt-interval", "5", "--fail-at", "7", "--victim", "3")
#: ``(app, places, restore mode or None for the CLI's default)``.
CELLS: Tuple[Tuple[str, int, Optional[str]], ...] = (
    ("linreg", 44, None), ("linreg", 256, None), ("linreg", 256, "shrink-rebalance"),
    ("linreg", 1024, None),
    ("pagerank", 44, None), ("pagerank", 128, None), ("pagerank", 256, None),
    ("pagerank", 1024, None),
)
SMOKE_CELLS: Tuple[Tuple[str, int, Optional[str]], ...] = (
    ("pagerank", 256, None), ("pagerank", 1024, None), ("linreg", 1024, None),
)
SMOKE_RSS_MB = 1536.0
#: A smoke cell may peak at most this much above its committed ``peak_rss_mb``.
SMOKE_RSS_GROWTH = 1.1
_VIRTUAL_TOTAL = re.compile(r"^virtual total:\s+([0-9.eE+-]+) s", re.MULTILINE)


def run_cell(
    tree: Path, app: str, places: int, mode: Optional[str], limit_gib: float
) -> Dict[str, object]:
    """One ``repro run`` of *tree*'s source, in a child of its own."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    limit = int(limit_gib * (1 << 30))
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "run", app, "--places", str(places), *RUN_ARGS,
                *(("--mode", mode) if mode else ()),
            ],
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


def _show(side: str, app: str, places: int, mode: Optional[str], cell: Dict[str, object]) -> None:
    if cell["status"] == "ok":
        body = (
            f"{cell['wall_s']:7.2f} s  {cell['peak_rss_mb']:8.1f} MiB  "
            f"virtual {cell['virtual_total_s']:.4f} s"
        )
    else:
        body = f"{cell['status']} after {cell['wall_s']} s ({cell['detail']})"
    print(f"{side:>6}  {app:>8} @ {places:<4}{f' {mode}' if mode else ''}  {body}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    parser.add_argument("--limit-gib", type=float, default=6.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if args.smoke:
        pinned = {
            (row["app"], row["places"], row.get("mode")): row["change"]
            for row in json.loads((ROOT / "BENCH_scale.json").read_text())["cells"]
        }
        bad = 0
        for app, places, mode in SMOKE_CELLS:
            cell = run_cell(ROOT, app, places, mode, args.limit_gib)
            _show("change", app, places, mode, cell)
            committed = pinned.get((app, places, mode), {})
            rss_cap = SMOKE_RSS_GROWTH * committed.get("peak_rss_mb", float("nan"))
            if cell["status"] != "ok" or cell["peak_rss_mb"] >= SMOKE_RSS_MB:
                print(f"::error::{app} at {places} places: not ok under {SMOKE_RSS_MB:.0f} MiB")
                bad = 1
            elif not cell["peak_rss_mb"] <= rss_cap:
                print(
                    f"::error::{app} at {places} places: peak RSS {cell['peak_rss_mb']} MiB, "
                    f"over {SMOKE_RSS_GROWTH}x the {committed.get('peak_rss_mb')} MiB "
                    f"BENCH_scale.json has"
                )
                bad = 1
            elif cell["virtual_total_s"] != committed.get("virtual_total_s"):
                print(
                    f"::error::{app} at {places} places: virtual total "
                    f"{cell['virtual_total_s']} s, BENCH_scale.json has "
                    f"{committed.get('virtual_total_s')} s"
                )
                bad = 1
        return bad

    sides = ([("parent", args.parent.resolve())] if args.parent else []) + [("change", ROOT)]
    rows = []
    for app, places, mode in CELLS:
        row: Dict[str, object] = {"app": app, "places": places, **({"mode": mode} if mode else {})}
        for side, tree in sides:
            row[side] = run_cell(tree, app, places, mode, args.limit_gib)
            _show(side, app, places, mode, row[side])
        rows.append(row)
    report = {
        "command": "repro run <app> --places P " + " ".join(RUN_ARGS) + " [--mode M]",
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
