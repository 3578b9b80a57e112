#!/usr/bin/env python3
"""Compare two sets of benchmark reports: ``compare.py A.json... -- B.json...``

Each file is what ``run.py --out`` wrote.  For every workload and end-to-end
metric the table gives each side's median and quartiles and a verdict against
the metric's bound (read from ``run.py``):

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's own spread (quartile distance over median) is
  wider than the bound, so a move of that size cannot be told from noise —
  unless every B run reads no worse than every A run;
* ``same``       — otherwise.

A second block checks the deterministic numbers — call counts, failure and
survival shares, span counts, every simulated-time value — which must be
identical in all runs of one workload at one seed, on both sides.

Exit code 1 if any row is ``worse`` or any deterministic number differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Tuple

_EXACT_FIELDS = ("failed_frac", "survived_frac")
_EXACT_PREFIXES = ("resilience.virt.", "resilience.ladder.", "service.virt.", "bench.")


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def iqr_frac(values: List[float]) -> float:
    """Distance between the quartiles of *values* as a share of their median."""
    q1, median, q3 = _quartiles(values)
    return (q3 - q1) / median


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """``same`` / ``worse`` / ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    if max(iqr_frac(a), iqr_frac(b)) > bound:
        if max(sign * x for x in b) <= min(sign * x for x in a):
            return "same"
        return "unresolved"
    if sign * (median_b - median_a) > bound * abs(median_a):
        return "worse"
    return "same"


def load(paths: List[str]) -> List[Dict[str, Any]]:
    reports = []
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        if data.get("smoke"):
            raise SystemExit(f"compare.py: {path} is a smoke run, not a measurement")
        reports.extend(data["reports"])
    return reports


def _exact_values(report: Dict[str, Any]) -> Dict[str, Any]:
    """The numbers of one report that do not depend on host speed."""
    out = {key: report[key] for key in _EXACT_FIELDS}
    if "py_calls_m" in report["end_to_end"]:
        out["py_calls_m"] = report["end_to_end"]["py_calls_m"]
    for key, value in report["per_layer"].items():
        host_time = key.endswith(".self_s")
        if key.endswith(".calls") or (key.startswith(_EXACT_PREFIXES) and not host_time):
            out[key] = value
    return out


def compare(side_a, side_b, end_to_end) -> Tuple[List[str], bool]:
    """Rows of the comparison table and whether everything held."""
    by_workload: Dict[str, Dict[str, List[Dict[str, Any]]]] = defaultdict(
        lambda: {"A": [], "B": []}
    )
    for side, reports in (("A", side_a), ("B", side_b)):
        for report in reports:
            by_workload[report["workload"]][side].append(report)
    rows = [
        f"{'workload':16s} {'metric':12s} {'bound':>6s}  "
        f"{'A q1/median/q3 (n)':>34s}  {'B q1/median/q3 (n)':>34s}  verdict"
    ]
    ok = True
    for workload, sides in by_workload.items():
        if not sides["A"] or not sides["B"]:
            rows.append(f"{workload:16s} present on one side only")
            ok = False
            continue
        for metric, (_unit, better, bound) in end_to_end.items():
            values = {
                side: [
                    r["end_to_end"][metric] for r in reports if metric in r["end_to_end"]
                ]
                for side, reports in sides.items()
            }
            if not values["A"] or not values["B"]:
                continue
            result = verdict(values["A"], values["B"], better, bound)
            ok = ok and result != "worse"
            cells = []
            for side in ("A", "B"):
                q1, q2, q3 = _quartiles(values[side])
                cells.append(f"{q1:10.4f}/{q2:10.4f}/{q3:10.4f} ({len(values[side])})")
            rows.append(
                f"{workload:16s} {metric:12s} {bound:6.3f}  {cells[0]}  {cells[1]}  {result}"
            )
        by_seed: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
        for report in sides["A"] + sides["B"]:
            by_seed[report["seed"]].append(_exact_values(report))
        differing = sorted(
            {
                key
                for group in by_seed.values()
                for other in group[1:]
                for key in group[0].keys() & other.keys()
                if group[0][key] != other[key]
            }
        )
        checked = max(len(group[0]) for group in by_seed.values())
        if differing:
            ok = False
            rows.append(
                f"{workload:16s} deterministic numbers DIFFER: {', '.join(differing)}"
            )
        else:
            rows.append(
                f"{workload:16s} deterministic numbers identical "
                f"({checked} names, {len(sides['A']) + len(sides['B'])} runs)"
            )
    return rows, ok


def main(argv: List[str]) -> int:
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        raise SystemExit(__doc__.split("\n\n")[0])
    split = argv.index("--")
    from run import END_TO_END

    rows, ok = compare(load(argv[:split]), load(argv[split + 1 :]), END_TO_END)
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
