"""Plain-text renderers for the benchmark results.

The benchmarks print each figure as an aligned series table plus an ASCII
chart, and write CSV files under ``results/`` so the series can be
re-plotted with any tool.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence


def series_table(
    places: Sequence[int],
    values: Dict[str, Sequence[float]],
    value_format: str = "{:10.1f}",
    header_unit: str = "",
) -> str:
    """Aligned text table: one row per place count, one column per series."""
    names = list(values)
    widths = [max(len(name), 10) for name in names]
    lines = ["places  " + "  ".join(n.rjust(w) for n, w in zip(names, widths))]
    if header_unit:
        lines[0] += f"   [{header_unit}]"
    for i, p in enumerate(places):
        cells = [
            value_format.format(values[name][i]).rjust(w)
            for name, w in zip(names, widths)
        ]
        lines.append(f"{p:6d}  " + "  ".join(cells))
    return "\n".join(lines)


def ascii_chart(
    places: Sequence[int],
    values: Dict[str, Sequence[float]],
    width: int = 60,
    title: str = "",
) -> str:
    """A crude horizontal-bar chart, one block of bars per series."""
    peak = max(max(v) for v in values.values()) or 1.0
    lines: List[str] = []
    if title:
        lines.append(title)
    markers = "█▓▒░▚▞"
    for s_idx, (name, series) in enumerate(values.items()):
        lines.append(f"-- {name}")
        mark = markers[s_idx % len(markers)]
        for p, v in zip(places, series):
            bar = mark * max(1, int(round(v / peak * width)))
            lines.append(f"  {p:4d} |{bar} {v:.1f}")
    return "\n".join(lines)


def write_csv(
    path: str,
    places: Sequence[int],
    values: Dict[str, Sequence[float]],
    x_name: str = "places",
) -> str:
    """Write the series as CSV (x column first); returns the path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    names = list(values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([x_name] + names) + "\n")
        for i, p in enumerate(places):
            row = [str(p)] + [repr(values[name][i]) for name in names]
            fh.write(",".join(row) + "\n")
    return path


def comparison_line(
    what: str, paper_value: float, measured: float, unit: str = "ms"
) -> str:
    """One paper-vs-measured line with the ratio."""
    ratio = measured / paper_value if paper_value else float("inf")
    return f"  {what:<42s} paper {paper_value:9.1f} {unit}   ours {measured:9.1f} {unit}   ratio {ratio:5.2f}x"
