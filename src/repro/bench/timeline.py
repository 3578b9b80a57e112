"""Finish-level profiling: where does the virtual time go?

Every finish (and collective) of a traced runtime records a
:class:`~repro.engine.timeline.FinishEvent` with its label, start/end times,
task count and bookkeeping-stall component.  These helpers aggregate the
events into an operation profile — the tool used to understand, e.g., why
PageRank hides resilient bookkeeping while LinReg does not — and render a
coarse ASCII timeline.

The same tooling works offline: :func:`load_engine_events` reads the CLI's
``--trace-out`` JSONL dump back, and ``iter_spans(events, "finish")``
selects its finishes, so a profile can be rendered from a trace file
without re-running the app.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.engine.timeline import EngineEvent, FinishEvent, load_jsonl


def _op_of(label: str) -> str:
    """Collapse a finish label to its operation name.

    Labels look like ``"DupVector:axpy"`` or ``"matvec"``; the profile
    groups by the part after the class prefix.
    """
    return label.rsplit(":", 1)[-1] if label else "(unlabeled)"


def load_engine_events(path: str) -> List[EngineEvent]:
    """Load a ``--trace-out`` JSONL dump back into typed engine events."""
    return load_jsonl(path)


@dataclass
class OpProfile:
    """Aggregated statistics of one operation kind."""

    op: str
    count: int = 0
    total_time: float = 0.0
    ledger_stall: float = 0.0
    tasks: int = 0

    @property
    def mean_time(self) -> float:
        return self.total_time / self.count if self.count else 0.0

    @property
    def stall_fraction(self) -> float:
        """Share of this op's time spent waiting on place-zero bookkeeping."""
        return self.ledger_stall / self.total_time if self.total_time else 0.0


def profile_finishes(finishes: Iterable[FinishEvent]) -> List[OpProfile]:
    """Aggregate finish events into per-operation profiles, largest first."""
    by_op: Dict[str, OpProfile] = {}
    for event in finishes:
        op = _op_of(event.label)
        profile = by_op.setdefault(op, OpProfile(op=op))
        profile.count += 1
        profile.total_time += event.duration
        # How long the finish waited on bookkeeping beyond its tasks.
        profile.ledger_stall += max(0.0, event.ledger_ready - event.task_end_max)
        profile.tasks += event.n_tasks
    return sorted(by_op.values(), key=lambda p: p.total_time, reverse=True)


def render_profile(finishes: Iterable[FinishEvent], top: int = 12) -> str:
    """A text table of the most expensive operations."""
    profiles = profile_finishes(finishes)
    total = sum(p.total_time for p in profiles) or 1.0
    lines = [
        f"{'operation':<22s} {'count':>6s} {'total(ms)':>10s} {'mean(ms)':>9s} "
        f"{'share':>6s} {'bk-stall':>8s}"
    ]
    for p in profiles[:top]:
        lines.append(
            f"{p.op:<22s} {p.count:>6d} {p.total_time * 1e3:>10.2f} "
            f"{p.mean_time * 1e3:>9.3f} {p.total_time / total:>6.1%} "
            f"{p.stall_fraction:>8.1%}"
        )
    if len(profiles) > top:
        rest = sum(p.total_time for p in profiles[top:])
        lines.append(f"{'(other)':<22s} {'':>6s} {rest * 1e3:>10.2f}")
    return "\n".join(lines)


def render_timeline(
    finishes: Sequence[FinishEvent], width: int = 72, max_rows: int = 40
) -> str:
    """A coarse ASCII Gantt chart of finishes over virtual time."""
    if not finishes:
        return "(no finishes recorded)"
    t_end = max(e.t_end for e in finishes) or 1.0
    lines = [f"virtual time 0 .. {t_end * 1e3:.2f} ms ({len(finishes)} finishes)"]
    for e in finishes[:max_rows]:
        lo = int(e.t_start / t_end * width)
        hi = max(lo + 1, int(e.t_end / t_end * width))
        bar = " " * lo + "█" * (hi - lo)
        lines.append(f"{bar:<{width}s}| {_op_of(e.label)} ({e.duration * 1e3:.2f} ms)")
    if len(finishes) > max_rows:
        lines.append(f"... {len(finishes) - max_rows} more finishes not shown")
    return "\n".join(lines)
