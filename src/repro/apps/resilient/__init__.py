"""Resilient GML applications (the right column of Table II).

Each application implements the framework's four-method programming model
(``is_finished`` / ``step`` / ``checkpoint`` / ``restore``) and is executed
by :class:`~repro.resilience.executor.IterativeExecutor`.  It is a subclass
of its non-resilient program: ``is_finished`` and ``step`` are inherited
unchanged, and the module holds only ``checkpoint`` and ``restore`` (plus
CG's checkpoint-free recovery hooks) — the lines Table II says resilience
adds.
"""

from repro.apps.resilient.cg import CGResilient
from repro.apps.resilient.gnmf import GnmfResilient
from repro.apps.resilient.linreg import LinRegResilient
from repro.apps.resilient.logreg import LogRegResilient
from repro.apps.resilient.pagerank import PageRankResilient

__all__ = [
    "CGResilient",
    "GnmfResilient",
    "LinRegResilient",
    "LogRegResilient",
    "PageRankResilient",
]
