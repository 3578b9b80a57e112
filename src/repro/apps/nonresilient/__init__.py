"""Non-resilient GML applications (the left column of Table II).

Plain GML programs in a sequential style: no checkpoints, no recovery —
a place failure aborts the run.  Each is also the algorithm of its
resilient counterpart in ``repro.apps.resilient``, which subclasses it and
adds ``checkpoint`` and ``restore``; Table II counts a program's module as
the non-resilient total and its subclass's module as what resilience adds.
"""

from repro.apps.nonresilient.cg import CGNonResilient
from repro.apps.nonresilient.gnmf import GnmfNonResilient
from repro.apps.nonresilient.linreg import LinRegNonResilient
from repro.apps.nonresilient.logreg import LogRegNonResilient
from repro.apps.nonresilient.pagerank import PageRankNonResilient

__all__ = [
    "CGNonResilient",
    "GnmfNonResilient",
    "LinRegNonResilient",
    "LogRegNonResilient",
    "PageRankNonResilient",
]
