"""The paper's benchmark applications in two forms each.

``repro.apps.nonresilient`` — plain GML programs (abort on failure);
``repro.apps.resilient`` — each one a subclass of its non-resilient
program that adds only ``checkpoint`` and ``restore`` (CG also its
reconstruction hooks).  Workload shapes live in :mod:`repro.apps.data`.
"""

from repro.apps.data import GnmfWorkload, PageRankWorkload, RegressionWorkload
from repro.apps.nonresilient import (
    GnmfNonResilient,
    LinRegNonResilient,
    LogRegNonResilient,
    PageRankNonResilient,
)
from repro.apps.resilient import (
    GnmfResilient,
    LinRegResilient,
    LogRegResilient,
    PageRankResilient,
)

__all__ = [
    "GnmfWorkload",
    "GnmfNonResilient",
    "GnmfResilient",
    "PageRankWorkload",
    "RegressionWorkload",
    "LinRegNonResilient",
    "LogRegNonResilient",
    "PageRankNonResilient",
    "LinRegResilient",
    "LogRegResilient",
    "PageRankResilient",
]
