"""Workload definitions for the paper's three benchmark applications.

The paper's evaluation uses weak scaling: a fixed per-place problem size
(50 000 training examples per place for the regressions, 2 M edges per
place for PageRank) over 2–44 places.  Physical sizes here are reduced and
the difference is charged through the cost model's ``logical_scale`` (see
``repro.bench.calibration`` and EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive, require


@dataclass(frozen=True)
class RegressionWorkload:
    """Weak-scaling configuration of LinReg / LogReg.

    The training set is a dense ``DistBlockMatrix`` of
    ``examples_per_place * places`` rows × ``features`` columns, with
    ``blocks_per_place`` row blocks per place (>1 so the shrink mode can
    remap whole blocks).
    """

    features: int = 500
    examples_per_place: int = 50_000
    blocks_per_place: int = 2
    iterations: int = 30
    seed: int = 42
    ridge_lambda: float = 1e-3
    learning_rate: float = 0.5
    #: Optional relative-residual convergence threshold: when set, LinReg
    #: terminates as soon as ||r|| <= tolerance * ||r0|| (the paper's
    #: "checking a convergence condition" form of isFinished), bounded by
    #: ``iterations``.
    tolerance: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.features, "features")
        check_positive(self.examples_per_place, "examples_per_place")
        check_positive(self.blocks_per_place, "blocks_per_place")
        check_positive(self.iterations, "iterations")
        require(self.ridge_lambda >= 0, "ridge_lambda must be >= 0")
        require(self.tolerance >= 0, "tolerance must be >= 0")

    def examples(self, places: int) -> int:
        """Total rows for a given place count (weak scaling)."""
        return self.examples_per_place * places

    def row_blocks(self, places: int) -> int:
        """Total row blocks for a given place count."""
        return self.blocks_per_place * places

    @staticmethod
    def paper() -> "RegressionWorkload":
        """The paper's exact configuration (500 features, 50k/place)."""
        return RegressionWorkload()

    @staticmethod
    def small(iterations: int = 30) -> "RegressionWorkload":
        """A reduced physical size for fast simulation and tests."""
        return RegressionWorkload(
            features=50, examples_per_place=400, iterations=iterations
        )


@dataclass(frozen=True)
class PageRankWorkload:
    """Weak-scaling configuration of PageRank.

    The paper uses 2 M edges per place; with ``out_degree`` links per node
    that is ``2M / out_degree`` nodes per place.  The link structure is a
    sparse ``DistBlockMatrix`` filled from a grid-independent synthetic
    web graph.
    """

    nodes_per_place: int = 200_000
    out_degree: int = 10
    blocks_per_place: int = 2
    alpha: float = 0.85
    iterations: int = 30
    seed: int = 42

    def __post_init__(self) -> None:
        check_positive(self.nodes_per_place, "nodes_per_place")
        check_positive(self.out_degree, "out_degree")
        check_positive(self.blocks_per_place, "blocks_per_place")
        check_positive(self.iterations, "iterations")
        require(0.0 < self.alpha < 1.0, "alpha must be in (0, 1)")

    def nodes(self, places: int) -> int:
        """Total graph order for a given place count (weak scaling)."""
        return self.nodes_per_place * places

    def edges_per_place(self) -> int:
        """Edges per place (the paper's 2 M figure)."""
        return self.nodes_per_place * self.out_degree

    def row_blocks(self, places: int) -> int:
        """Total row blocks for a given place count."""
        return self.blocks_per_place * places

    @staticmethod
    def paper() -> "PageRankWorkload":
        """The paper's exact configuration (2 M edges per place)."""
        return PageRankWorkload()

    @staticmethod
    def small(iterations: int = 30) -> "PageRankWorkload":
        """A reduced physical size for fast simulation and tests."""
        return PageRankWorkload(
            nodes_per_place=300, out_degree=5, iterations=iterations
        )


@dataclass(frozen=True)
class GnmfWorkload:
    """Configuration of the GNMF extension application.

    Factor a sparse non-negative ``rows_per_place·places × cols`` matrix
    into rank-``rank`` factors ``W·H``.  Like the paper's benchmarks, the
    workload weak-scales: a fixed band of rows per place.
    """

    rows_per_place: int = 10_000
    cols: int = 1_000
    rank: int = 10
    density: float = 0.01
    blocks_per_place: int = 2
    iterations: int = 30
    seed: int = 42

    def __post_init__(self) -> None:
        check_positive(self.rows_per_place, "rows_per_place")
        check_positive(self.cols, "cols")
        check_positive(self.rank, "rank")
        check_positive(self.blocks_per_place, "blocks_per_place")
        check_positive(self.iterations, "iterations")
        require(0.0 < self.density <= 1.0, "density must be in (0, 1]")

    def rows(self, places: int) -> int:
        """Total rows for a given place count (weak scaling)."""
        return self.rows_per_place * places

    def row_blocks(self, places: int) -> int:
        """Total row blocks for a given place count."""
        return self.blocks_per_place * places

    @staticmethod
    def small(iterations: int = 20) -> "GnmfWorkload":
        """A reduced physical size for fast simulation and tests."""
        return GnmfWorkload(
            rows_per_place=60, cols=30, rank=4, density=0.2, iterations=iterations
        )


@dataclass(frozen=True)
class CGWorkload:
    """Configuration of the preconditioned conjugate-gradient application.

    Solve ``A x = b`` for a synthetic symmetric positive-definite banded
    matrix of order ``rows_per_place * places``.  Row *i* couples to its
    immediate neighbors and to ``i ± stride`` (a 1-D stencil plus a long
    bond), with a seeded jitter on the diagonal keeping the system strictly
    diagonally dominant — hence SPD — for every size.  The generator is
    partition-independent: any place holding rows ``[lo, hi)`` produces
    exactly the rows the global matrix has there, which is what makes
    failure-vs-failure-free comparisons (and exact ABFT reconstruction)
    well defined.

    The coupling is deliberately wider than one place's band at chaos
    sizes, so adjacent-pair and rack kills produce genuinely *coupled*
    joint re-solves rather than independent per-partition ones.
    """

    rows_per_place: int = 10_000
    stride: int = 7
    iterations: int = 30
    seed: int = 42
    #: Optional relative-residual convergence threshold (in the Jacobi
    #: preconditioner's inner-product norm); bounded by ``iterations``.
    tolerance: float = 0.0

    #: Stencil weights: diag = DIAG_BASE + jitter(i) in [0, 1),
    #: (i, i±1) = NEAR, (i, i±stride) = FAR.  |NEAR|·2 + |FAR|·2 = 3 < 4.
    DIAG_BASE = 4.0
    NEAR = -1.0
    FAR = -0.5

    def __post_init__(self) -> None:
        check_positive(self.rows_per_place, "rows_per_place")
        check_positive(self.stride, "stride")
        require(self.stride > 1, "stride must be > 1 (1 duplicates NEAR)")
        check_positive(self.iterations, "iterations")
        require(self.tolerance >= 0, "tolerance must be >= 0")

    def rows(self, places: int) -> int:
        """Total system order for a given place count (weak scaling)."""
        return self.rows_per_place * places

    def diagonal(self, n: int):
        """The global diagonal of ``A`` (length *n*), seeded."""
        from repro.matrix.random import random_vector

        return self.DIAG_BASE + random_vector(self.seed, n, tag=2)

    def rhs(self, n: int):
        """The global right-hand side ``b`` (length *n*), seeded."""
        from repro.matrix.random import random_vector

        return random_vector(self.seed, n, tag=1)

    def band(self, n: int, lo: int, hi: int):
        """Rows ``[lo, hi)`` of the global matrix as a ``SparseCSR``.

        Pure in ``(seed, n, lo, hi)`` and independent of how the rest of
        the matrix is partitioned.
        """
        import numpy as np

        from repro.matrix.sparse import SparseCSR

        diag = self.diagonal(n)
        rows_out = []
        cols_out = []
        vals_out = []
        local_rows = np.arange(lo, hi)
        for offset, weight in (
            (-self.stride, self.FAR),
            (-1, self.NEAR),
            (0, 0.0),  # diagonal handled below (jittered)
            (1, self.NEAR),
            (self.stride, self.FAR),
        ):
            cols = local_rows + offset
            mask = (cols >= 0) & (cols < n)
            if offset == 0:
                vals = diag[local_rows]
                mask = np.ones(hi - lo, dtype=bool)
            else:
                vals = np.full(hi - lo, weight)
            rows_out.append(local_rows[mask] - lo)
            cols_out.append(cols[mask])
            vals_out.append(vals[mask])
        return SparseCSR.from_coo(
            hi - lo,
            n,
            np.concatenate(rows_out),
            np.concatenate(cols_out),
            np.concatenate(vals_out),
        )

    @staticmethod
    def small(iterations: int = 20) -> "CGWorkload":
        """A reduced physical size for fast simulation and tests."""
        return CGWorkload(rows_per_place=24, stride=7, iterations=iterations)
