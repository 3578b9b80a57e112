"""The virtual-time cost model.

All timing in the simulator is *charged* from operation parameters (flop
counts, byte volumes, message counts) using the rates collected here, rather
than measured from the host machine.  ``repro.bench.calibration`` fixes the
rates from the paper's measured two-place points (see EXPERIMENTS.md); unit
tests use :meth:`CostModel.zero` (pure functional behaviour) or
:meth:`CostModel.unit` (easily assertable accounting).

The model distinguishes the components the paper's evaluation isolates:

* per-message **latency** and per-byte **bandwidth** of the transport;
* per-task **spawn/join** CPU cost at the finish home (this is what makes
  even *non-resilient* time/iteration grow with places — GML's collectives
  fan out from one place);
* the per-event cost of the serialized **place-zero bookkeeping ledger**
  used by resilient finish (this is the paper's "Resilient X10 overhead");
* a **flop rate** for compute and a **copy rate** for local memory movement.

``logical_scale`` decouples the physical arrays (kept small so the test
suite is fast) from the logical problem size whose time we charge: all
flop/byte charges are multiplied by it.  Benchmarks use it to charge the
paper's full problem sizes while computing on proportionally smaller data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

_INF = float("inf")


@dataclass(frozen=True)
class CostModel:
    """Rates for the virtual-time charge model (all times in seconds)."""

    #: Seconds per floating-point operation (inverse of sustained flop/s).
    flop_time: float = 0.0
    #: One-way network latency per message.
    latency: float = 0.0
    #: Seconds per byte on the wire (inverse of bandwidth).
    byte_time: float = 0.0
    #: CPU cost at the spawning place to launch one remote task.
    task_spawn_time: float = 0.0
    #: CPU cost at the finish home to process one task-termination message.
    task_join_time: float = 0.0
    #: Serialized processing cost per bookkeeping event at place zero
    #: (only charged when the runtime is resilient).
    ledger_event_time: float = 0.0
    #: Seconds per byte for local memory copies (snapshot local copy, etc.).
    memcpy_byte_time: float = 0.0
    #: Effective slowdown of sparse (irregular-access) flops relative to
    #: dense BLAS flops: CSR SpMV streams indices and gathers randomly, so
    #: its per-entry cost is several times a dense multiply-add.
    sparse_flop_factor: float = 1.0
    #: Places hosted per physical node (0 = every place on its own node,
    #: no NIC sharing).  Places map to nodes in consecutive blocks — the
    #: X10 convention of launching several places per host — and all
    #: cross-node transfers of one node serialize through its NIC.
    places_per_node: int = 0
    #: Seconds per byte for *intra-node* transfers (shared memory /
    #: loopback); only used when ``places_per_node`` > 0.
    shm_byte_time: float = 0.0
    #: Seconds per byte to/from reliable stable storage (a shared
    #: distributed filesystem).  Only used by the stable-store snapshot
    #: variant; 0 keeps disk access free for functional tests.
    disk_byte_time: float = 0.0
    #: Seconds per byte to checksum snapshot payloads (CRC pass at save
    #: and verify); 0 keeps integrity checking free for functional tests.
    checksum_byte_time: float = 0.0
    #: Multiplier applied to all flop/byte charges (logical problem scale).
    logical_scale: float = 1.0

    def __post_init__(self) -> None:
        # Per-instance memo tables for the byte-keyed charge helpers.  The
        # simulator charges the same handful of payload sizes millions of
        # times per campaign (partition sizes are fixed per run), so each
        # helper caches value-by-nbytes; rates are frozen, so entries can
        # never go stale.  object.__setattr__ because the dataclass is
        # frozen; the tables are not fields, so eq/repr/replace ignore them.
        for table in ("_msg_memo", "_memcpy_memo", "_disk_memo", "_cksum_memo", "_shm_memo"):
            object.__setattr__(self, table, {})
        # With every rate zero no charge can ever be nonzero, whatever the
        # multipliers say — the hot paths consult this to skip virtual-time
        # arithmetic that provably computes 0.0 (see Runtime._finish).
        object.__setattr__(
            self,
            "is_zero",
            not (
                self.flop_time
                or self.latency
                or self.byte_time
                or self.task_spawn_time
                or self.task_join_time
                or self.ledger_event_time
                or self.memcpy_byte_time
                or self.shm_byte_time
                or self.disk_byte_time
                or self.checksum_byte_time
            ),
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "CostModel":
        """All-zero rates: virtual time never advances (functional tests)."""
        return CostModel()

    @staticmethod
    def unit() -> "CostModel":
        """Unit rates for accounting tests: every component costs 1.0."""
        return CostModel(
            flop_time=1.0,
            latency=1.0,
            byte_time=1.0,
            task_spawn_time=1.0,
            task_join_time=1.0,
            ledger_event_time=1.0,
            memcpy_byte_time=1.0,
        )

    @staticmethod
    def laptop() -> "CostModel":
        """A generic commodity-cluster profile for the examples."""
        return CostModel(
            flop_time=5e-10,       # ~2 Gflop/s per place, one worker thread
            latency=50e-6,         # sockets transport over GigE
            byte_time=1e-9,        # ~1 GB/s
            task_spawn_time=5e-6,
            task_join_time=5e-6,
            ledger_event_time=20e-6,
            memcpy_byte_time=0.2e-9,
        )

    # -- charge helpers ----------------------------------------------------

    def flops(self, n: float) -> float:
        """Time to execute *n* floating-point operations."""
        return self.flop_time * n * self.logical_scale

    def message(self, nbytes: float = 0.0) -> float:
        """Wire time of one message carrying *nbytes* of payload (memoized)."""
        memo = self._msg_memo
        t = memo.get(nbytes)
        if t is None:
            t = memo[nbytes] = self.latency + self.byte_time * nbytes * self.logical_scale
        return t

    def memcpy(self, nbytes: float) -> float:
        """Time of a local memory copy of *nbytes* (memoized)."""
        memo = self._memcpy_memo
        t = memo.get(nbytes)
        if t is None:
            t = memo[nbytes] = self.memcpy_byte_time * nbytes * self.logical_scale
        return t

    def shm_message(self, nbytes: float = 0.0) -> float:
        """Wire time of one intra-node (shared-memory) message (memoized)."""
        memo = self._shm_memo
        t = memo.get(nbytes)
        if t is None:
            t = memo[nbytes] = self.latency + self.shm_byte_time * nbytes * self.logical_scale
        return t

    def disk(self, nbytes: float) -> float:
        """Time to read or write *nbytes* on stable storage (memoized)."""
        memo = self._disk_memo
        t = memo.get(nbytes)
        if t is None:
            t = memo[nbytes] = self.disk_byte_time * nbytes * self.logical_scale
        return t

    def checksum(self, nbytes: float) -> float:
        """Time to checksum *nbytes* of snapshot payload (memoized)."""
        memo = self._cksum_memo
        t = memo.get(nbytes)
        if t is None:
            t = memo[nbytes] = self.checksum_byte_time * nbytes * self.logical_scale
        return t

    def node_of(self, place_id: int) -> int:
        """The physical node hosting a place (block placement)."""
        if self.places_per_node <= 0:
            return place_id
        return place_id // self.places_per_node

    def scaled_bytes(self, nbytes: float) -> float:
        """Logical byte volume corresponding to a physical payload size."""
        return nbytes * self.logical_scale

    def with_scale(self, scale: float) -> "CostModel":
        """Copy of this model with a different logical scale."""
        return replace(self, logical_scale=scale)

    def with_rates(self, **kwargs: float) -> "CostModel":
        """Copy of this model with selected rates overridden."""
        return replace(self, **kwargs)


def validate_cost_model(model: CostModel) -> Optional[str]:
    """Return an error message if any rate is negative, NaN or infinite,
    else ``None``.  A non-finite rate would not fail later: it silently
    turns virtual times into NaN, 0.0 (``inf * 0``) or ``inf``."""
    for name in (
        "flop_time",
        "latency",
        "byte_time",
        "task_spawn_time",
        "task_join_time",
        "ledger_event_time",
        "memcpy_byte_time",
        "sparse_flop_factor",
        "places_per_node",
        "shm_byte_time",
        "disk_byte_time",
        "checksum_byte_time",
        "logical_scale",
    ):
        value = getattr(model, name)
        if value < 0:
            return f"cost rate {name} must be >= 0"
        if not value < _INF:  # NaN or +inf
            return f"cost rate {name} must be finite, got {value}"
    return None
