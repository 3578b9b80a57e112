"""Outside-in span tracer: per-layer host time without touching ``src/``.

While installed, the tracer replaces the public calls into each layer with a
wrapper that records one *span* per call.  Class methods are wrapped by
``setattr`` on the class (``__slots__`` classes and ``classmethod``s
included); module-level functions are rebound in every loaded ``repro``
module that holds the name (``from x import f`` copies).  Everything is put
back by :meth:`Tracer.uninstall`.

Spans nest on one stack (the benchmark is single-threaded).  A group's
``self_s`` is the time inside its spans that no child span covers, so the
self times of all groups plus the root's (time under no span at all) add up
to the traced wall-clock — :meth:`Tracer.closure_error` checks that they do.

A target that no longer exists does not crash the benchmark: its group is
reported as missing (zeros, counted in ``trace.missing_targets``), so the
end-to-end numbers survive a rename under ``src/``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

_RES = "repro.apps.resilient"
_NONRES = "repro.apps.nonresilient"
_APP_CLASSES = [
    f"{pkg}.{mod}:{cls}{suffix}"
    for pkg, suffix in ((_RES, "Resilient"), (_NONRES, "NonResilient"))
    for mod, cls in (
        ("cg", "CG"),
        ("gnmf", "Gnmf"),
        ("linreg", "LinReg"),
        ("logreg", "LogReg"),
        ("pagerank", "PageRank"),
    )
]
_RES_APPS = [c for c in _APP_CLASSES if c.startswith(_RES)]
_SNAPSHOTS = [
    "repro.resilience.snapshot:DistObjectSnapshot",
    "repro.resilience.stable:StableObjectSnapshot",
    "repro.resilience.parity:ParityObjectSnapshot",
]
_SPARSE = ["repro.matrix.sparse:SparseCSR", "repro.matrix.sparse:SparseCSC"]
_SCHED = "repro.engine.scheduler:Scheduler"
_RUNTIME = "repro.runtime.runtime:Runtime"
_COMM = "repro.runtime.comm"
_POOL = "repro.runtime.pool:PlacePool"
_RSTORE = "repro.resilience.reconstruct:ReconstructionStore"
_DENSE = "repro.matrix.dense:DenseMatrix"
_EXECUTORS = [
    "repro.resilience.executor:IterativeExecutor.run",
    "repro.resilience.executor:NonResilientExecutor.run",
]


def _methods(classes: List[str], *names: str, optional: bool = False) -> List[str]:
    """``Class.name`` for every class x name.  With *optional*, a target
    whose class exists but does not define the name itself (it inherits it)
    is skipped silently instead of being reported missing."""
    mark = "?" if optional else ""
    return [f"{cls}.{name}{mark}" for cls in classes for name in names]


#: group -> the public calls wrapped for it ("module:function" or
#: "module:Class.method"; a trailing "?" marks an inherited-is-fine target).
TARGETS: Dict[str, List[str]] = {
    "engine.transfer": _methods([_SCHED], "transfer", "transfer_fanout"),
    "engine.finish": _methods([_SCHED], "complete_finish", "complete_finish_zero"),
    "engine.serve": _methods([_SCHED], "serve"),
    "engine.disk": _methods([_SCHED], "stable_write", "stable_read"),
    "engine.fork.capture": ["repro.engine.fork:ForkContext.capture"],
    "engine.fork.load": ["repro.engine.fork:SimulatorImage.load"],
    "runtime.dispatch": _methods([_RUNTIME], "finish_tasks", "finish_all", "at"),
    "runtime.task_body": [],  # the callables passed into runtime.dispatch
    "runtime.ledger": ["repro.runtime.finish:PlaceZeroLedger.process"],
    "runtime.comm": [
        f"{_COMM}:{name}"
        for name in (
            "point_to_point",
            "tree_broadcast",
            "flat_gather",
            "tree_reduce",
            "tree_allreduce",
        )
    ],
    "runtime.detector": _methods(
        ["repro.runtime.detector:PhiAccrualDetector"], "sweep", "resolve"
    ),
    "runtime.pool": _methods(
        [_POOL], "lease", "release", "claim_reserve", "borrow_idle"
    )
    + ["repro.runtime.pool:PlaceLease.claim_spare"],
    "runtime.kill": _methods([_RUNTIME], "kill", "revive"),
    "runtime.make": ["repro.runtime.factory:make_runtime"],
    "matrix.build": [
        "repro.matrix.random:LinkMatrix.block",
        "repro.matrix.sparse:SparseCSR.from_coo",
        "repro.matrix.sparse:SparseCSC.from_coo",
        f"{_DENSE}.random",
    ],
    "matrix.spmv": _methods(_SPARSE, "spmv", "spmv_t")
    + _methods(_SPARSE[:1], "matmat", "t_matmat"),
    "matrix.gemv": _methods([_DENSE], "matvec", "t_matvec", "mult"),
    "matrix.regrid": _methods(_SPARSE + [_DENSE], "sub_matrix")
    + [f"{_DENSE}.set_sub_matrix"]
    + _methods(_SPARSE, "count_nnz_region"),
    "apps.build": _methods(_APP_CLASSES, "__init__"),
    "apps.step": _methods(_APP_CLASSES, "step"),
    "apps.ckpt": _methods(_RES_APPS, "checkpoint")
    + [f"{_RES}.cg:CGResilient.publish_redundant"],
    "apps.restore": _methods(_RES_APPS, "restore")
    + [f"{_RES}.cg:CGResilient.reconstruct"],
    "resilience.executor": _EXECUTORS,
    "resilience.store": _methods(
        ["repro.resilience.store:AppResilientStore"],
        "start_new_snapshot",
        "save",
        "save_read_only",
        "commit",
        "cancel_snapshot",
        "restore",
        "verify_integrity",
    ),
    "resilience.snapshot.save": _methods(
        _SNAPSHOTS, "save_from", "save_clean_from", optional=True
    ),
    "resilience.snapshot.fetch": _methods(_SNAPSHOTS, "fetch", "locate", optional=True),
    "resilience.snapshot.verify": _methods(
        _SNAPSHOTS, "verify_all", "key_intact", optional=True
    ),
    "resilience.parity.repair": ["repro.resilience.parity:ParityObjectSnapshot.repair"],
    "resilience.reconstruct": _methods(
        [_RSTORE], "publish", "save_static", "repair_static", "invalidate"
    ),
    "util.checksum": [
        "repro.util.checksum:payload_checksum",
        "repro.util.checksum:memoized_checksum",
    ],
    "chaos.schedule": ["repro.chaos:run_schedule"],
    "chaos.prefix.build": ["repro.chaos:PrefixCache.build"],
    "chaos.prefix.fork": ["repro.chaos:PrefixCache.fork"],
    "chaos.baseline": ["repro.baseline:failure_free_result"],
    "service.loop": ["repro.service.service:ClusterService.run"],
    "service.admission": _methods(
        ["repro.service.admission:AdmissionController"], "can_admit", "pop_admissible"
    )
    + ["repro.service.admission:JobQueue.offer"],
    "bench.harness": [
        f"repro.bench.harness:run_{kind}_sweep"
        for kind in ("overhead", "checkpoint", "restore")
    ],
}

#: ``ExecutionReport`` counters folded into ``resilience.ladder.*`` ...
LADDER_FIELDS = (
    "restores",
    "aborted_restores",
    "reconstructions",
    "fallback_restores",
    "parity_reconstructions",
    "stable_fallback_reads",
    "quarantined_copies",
    "scrubs",
)
#: ... and its *simulated* seconds folded into ``resilience.virt.*``.
VIRT_FIELDS = {
    "total_s": "total_time",
    "step_s": "step_time",
    "checkpoint_s": "checkpoint_time",
    "restore_s": "restore_time",
    "reconstruct_s": "reconstruct_time",
    "detection_wait_s": "detection_wait_time",
    "scrub_s": "scrub_time",
    "lost_s": "lost_time",
}

#: Re-time the raw kernel on every Nth traced call of a kernel group.
RESAMPLE_EVERY = 64

_perf = time.perf_counter


def _percentile_ms(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(samples, q)) * 1e3


class Tracer:
    """Installs the span wrappers, accumulates, and removes them again."""

    def __init__(self) -> None:
        #: Child-time accumulators of the open spans; slot 0 is the root.
        self._stack: List[float] = [0.0]
        #: group -> [calls, self seconds]
        self.groups: Dict[str, List[float]] = {g: [0, 0.0] for g in TARGETS}
        self.groups["trace.resample"] = [0, 0.0]
        self.extras: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {
            "chaos.schedule": [],
            "resilience.executor": [],
        }
        self.missing: List[str] = []
        self.missing_groups: set = set()
        self._undo: List[Tuple[Any, str, Any]] = []
        self._raw: Dict[str, List[float]] = {}
        self._kernels = {"matrix.spmv": [0, 0.0], "matrix.gemv": [0, 0.0]}

    # -- install / uninstall -------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        hooks = self._hooks()
        try:
            for group, targets in TARGETS.items():
                for target in targets:
                    self._wrap_target(group, target, hooks.get(target.rstrip("?")))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @property
    def installed(self) -> int:
        """How many attributes are currently patched."""
        return len(self._undo)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_target(self, group: str, target: str, hook: Optional[Callable]) -> None:
        inherited_ok = target.endswith("?")
        target = target.rstrip("?")
        module_name, _, path = target.partition(":")
        owner, _, name = path.rpartition(".")
        holder = None
        try:
            holder = importlib.import_module(module_name)
            if owner:
                holder = getattr(holder, owner)
            raw = vars(holder)[name]
        except (ImportError, AttributeError, KeyError):
            if not (inherited_ok and owner and hasattr(holder, name)):
                self.missing.append(target)
                self.missing_groups.add(group)
            return
        acc = self.groups[group]
        if not owner:
            wrapper = self._span(raw, acc, hook)
            # Rebind every from-imported copy of the function as well.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, attr, wrapper)
        elif isinstance(raw, classmethod):
            self._patch(holder, name, classmethod(self._span(raw.__func__, acc, hook)))
        elif group == "runtime.dispatch":
            self._patch(holder, name, self._dispatch(raw, acc, name))
        else:
            self._patch(holder, name, self._span(raw, acc, hook))

    # -- the wrappers --------------------------------------------------------

    def _span(self, fn: Callable, acc: List[float], hook: Optional[Callable] = None):
        """*fn* wrapped in a span charged to *acc*; *hook(args, result, dt)*
        runs after the span closed (its own time lands in the parent)."""
        stack = self._stack

        if hook is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = _perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _perf() - t0
                    acc[0] += 1
                    acc[1] += dt - stack.pop()
                    stack[-1] += dt

            return wrapper

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            stack.append(0.0)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                acc[0] += 1
                acc[1] += dt - stack.pop()
                stack[-1] += dt
            hook(args, result, dt)
            return result

        return hooked

    def _dispatch(self, fn: Callable, acc: List[float], name: str):
        """``Runtime.finish_tasks`` / ``finish_all`` / ``at``: a span of
        ``runtime.dispatch`` that also wraps the task bodies handed in, at
        that boundary, as ``runtime.task_body`` spans."""
        body_acc = self.groups["runtime.task_body"]
        stack = self._stack

        def run_body(task, ctx):
            stack.append(0.0)
            t0 = _perf()
            try:
                return task(ctx)
            finally:
                dt = _perf() - t0
                body_acc[0] += 1
                body_acc[1] += dt - stack.pop()
                stack[-1] += dt

        def traced(task):
            # Already wrapped when finish_all falls through to finish_tasks.
            if type(task) is functools.partial and task.func is run_body:
                return task
            return functools.partial(run_body, task)

        if name == "finish_tasks":

            def wrapper(rt, tasks, *args, **kwargs):
                stack.append(0.0)
                t0 = _perf()
                try:
                    bodies: Dict[int, Callable] = {}
                    wrapped = []
                    for place, task in tasks:
                        w = bodies.get(id(task))
                        if w is None:
                            w = bodies[id(task)] = traced(task)
                        wrapped.append((place, w))
                    return fn(rt, wrapped, *args, **kwargs)
                finally:
                    dt = _perf() - t0
                    acc[0] += 1
                    acc[1] += dt - stack.pop()
                    stack[-1] += dt

        else:  # finish_all(group, fn, ...) and at(place, fn, ...)

            def wrapper(rt, where, task, *args, **kwargs):
                stack.append(0.0)
                t0 = _perf()
                try:
                    return fn(rt, where, traced(task), *args, **kwargs)
                finally:
                    dt = _perf() - t0
                    acc[0] += 1
                    acc[1] += dt - stack.pop()
                    stack[-1] += dt

        return functools.update_wrapper(wrapper, fn)

    def _resample(self, key: str, dt: float, raw_op: Callable[[], Any]) -> None:
        """Re-time the raw library call of a kernel on the same operands."""
        stack = self._stack
        stack.append(0.0)
        t0 = _perf()
        try:
            op = raw_op()  # operand set-up, outside the raw timer
            r0 = _perf()
            op()
            raw_dt = _perf() - r0
            sums = self._raw.setdefault(key, [0.0, 0.0])
            sums[0] += dt
            sums[1] += raw_dt
        finally:
            spent = _perf() - t0
            acc = self.groups["trace.resample"]
            acc[0] += 1
            acc[1] += spent - stack.pop()
            stack[-1] += spent

    def _hooks(self) -> Dict[str, Callable]:
        """Per-target post-span hooks producing the extras."""
        extras = self.extras
        durations = self.durations
        hooks: Dict[str, Callable] = {}

        def add(key: str, amount: float) -> None:
            extras[key] = extras.get(key, 0.0) + amount

        def ledger(args, result, dt):
            add("runtime.ledger.events", len(args[1]))

        hooks["repro.runtime.finish:PlaceZeroLedger.process"] = ledger

        def captured(args, image, dt):
            add("engine.fork.image_mb", image.nbytes / 2**20)

        hooks["repro.engine.fork:ForkContext.capture"] = captured

        def built(args, result, dt):
            add("apps.build.incl_s", dt)

        for target in TARGETS["apps.build"]:
            hooks[target] = built

        def executed(args, report, dt):
            durations["resilience.executor"].append(dt)
            if report is None:  # parked at a boundary hook, not finished
                return
            for name in LADDER_FIELDS:
                add(f"resilience.ladder.{name}", getattr(report, name))
            for name, attr in VIRT_FIELDS.items():
                add(f"resilience.virt.{name}", getattr(report, attr))

        for target in _EXECUTORS:
            hooks[target] = executed

        def scheduled(args, outcome, dt):
            durations["chaos.schedule"].append(dt)

        hooks["repro.chaos:run_schedule"] = scheduled

        def forked(args, executor, dt):
            add("chaos.prefix.forks", 1.0)
            if executor is not None:
                add("chaos.prefix.hits", 1.0)

        hooks["repro.chaos:PrefixCache.fork"] = forked

        hooks.update(self._kernel_hooks())
        return hooks

    def _kernel_hooks(self) -> Dict[str, Callable]:
        """``.flops`` (computed) and ``.vs_raw`` (sampled) for the kernels."""
        hooks: Dict[str, Callable] = {}
        resample = self._resample
        #: group -> [calls seen, computed flops]; folded in by ``metrics``.
        kernels = self._kernels

        def sparse_hook(fmt: str, transposed: bool) -> Callable:
            seen = kernels["matrix.spmv"]

            def hook(args, result, dt):
                mat, x = args[0], args[1]
                seen[0] += 1
                seen[1] += 2.0 * len(mat.values) * (1 if x.ndim == 1 else x.shape[1])
                if seen[0] % RESAMPLE_EVERY == 0:

                    def prepare():
                        import scipy.sparse as sp

                        ctor = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
                        raw = ctor(
                            (mat.values, mat.indices, mat.indptr), shape=(mat.m, mat.n)
                        )
                        if transposed:
                            raw = raw.T
                        return lambda: raw @ x

                    resample("matrix.spmv", dt, prepare)

            return hook

        for cls, fmt in (("SparseCSR", "csr"), ("SparseCSC", "csc")):
            for name in ("spmv", "spmv_t", "matmat", "t_matmat"):
                hooks[f"repro.matrix.sparse:{cls}.{name}"] = sparse_hook(
                    fmt, name in ("spmv_t", "t_matmat")
                )

        def dense_hook(name: str) -> Callable:
            seen = kernels["matrix.gemv"]

            def hook(args, result, dt):
                if name == "mult":
                    left, right = args[1].data, args[2].data
                    flops = 2.0 * left.shape[0] * left.shape[1] * right.shape[1]
                else:
                    left = args[0].data.T if name == "t_matvec" else args[0].data
                    right = args[1]
                    flops = 2.0 * left.shape[0] * left.shape[1]
                seen[0] += 1
                seen[1] += flops
                if seen[0] % RESAMPLE_EVERY == 0:
                    resample("matrix.gemv", dt, lambda: lambda: left.dot(right))

            return hook

        for name in ("matvec", "t_matvec", "mult"):
            hooks[f"{_DENSE}.{name}"] = dense_hook(name)
        return hooks

    # -- results -------------------------------------------------------------

    def closure_error(self, wall: float) -> float:
        """|sum of all self times (root included) - wall| as a share of wall."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        root_self = wall - self._stack[0]
        total = root_self + sum(acc[1] for acc in self.groups.values())
        return abs(total - wall) / wall

    def metrics(self, wall: float) -> Dict[str, float]:
        """Every tracer-owned per-layer metric of one traced pass of *wall* s."""
        out: Dict[str, float] = {}
        for group in TARGETS:
            calls, self_s = self.groups[group]
            if group in self.missing_groups:
                calls, self_s = 0, 0.0
            out[f"{group}.calls"] = float(calls)
            out[f"{group}.self_s"] = self_s
        extras = self.extras
        for key in ("engine.fork.image_mb", "runtime.ledger.events", "apps.build.incl_s"):
            out[key] = extras.get(key, 0.0)
        for group, (_seen, flops) in self._kernels.items():
            wrapped, raw = self._raw.get(group, (0.0, 0.0))
            out[f"{group}.flops"] = flops
            out[f"{group}.vs_raw"] = wrapped / raw if raw else 0.0
        for name in LADDER_FIELDS:
            out[f"resilience.ladder.{name}"] = extras.get(f"resilience.ladder.{name}", 0.0)
        for name in VIRT_FIELDS:
            out[f"resilience.virt.{name}"] = extras.get(f"resilience.virt.{name}", 0.0)
        schedules = self.durations["chaos.schedule"]
        out["chaos.schedule.p50_ms"] = _percentile_ms(schedules, 50)
        out["chaos.schedule.p95_ms"] = _percentile_ms(schedules, 95)
        forks = extras.get("chaos.prefix.forks", 0.0)
        out["chaos.prefix.hit_frac"] = (
            extras.get("chaos.prefix.hits", 0.0) / forks if forks else 0.0
        )
        # Host time per tenant: the executor runs of a service stream.
        jobs = self.durations["resilience.executor"] if self.groups["service.loop"][0] else []
        out["service.job.p50_ms"] = _percentile_ms(jobs, 50)
        out["service.job.p95_ms"] = _percentile_ms(jobs, 95)
        out["trace.root_self_s"] = wall - self._stack[0]
        out["trace.resample_s"] = self.groups["trace.resample"][1]
        out["trace.missing_targets"] = float(len(self.missing))
        return out

