"""Host-speed calibration: a fixed loop that imports nothing from ``repro``.

This box is a shared 2-core VM whose speed drifts by tens of percent over
minutes.  The loop below does a fixed amount of the three kinds of work the
simulator spends its host time on — interpreted dict/integer bytecode, small
``ndarray`` kernels, and pickle round-trips — and is run immediately before
and after every timed pass.  A pass's wall-clock is then scaled by
``CAL_REF_S / mean(adjacent calibrations)``, i.e. reported in seconds *on the
reference machine* (the box ``CAL_REF_S`` was measured on, quiet).  Drift
that lasts longer than a pass cancels; a spike inside a pass does not, which
is why the harness also reports medians over several passes.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

#: Duration of :func:`calibration_pass` on the reference machine (median of
#: 40 quiet runs on the 2-core container this benchmark was defined on).
#: Changing the loop below invalidates every recorded ``*_s`` metric.
CAL_REF_S = 0.300

_PY_ITERS = 1_000_000
_NP_ITERS = 42_000
_PICKLE_ITERS = 6_500

_MATRIX = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
_VECTOR = np.linspace(1.0, 2.0, 64)
_RECORD = {
    "kills": [f"p{i}@iter{i % 7}" for i in range(12)],
    "times": [i * 0.125 for i in range(48)],
    "block": np.arange(256, dtype=np.float64),
    "nested": {"a": (1, 2.5, "x"), "b": list(range(32))},
}


def calibration_pass() -> float:
    """Run the fixed loop once; returns its wall-clock in seconds."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 1
    for i in range(_PY_ITERS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    checksum = float(acc)
    for _ in range(_NP_ITERS):
        checksum += float(_MATRIX.dot(_VECTOR)[0])
        checksum += float(_MATRIX.copy()[0, 0])
    for _ in range(_PICKLE_ITERS):
        checksum += len(pickle.loads(pickle.dumps(_RECORD, -1)))
    if checksum < 0:  # consume the results so nothing above is dead code
        raise AssertionError("calibration checksum cannot be negative")
    return time.perf_counter() - t0
