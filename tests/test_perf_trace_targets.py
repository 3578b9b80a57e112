"""Every function the perf tracer wraps by name still exists.

``benchmarks/perf/trace.py::TARGETS`` names ``src/`` functions by their
dotted path; renaming or deleting one would otherwise only fail the perf
harness's own suite (``python -m pytest benchmarks/perf -q``).
"""

import importlib.util
from pathlib import Path

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "trace.py"


def _load_trace():
    # Loaded from its path under a private name: ``trace`` is also a stdlib
    # module, and the perf directory is not a package.
    spec = importlib.util.spec_from_file_location("_perf_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    trace = _load_trace()
    with trace.Tracer() as tracer:
        assert tracer.missing == []
        assert tracer.installed > 0
    assert tracer.installed == 0
