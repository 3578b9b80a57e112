"""Name of the sparse kernel library, for ``benchmarks/perf/run.py``'s
environment block — that file is this module's one caller."""


def active_backend() -> str:
    """``"scipy"``: the kernels of :mod:`repro.matrix.sparse` are scipy's."""
    return "scipy"
