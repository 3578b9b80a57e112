"""What importing ``repro`` costs: which modules it pulls in, and how it fails.

``repro.matrix.sparse`` loads scipy's compiled ``_sparsetools`` extension
straight from its file, so no process imports ``scipy.sparse`` (about
21 MiB and 0.15 s of package init) just to reach the kernels, and serial
runs never import :mod:`multiprocessing`.  Each case runs in a fresh
interpreter: the test process itself has long since imported both.  Nor
does a reconstructing CG run import ``numpy.ma``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import scipy.sparse

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str, pythonpath: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_entry_points_import_neither_scipy_sparse_nor_multiprocessing():
    proc = _run(
        """
        import json, sys
        import repro.bench.harness as harness
        import repro.chaos, repro.cli, repro.service
        from repro.matrix import sparse

        loaded = sorted(
            name for name in sys.modules
            if name.split(".")[0] == "multiprocessing"
            or name == "scipy.sparse" or name.startswith("scipy.sparse.")
        )
        items = list(range(-4, 4))
        print(json.dumps({
            "loaded": loaded,
            "kernels": sparse._sparsetools.__file__,
            "pooled": harness.pmap(abs, items, jobs=2),
            "serial": [abs(i) for i in items],
        }))
        """,
        str(SRC),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    # The very binary scipy's public operators run, which
    # tests/matrix/test_sparse.py holds every kernel to.
    assert out["kernels"] == scipy.sparse._sparsetools.__file__
    assert out["pooled"] == out["serial"]


def test_cg_reconstruct_does_not_import_numpy_ma():
    # ``np.unique`` imports ``numpy.ma`` (about 1.3 MiB of RSS); the lost-x
    # solve of a reconstructing CG run counts referenced columns without it.
    proc = _run(
        """
        import json, sys
        from repro.world import WorldSpec

        spec = WorldSpec(
            "cg", places=6, iterations=12, checkpoint_interval=4, workload="tiny",
            fail_at=(6, 6), victim=(2, 3), replicas=2, placement="spread", spares=2,
            mode="replace-redundant", recovery="reconstruct",
        )
        spec.validate()
        rt, _, _, executor = spec.build()
        with rt:
            report = executor.run()
        print(json.dumps({
            "reconstructions": report.reconstructions,
            "restores": report.restores,
            "loaded": sorted(
                name for name in sys.modules
                if name == "numpy.ma" or name.startswith("numpy.ma.")
            ),
        }))
        """,
        str(SRC),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["reconstructions"] == 1 and out["restores"] == 0
    assert out["loaded"] == []


def test_missing_extension_is_an_import_error_naming_the_directory(tmp_path):
    sparse_dir = tmp_path / "scipy" / "sparse"
    sparse_dir.mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    (sparse_dir / "__init__.py").write_text("")

    proc = _run("import repro.matrix.sparse", os.pathsep.join([str(tmp_path), str(SRC)]))

    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: ")
    assert str(sparse_dir) in last
