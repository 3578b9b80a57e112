"""Did behaviour move?  One test per pinned artefact (see ``artefacts.py``).

Each test regenerates its entry in place, evaluates the entry's shape
predicates and compares every output byte for byte with ``git show
HEAD:<path>``; it fails naming each predicate that does not hold and the
rows of each output that moved::

    PYTHONPATH=src python -m pytest benchmarks/test_artefacts.py -q [-n auto] [-k <entry>]
"""

from __future__ import annotations

import difflib
import subprocess

import pytest

from artefacts import REGISTRY, ROOT


def moved_rows(path: str) -> list:
    """The ``-committed`` / ``+regenerated`` lines of *path*, if its bytes differ."""
    committed = subprocess.run(
        ["git", "show", f"HEAD:{path}"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    regenerated = (ROOT / path).read_bytes()
    if regenerated == committed:
        return []
    old, new = (text.decode().splitlines(keepends=True) for text in (committed, regenerated))
    diff = list(difflib.unified_diff(old, new, n=0))[2:]  # past the ---/+++ header
    return [line.rstrip("\n") for line in diff if not line.startswith("@@")]


@pytest.mark.parametrize("name", list(REGISTRY))
def test_artefact(name):
    entry = REGISTRY[name]
    result = entry.generate()
    problems = [f"predicate failed: {predicate}" for predicate in entry.failed(result)]
    for path in entry.outputs:
        rows = moved_rows(path)
        if rows:
            problems.append(f"{path} moved:\n  " + "\n  ".join(rows))
    if problems:
        pytest.fail(f"{name}:\n" + "\n".join(problems), pytrace=False)
