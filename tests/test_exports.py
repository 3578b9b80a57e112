"""Every ``repro`` package's ``__all__`` names only what it defines.

A name deleted from a module but left in its package's ``__all__`` breaks
``from repro.<pkg> import *`` and nothing else, so it would otherwise go
unnoticed until a user's star import.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages_with_all():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


PACKAGES = _packages_with_all()


def test_packages_found():
    assert {"repro", "repro.matrix", "repro.service"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_exported_name(name):
    exported = importlib.import_module(name).__all__
    namespace = {}
    exec(f"from {name} import *", namespace)  # AttributeError names a stale entry
    assert [attr for attr in exported if attr not in namespace] == []
    assert len(set(exported)) == len(exported)
