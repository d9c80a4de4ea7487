"""Every name a package lists in ``__all__`` resolves.

A deleted function or class whose re-export stays behind in an
``__init__`` fails here instead of at some importer's ``from repro.x
import *``.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def test_every_subpackage_is_covered():
    assert {"repro.network", "repro.simulation", "repro.scenarios",
            "repro.equilibrium"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [item for item in exported if not hasattr(package, item)]
    assert missing == []
