"""Every name a module exports resolves."""

import importlib

import pytest

MODULES = ("space", "specialfn", "kernel", "arcs", "measure", "verify")


@pytest.mark.parametrize("name", ("oddsphere",) + tuple(f"oddsphere.{m}" for m in MODULES))
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
