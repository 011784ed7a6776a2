"""Every name a robustpl module exports in ``__all__`` exists."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["descent", "zf", "quadform", "bench"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"robustpl.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
