"""The package's public surface."""

import importlib

import pytest

_MODULES = ("cli", "engine", "errors", "flow", "hypotheses", "models", "sequences", "spectral")


@pytest.mark.parametrize("module", ("trapcheck",) + tuple(f"trapcheck.{m}" for m in _MODULES))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
