import importlib

import pytest

_MODULES = ["gf2", "qsim", "info", "ext", "ecc", "mc", "moe", "proto", "cli"]


@pytest.mark.parametrize("name", ["cosetmoe", *(f"cosetmoe.{m}" for m in _MODULES)])
def test_every_exported_name_resolves(name):
    # perfbench's span tracer reads every name in __all__ with getattr
    mod = importlib.import_module(name)
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []
