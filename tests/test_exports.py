"""Every name a module promises in __all__ exists."""

import importlib

import pytest

MODULES = (
    "analog_frontend",
    "cli",
    "engine",
    "errors",
    "power_mgmt",
    "quantities",
    "rf_environment",
    "scenario",
    "storage",
)


@pytest.mark.parametrize("module", tuple(f"rfharvest.{m}" for m in MODULES))
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == []
