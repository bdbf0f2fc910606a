"""The public surface: the package re-exports what its modules export."""

import importlib

import swipt_mac as sm

MODULES = (
    "models", "numerics", "region", "classical_simul", "classical_sic",
    "coop_mac", "oracle", "cli",
)


def test_every_package_export_is_exported_by_its_defining_module():
    missing = [
        name
        for name in sm.__all__
        if name != "__version__"
        and name not in importlib.import_module(getattr(sm, name).__module__).__all__
    ]
    assert missing == []


def test_every_module_export_exists():
    missing = [
        f"{short}.{name}"
        for short in MODULES
        for name in importlib.import_module(f"swipt_mac.{short}").__all__
        if not hasattr(importlib.import_module(f"swipt_mac.{short}"), name)
    ]
    missing += [name for name in sm.__all__ if not hasattr(sm, name)]
    assert missing == []
