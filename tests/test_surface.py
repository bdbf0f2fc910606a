"""The public surface: the package re-exports what its modules export."""

import ast
import importlib
import pathlib

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


def test_no_module_reaches_into_the_region_core():
    """The solvers build curves through region's public names only."""
    reached = []
    for path in sorted(pathlib.Path(sm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("region"):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "region":
                names = [node.attr]
            else:
                continue
            reached += [f"{path.name}: {n}" for n in names if n.startswith("_")]
    assert reached == []


def test_each_model_family_states_its_formula_once():
    """A family writes its formula once, as _f, and its inverse as _g;
    eval, kernel, inverse and rate_cap are shared.  Each family still holds
    eval and inverse in its own namespace, where they can be wrapped one
    family at a time."""
    families = {
        sm.EhModel: (sm.LogisticEh, sm.LinearEh),
        sm.CostModel: (sm.ExpCost, sm.LogCost, sm.LinCost, sm.ConstCost),
    }
    for base, classes in families.items():
        for cls in classes:
            own = vars(cls)
            assert "_f" in own and "_g" in own, cls.__name__
            assert "kernel" not in own and "rate_cap" not in own, cls.__name__
            assert own["eval"] is base.eval, cls.__name__
            assert own["inverse"] is base.inverse, cls.__name__
