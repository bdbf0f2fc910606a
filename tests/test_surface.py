"""The public surface: the package re-exports what its modules export."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
from dataclasses import fields

import swipt_mac as sm

from conftest import iv_classical

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


def test_the_package_exports_what_the_library_modules_export():
    library = [
        name
        for short in MODULES
        if short != "cli"
        for name in importlib.import_module(f"swipt_mac.{short}").__all__
    ]
    assert sorted(sm.__all__) == sorted(["__version__", *library])


def test_importing_the_package_leaves_the_cli_out():
    probe = "import sys, swipt_mac; print('swipt_mac.cli' in sys.modules)"
    src = str(pathlib.Path(sm.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


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


def test_the_point_layer_is_gone():
    """Curves and reports hold arrays and numbers only: the point predicates
    and the per-point metadata layer are gone, from the package and from
    the records."""
    gone = ("simul_feasible", "sic_feasible")
    left = [name for name in gone if hasattr(sm, name)]
    left += [
        f"{short}.{name}"
        for short in MODULES
        for name in gone
        if hasattr(importlib.import_module(f"swipt_mac.{short}"), name)
    ]
    curve = sm.frontier(([1.0, 0.0], [0.0, 1.0], [0.2, 0.4], {}), hull=True)
    for attr in ("metadata", "intercept", "interp_r1", "max_r1", "max_r2"):
        left += [f"BoundaryCurve.{attr}" for obj in (sm.BoundaryCurve, curve) if hasattr(obj, attr)]
    report = sm.sumrate_simultaneous(iv_classical(sm.ExpCost(1e-3)))
    if hasattr(report, "candidates") or "candidates" in {f.name for f in fields(sm.SolveReport)}:
        left.append("SolveReport.candidates")
    assert left == []


def test_rate_points_are_built_only_by_boundary_curve_points():
    """RatePoint is named in src/ only inside BoundaryCurve.points (besides
    its class and the imports), so it can go together with that view."""
    named = []
    for path in sorted(pathlib.Path(sm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "BoundaryCurve"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "points"
            for node in ast.walk(fn)
        }
        named += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (getattr(node, "id", None) == "RatePoint" or getattr(node, "attr", None) == "RatePoint")
            and id(node) not in allowed
        ]
        named += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and "RatePoint(" in str(node.value)]
    assert named == []
    assert "RatePoint" in inspect.getsource(sm.BoundaryCurve.points.func)


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


def test_each_classical_sweep_is_stated_once():
    """One SIC sum-rate enumerator serves every fee family, takes no scan
    option, and the two sweep labels are written once in src/, in the
    _SWEEPS table both classical schemes loop over."""
    assert not hasattr(importlib.import_module("swipt_mac.classical_sic"), "_sic_sumrate_const")
    assert list(inspect.signature(sm.sic_sumrate_numeric).parameters) == ["params"]
    where = {"user1-pinned": [], "user2-pinned": []}
    for path in sorted(pathlib.Path(sm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = {
            id(node)
            for stmt in tree.body
            if isinstance(stmt, ast.Assign)
            and [getattr(t, "id", None) for t in stmt.targets] == ["_SWEEPS"]
            for node in ast.walk(stmt)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in where:
                where[node.value].append((path.name, id(node) in table))
    assert where == {
        "user1-pinned": [("classical_simul.py", True)],
        "user2-pinned": [("classical_simul.py", True)],
    }
