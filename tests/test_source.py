"""The package source: no unused import, no error class that nothing raises."""

import ast
import pathlib

import pytest

import isocrpc

SRC = pathlib.Path(isocrpc.__file__).parent
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("name", [n for n in TREES if n != "__init__.py"])  # it re-exports
def test_every_module_level_import_is_used(name):
    tree = TREES[name]
    imported = {alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"{name} imports {sorted(imported - used)} and never uses it"


def test_every_error_class_is_raised_or_a_raised_one_derives_from_it():
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in TREES["errors.py"].body if isinstance(node, ast.ClassDef)}
    raised = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    # a class counts when it is raised or is an ancestor of one that is
    reached = set(raised)
    while True:
        more = set().union(*(bases.get(c, set()) for c in reached)) - reached
        if not more:
            break
        reached |= more
    unraised = sorted(c for c in bases if c != "GeometryError" and c not in reached)
    assert not unraised, f"errors.py defines {unraised} and src/ never raises them"


@pytest.mark.parametrize("name", [n for n in TREES if n != "cli.py"])  # argv form errors
def test_the_library_refuses_input_with_a_typed_error(name):
    # a refused value raises InvalidParams (a GeometryError), not ValueError
    lines = []
    for node in ast.walk(TREES[name]):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                lines.append(node.lineno)
    assert not lines, f"{name} raises ValueError at lines {lines}"


def test_no_power_in_the_charts_has_the_bare_parameter_as_its_base():
    """A chart writes u^m as np.power(U, m), never U ** m.

    point_jet runs one point on numpy scalars, and np.float64 ** m calls
    libm's pow, while on evaluate's 0-d or (N,) arrays it runs numpy's power
    loop, or its fast paths for m = 2, 0.5 and -1. With numpy 2.4 and x uniform on
    [0.05, 3], the two differ in 1,059-1,114 of 20,000 x at m = 3, -0.5,
    -2 and 1.5, and in 17-19 at m = 2, 0.5 and -1;
    np.power(np.float64(x), m) differs from the array in none. U ** m in a chart would give a trace stage other
    bits than the recorded traces, which came from 0-d arrays.
    """
    lines = [node.lineno for node in ast.walk(TREES["families.py"])
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
             and isinstance(node.left, ast.Name) and node.left.id in ("U", "V")]
    assert not lines, f"families.py raises U or V to a power with ** at lines {lines}"


def test_the_library_leaves_the_warning_filters_alone():
    """No module changes the process's warning filters, which belong to the
    caller: warnings.catch_warnings swaps them for the whole process, not
    for one thread, and simplefilter or filterwarnings changes them."""
    names = {"catch_warnings", "simplefilter", "filterwarnings"}
    found = [f"{name}:{node.lineno}" for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (node.func.attr if isinstance(node.func, ast.Attribute)
                  else getattr(node.func, "id", None)) in names]
    assert not found, f"warning filters changed at {found}"


def test_the_ode_column_takes_nothing_of_the_curvature_pipeline():
    """residuals reads its equations off the charts: of geometry it takes
    the ratio's target and the principal-ratio residual, and no Monge
    conversion, curvature function or ratio law; nor does it ask a family's
    ratio kind, which only the ratio law needs."""
    imported = {(node.module, alias.name) for node in TREES["residuals.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for module, name in imported if module == "geometry"} == {
        "crpc_target", "principal_ratio_residual"}
    assert ("families", "ratio_kind") not in imported
