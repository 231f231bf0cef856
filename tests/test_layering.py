"""The import layering of the package, read from its source with ``ast``."""

import ast
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liechain"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imported(tree: ast.AST) -> set[str]:
    """The package modules a module imports, at module level or inside a
    function, by relative or absolute name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (["liechain"] if node.level else []) + (node.module or "").split(".")
            # "from . import x" and "from liechain import x" name a module in
            # the alias; "from .x import y" in the base
            paths = [[part for part in base if part] + [alias.name] for alias in node.names]
        else:
            continue
        out.update(path[1] for path in paths
                   if path[0] == "liechain" and len(path) > 1 and path[1] in MODULES)
    return out


def _graph() -> dict[str, set[str]]:
    return {path.stem: _imported(ast.parse(path.read_text())) for path in PACKAGE.glob("*.py")}


def _below(graph: dict[str, set[str]], module: str) -> set[str]:
    """Every module ``module`` imports, directly or through others."""
    seen: set[str] = set()
    todo = [module]
    while todo:
        for m in graph[todo.pop()] - seen:
            seen.add(m)
            todo.append(m)
    return seen


def test_scan_sees_function_level_imports():
    graph = _graph()
    assert "suites" in graph["cli"]  # imported inside _cmd_check_theorems
    assert graph["oracle"] == {"errors", "groups", "subgroups"}


def test_import_graph_is_acyclic():
    # static_order raises CycleError on a cycle
    order = list(TopologicalSorter(_graph()).static_order())
    assert set(order) == MODULES


def test_lower_layers_import_no_upper_layer():
    graph = _graph()
    for module in ("groups", "subgroups", "oracle"):
        assert not _below(graph, module) & {"formulas", "chains", "suites", "cli"}, module


def test_only_the_suites_reach_the_radicals():
    # the query layers compile no radical arithmetic, at any import level
    graph = _graph()
    for module in ("groups", "subgroups", "oracle", "formulas", "chains"):
        assert not _below(graph, module) & {"radicals", "suites"}, module


# definitions no module of the package reads, each read by a test that keeps
# it as a reference: the qualified name and that test
TEST_ONLY = {
    "QuadExpr.ceil": "tests/test_formulas.py::"
                     "test_integer_thresholds_match_the_exact_ceiling_and_floor",
}


def _defined(tree: ast.AST, prefix: str = "") -> list[str]:
    """The qualified names of the functions, classes and methods defined in
    ``tree``, nested ones included, dunders left out."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not (node.name.startswith("__") and node.name.endswith("__")):
                out.append(name)
            out.extend(_defined(node, name + "."))
        else:
            out.extend(_defined(node, prefix))
    return out


def _read(tree: ast.AST, module: str) -> set[str]:
    """The names a module reads: as a name, an attribute or an import, and
    in ``__init__`` as a string too (the names it re-exports lazily)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif module == "__init__" and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_definition_has_a_reader():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    read = set().union(*(_read(tree, module) for module, tree in trees.items()))
    unread = {f"{module}.{name}" for module, tree in trees.items() for name in _defined(tree)
              if name.rsplit(".", 1)[-1] not in read and name not in TEST_ONLY}
    assert not unread, sorted(unread)
    # each test-only reference is still defined, and still unread in the package
    defined = {name for tree in trees.values() for name in _defined(tree)}
    assert all(name in defined and name.rsplit(".", 1)[-1] not in read for name in TEST_ONLY)


# the source lines of the modules ``import liechain, liechain.cli`` loads:
# each cold process compiles them when no bytecode is kept, as in the
# benchmark's workers, at about 7 us a line, so every query pays for them.
# A change that adds lines raises this count knowingly.
QUERY_PATH_LINES = 2029


def test_the_query_path_stays_within_its_line_budget():
    code = ("import sys, liechain, liechain.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'liechain'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    stems = [name.partition(".")[2] or "__init__" for name in proc.stdout.split()]
    assert {"__init__", "cli", "groups"} <= set(stems) and "suites" not in stems
    lines = sum(len((PACKAGE / f"{stem}.py").read_text().splitlines()) for stem in stems)
    assert lines <= QUERY_PATH_LINES, (lines, sorted(stems))
