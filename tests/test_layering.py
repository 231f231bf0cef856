"""The import layering of the package, read from its source with ``ast``."""

import ast
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
    assert "radicals" in graph["formulas"]  # imported inside _bind_radicals
    assert graph["oracle"] == {"errors", "groups", "subgroups"}


def test_import_graph_is_acyclic():
    # static_order raises CycleError on a cycle
    order = list(TopologicalSorter(_graph()).static_order())
    assert set(order) == MODULES


def test_lower_layers_import_no_upper_layer():
    graph = _graph()
    for module in ("groups", "subgroups", "oracle"):
        assert not _below(graph, module) & {"formulas", "chains", "suites", "cli"}, module
