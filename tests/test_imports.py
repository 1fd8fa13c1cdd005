"""Every name a module-level import binds in the package is used in that module; every
public function of ``avfuse.autodiff``, ``avfuse.fusion`` and ``avfuse.temporal`` has a
caller in another package module; and every public function or method of the package
is referenced outside the tests."""

import ast
from pathlib import Path

import pytest

import avfuse

MODULES = sorted(Path(avfuse.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(avfuse.__file__).parents[2] / "perfbench").glob("*.py"))


def imported_names(tree: ast.Module):
    """(bound name, line) for each module-level import; ``__future__`` imports bind nothing."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"unused imports: {unused}"


def names_used_from(tree: ast.Module, module: str) -> set[str]:
    """Names a module takes from ``avfuse.<module>``: ``from`` imports and attributes of its alias."""
    used, aliases = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == f"avfuse.{module}":
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "avfuse":
            aliases |= {alias.asname or alias.name for alias in node.names if alias.name == module}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in aliases}
    return used


@pytest.mark.parametrize("module", ["autodiff", "fusion", "temporal"])
def test_public_functions_have_a_caller_in_the_package(module):
    # A function that only tests call belongs with them (an autodiff op in
    # tests/reference_ops.py).
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    public = {node.name for node in trees[f"{module}.py"].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set().union(*(names_used_from(tree, module) for name, tree in trees.items()
                         if name != f"{module}.py"))
    uncalled = sorted(public - used)
    assert not uncalled, f"{module} functions without a caller: {uncalled}"


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module mentions: bare names, attribute names and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.rpartition(".")[2] for alias in node.names}
    return names


def public_callables(tree: ast.Module):
    """(qualified name, name) of each public module-level function and each public
    method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_functions_and_methods_are_referenced_outside_the_tests(path):
    # Callers are the package modules and the benchmark scripts; the tests are not.
    assert PERFBENCH, "perfbench scripts not found next to the package"
    callers = MODULES + PERFBENCH
    used = set().union(*(referenced_names(ast.parse(p.read_text(encoding="utf-8"))) for p in callers))
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    uncalled = [qualified for qualified, name in public_callables(tree) if name not in used]
    assert not uncalled, f"{path.stem} names that only tests use: {uncalled}"
