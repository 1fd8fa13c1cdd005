"""Every name a module-level import binds in the package is used in that module, and
every public function of ``avfuse.autodiff``, ``avfuse.fusion`` and ``avfuse.temporal``
has a caller in another package module."""

import ast
from pathlib import Path

import pytest

import avfuse

MODULES = sorted(Path(avfuse.__file__).parent.glob("*.py"))


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
    if path.name == "__init__.py":
        used |= set(avfuse.__all__)
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
    # tests/reference_ops.py); the package's __init__ re-export is no caller.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    public = {node.name for node in trees[f"{module}.py"].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set().union(*(names_used_from(tree, module) for name, tree in trees.items()
                         if name not in (f"{module}.py", "__init__.py")))
    uncalled = sorted(public - used)
    assert not uncalled, f"{module} functions without a caller: {uncalled}"
