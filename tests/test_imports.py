"""Every name a module-level import binds in the package is used in that module."""

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
