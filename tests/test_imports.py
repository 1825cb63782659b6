"""Every name a statebc module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "statebc"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads; a name
    listed in the module's __all__ counts as read (a re-export)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_flags_an_import_only_a_deleted_function_used():
    source = "from .infotheory import binary_entropy, entropy\n\ndef f(p):\n    return entropy(p)\n"
    assert unused_imports(source) == ["binary_entropy (line 1)"]
