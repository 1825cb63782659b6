"""The benchmark tracer's targets exist: every function perfbench/layertrace.py
wraps, and every public name the package exports, resolves."""

from __future__ import annotations

import importlib
from pathlib import Path

import statebc
import statebc.cli  # noqa: F401  (imports every module the tracer patches)

_LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    """The tracer module's globals, executed from its source without
    importing it, so no bytecode is written next to it."""
    namespace = {"__name__": "layertrace"}
    exec(compile(_LAYERTRACE.read_text(encoding="utf-8"), str(_LAYERTRACE), "exec"), namespace)
    return namespace


def test_every_traced_target_is_callable():
    tracer = _layertrace()
    targets = [(mod, name) for mod, name, _ in tracer["TRACED"]] + [tracer["LATTICE"][:2]]
    missing = [f"{mod}.{name}" for mod, name in targets if not callable(getattr(importlib.import_module(mod), name, None))]
    assert not missing


def test_every_export_resolves():
    assert [name for name in statebc.__all__ if not hasattr(statebc, name)] == []
