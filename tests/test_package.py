"""Checks over the package source as a whole."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import msplab

PACKAGE = Path(msplab.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    """``python -O`` strips ``assert``, so an invariant the package relies on
    must raise explicitly (``AbnormalTerminationError`` in the solver)."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_console_scripts_resolve_to_callables():
    """The tests run from the source tree, so nothing else checks that each
    ``[project.scripts]`` target in ``pyproject.toml`` names a callable."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"msplab": "msplab.cli:main"}
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
