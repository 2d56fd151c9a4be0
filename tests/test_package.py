"""Checks over the package source as a whole."""

from __future__ import annotations

import ast
from pathlib import Path

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
