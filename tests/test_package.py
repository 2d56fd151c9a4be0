"""Checks over the package source as a whole."""

from __future__ import annotations

import ast
import importlib
import json
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


FAILING_HYPOTHESIS_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_reports_its_falsifying_example(pytester):
    """Under ``pyproject.toml``'s warning filters a failing ``@given`` test
    fails like any other: pytest prints its falsifying example and runs the
    tests after it, with no ``INTERNALERROR`` from hypothesis's report hook.
    The filters turn every warning into an error but the one message that
    hook raises, and no other."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    ini = tomllib.loads(pyproject.read_text(encoding="utf-8"))["tool"]["pytest"]["ini_options"]
    filters = ini["filterwarnings"]
    assert filters == [
        "error",
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning",
    ]
    body = "\n".join(f"    {json.dumps(item)}," for item in filters)
    pytester.makepyprojecttoml(f"[tool.pytest.ini_options]\nfilterwarnings = [\n{body}\n]\n")
    pytester.makepyfile(FAILING_HYPOTHESIS_TEST)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", timeout=300)
    out = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    result.assert_outcomes(failed=1, passed=1)
