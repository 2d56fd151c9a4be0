from __future__ import annotations

import re
from pathlib import Path

import msplab

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Python API\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def test_every_public_name_resolves_and_is_documented():
    """Each name in ``msplab.__all__`` is importable from the package and
    named (in backticks) in the README's "Python API" section."""
    section = python_api_section()
    assert len(set(msplab.__all__)) == len(msplab.__all__)
    missing = []
    for name in msplab.__all__:
        assert getattr(msplab, name, None) is not None, name
        if not re.search(r"`" + re.escape(name) + r"(?![\w])", section):
            missing.append(name)
    assert missing == []
