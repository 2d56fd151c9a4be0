from __future__ import annotations

import argparse
import re
from pathlib import Path

import msplab
from msplab import cli
from msplab.lab import CampaignConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def test_every_public_name_resolves_and_is_documented():
    """Each name in ``msplab.__all__`` is importable from the package and
    named (in backticks) in the README's "Python API" section."""
    section = readme_section("Python API")
    assert len(set(msplab.__all__)) == len(msplab.__all__)
    missing = []
    for name in msplab.__all__:
        assert getattr(msplab, name, None) is not None, name
        if not re.search(r"`" + re.escape(name) + r"(?![\w])", section):
            missing.append(name)
    assert missing == []


def test_readme_command_block_lists_every_subcommand():
    """The subcommands in the README's "Command line" block are exactly the
    ones the parser registers."""
    block = readme_section("Command line").split("```")[1]
    documented = set(re.findall(r"(?:^|\| )msplab ([\w-]+)", block, re.MULTILINE))
    (subparsers,) = (
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert documented == set(subparsers.choices)


def test_readme_campaign_defaults_match_the_config():
    """The README's block of campaign-config defaults is exactly what
    ``CampaignConfig().to_text()`` writes."""
    section = readme_section("File formats")
    after = section.split("Campaign configs are `key = value` lines; defaults shown:", 1)[1]
    block = after.split("```")[1]
    assert block.lstrip("\n") == CampaignConfig().to_text()
