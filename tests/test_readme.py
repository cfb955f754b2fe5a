"""The README's python examples run against the current API, and its
command sections name exactly the flags each subcommand takes."""

import argparse
import re
from pathlib import Path

import pytest

from btp.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def _command_sections():
    """Each ``### `btp <cmd>` `` section's command and text, up to the next heading."""
    parts = re.split(r"^(#{2,3} .*)$", README.read_text(), flags=re.M)
    for heading, body in zip(parts[1::2], parts[2::2]):
        match = re.match(r"### `btp (\w+)`", heading)
        if match:
            yield match.group(1), body


def _subparser_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {flag for action in parser._actions for flag in action.option_strings
                  if flag.startswith("--") and flag != "--help"}
        for command, parser in sub.choices.items()
    }


def test_readme_names_exactly_each_commands_flags():
    flags = _subparser_flags()
    sections = dict(_command_sections())
    assert sorted(sections) == sorted(flags)
    for command, body in sections.items():
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", body))
        assert named - flags[command] == set(), f"{command}: documented but not accepted"
        assert flags[command] - named == set(), f"{command}: accepted but not documented"
