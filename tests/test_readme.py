"""Every ```python block of README.md runs as written, and its CLI examples print what it shows."""

import re
import shlex
from pathlib import Path

import pytest

from deniable_fit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
# Examples whose output depends only on their arguments.
CLI_EXAMPLES = re.findall(r"^```\n\$ deniable-fit ((?:bound|experiment) .*?)\n(.*?)^```",
                          TEXT, flags=re.M | re.S)
# Examples that read the files the quickstart (the first python block) writes.
FILE_EXAMPLES = re.findall(r"^```\n\$ deniable-fit ((?:craft|verify) .*?)\n(.*?)^```",
                           TEXT, flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_the_bound_and_experiment_examples():
    assert sorted(command.split()[0] for command, _ in CLI_EXAMPLES) == ["bound", "experiment"]


def test_readme_has_the_craft_and_verify_examples():
    assert [command.split()[0] for command, _ in FILE_EXAMPLES] == ["craft", "verify"]


@pytest.mark.parametrize("command, shown", CLI_EXAMPLES, ids=[c.split()[0] for c, _ in CLI_EXAMPLES])
def test_readme_cli_example_prints_what_it_shows(command, shown, capsys):
    assert_prints_what_it_shows(command, shown, capsys)


def test_readme_craft_and_verify_examples_print_what_they_show(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[0], "README.md python block 0", "exec"), {})
    capsys.readouterr()
    for command, shown in FILE_EXAMPLES:
        assert_prints_what_it_shows(command, shown, capsys)


def assert_prints_what_it_shows(command, shown, capsys):
    """stdout matches the block line by line; a line holding only ``...`` ends the comparison."""
    assert main(shlex.split(command)) == 0
    printed = capsys.readouterr().out.splitlines()
    expected = shown.splitlines()
    stripped = [line.strip() for line in expected]
    if "..." in stripped:
        expected = expected[:stripped.index("...")]
        printed = printed[:len(expected)]
    assert printed == expected


def test_readme_layout_names_every_module():
    layout = re.search(r"^## Layout\n+```\n(.*?)^```", TEXT, flags=re.M | re.S).group(1)
    named = re.findall(r"^  (\w+\.py) ", layout, flags=re.M)
    modules = [path.name for path in (README.parent / "src" / "deniable_fit").glob("*.py")]
    assert sorted(named) == sorted(set(modules) - {"__init__.py"})
