"""Every ```python block of README.md runs as written, and its CLI examples print what it shows."""

import re
import shlex
from pathlib import Path

import pytest

from deniable_fit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
# Examples whose output depends only on their arguments; craft and verify need files.
CLI_EXAMPLES = re.findall(r"^```\n\$ deniable-fit ((?:bound|experiment) .*?)\n(.*?)^```",
                          TEXT, flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_the_bound_and_experiment_examples():
    assert sorted(command.split()[0] for command, _ in CLI_EXAMPLES) == ["bound", "experiment"]


@pytest.mark.parametrize("command, shown", CLI_EXAMPLES, ids=[c.split()[0] for c, _ in CLI_EXAMPLES])
def test_readme_cli_example_prints_what_it_shows(command, shown, capsys):
    """stdout matches the block line by line; a line holding only ``...`` ends the comparison."""
    assert main(shlex.split(command)) == 0
    printed = capsys.readouterr().out.splitlines()
    expected = shown.splitlines()
    stripped = [line.strip() for line in expected]
    if "..." in stripped:
        expected = expected[:stripped.index("...")]
        printed = printed[:len(expected)]
    assert printed == expected
