"""The README's command examples, run through the CLI and compared with the
output the README shows under them."""

import re
import shlex
from pathlib import Path

import pytest

from reflexive_lab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ reflexive-lab "


def _examples():
    """(command, expected stdout lines) for each prompt line of a text block."""
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```text\n(.*?)```", text, re.S):
        lines = block.splitlines()
        # The search example writes sweep.jsonl with 4 workers, and its
        # summary line is wrapped for reading, so it is not run.
        if lines[0].startswith(PROMPT + "search "):
            continue
        for line in lines:
            if line.startswith(PROMPT):
                examples.append((line[len(PROMPT):], []))
            else:
                examples[-1][1].append(line)
    return examples


EXAMPLES = _examples()


def test_every_example_but_the_search_summary_is_run():
    prompts = README.read_text(encoding="utf-8").count("\n" + PROMPT)
    assert len(EXAMPLES) == prompts - 1


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out.splitlines() == expected
