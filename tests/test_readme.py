"""Every ``$ codecalc ...`` example in README.md prints what the README shows.

Each example runs through ``cli.main`` in a scratch directory and must exit 0
with the lines listed under it; ``time=`` values are masked, and a ``...``
line stands for the rest of the output (all of it when no line is listed).
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from codecalc import cli, verify

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(argv, expected lines) of each ``$ codecalc`` line in the sh blocks."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text("utf-8"), re.S):
        for line in block.splitlines():
            if line.startswith("$ codecalc "):
                examples.append((shlex.split(line)[2:], []))
            elif line.startswith("$ "):
                examples.append((None, []))  # not an example of the CLI
            elif examples:
                examples[-1][1].append(line)
    return [(argv, lines) for argv, lines in examples if argv is not None]


EXAMPLES = _examples()


def _masked(lines):
    return [re.sub(r"time=\S+", "time=", line) for line in lines]


def test_readme_has_the_examples():
    assert len(EXAMPLES) == 13


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(argv, expected, capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("CODECALC_FORMAT", raising=False)
    monkeypatch.chdir(tmp_path)
    # the corpus example's own file: a copy of the shipped corpus
    (tmp_path / "my_cases.jsonl").write_text("\n".join(verify.corpus_lines()) + "\n", "utf-8")
    assert cli.main(argv) == 0
    out = _masked(capsys.readouterr().out.splitlines())
    expected = _masked(expected) or ["..."]  # no lines shown: the output is not shown
    if "..." in expected:
        expected = expected[: expected.index("...")]
        out = out[: len(expected)]
    assert out == expected
