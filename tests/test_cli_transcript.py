"""The command line's output against a checked-in transcript.

Each command in COMMANDS runs through ``regsum.cli.main`` in this process,
and its stdout, stderr and exit code must equal those recorded in
``cli_transcript.json``, byte for byte, so a change meant to keep the
output shows here where it does not.  When output is meant to change,
regenerate the transcript by hand and review its diff:

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import io
import json
import os
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from regsum.cli import ENV_TERMS, main

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")

# Written as a shell user types them (without the leading `regsum`).
COMMANDS = [
    # the README examples
    "sum --series alt --op shift:1 --poly x^2 --x 0",
    "sum --series alt --op shift:1 --poly 1 --x 0 -o json",
    "cesaro --series alt --k 1",
    "euler 10",
    # every --method literal, kept and refused
    "sum --series alt --poly x^2 --x 1/2 --method classical",
    "sum --series alt --poly x^2 --x 1/2 --method cesaro:3",
    "sum --series alt --poly x^2 --x 1/2 --method cesaro:13",
    "sum --series alt --poly x^2 --x 1/2 --method bogus",
    "sum --series alt --poly x^2 --x 1/2 --method abel",
    "sum --series alt --poly x^2 --x 1/2 --method exact",
    "sum --series alt --poly x^2 --x 1/2 --method cesaro:",
    # the engine commands
    "cesaro --series alt --k 13",
    "cesaro --series alt --k x",
    "cesaro --series alt --k auto",
    "cesaro --series alt -o json",
    "cesaro --series geom:-2",
    "abel --series alt -N 20",
    "abel --series geom:5",
    "abel --series altlog -o json",
    "euler 12 -o json",
    "symbol shift:1/2",
    "check operator-ring",
    "check bogus",
    # translation symbols h^n/n! and their differences, at small and deep orders
    *(f"symbol {op} --order {order}"
      for op in ("shift:1/2", "shift:-3/2", "delta:1", "delta:97/89")
      for order in (0, 1, 16, 40)),
    "symbol delta:1/2 --order 16 -o json",
    "symbol shift:97/89 --order 40 -o json",
    # sums through each operator form, where the polynomial is translated
    "sum --series alt --op shift:-3/2 --poly 'x^3 - 2*x + 1/3' --x 1/2",
    "sum --series altlog --op delta:1/2 --poly 'x^4 + x' --x -1 -o json",
    "sum --series geom:-2 --op diff --poly 'x^5 - x^2' --x 2",
    "sum --series alt --op symbol:[1,1/2,1/3] --poly x^3 --x 1",
    "sum --series alt --h 1/2 --poly x^2",
    "sum --series geom:1/3 --op delta:97/89 --poly 'x^20 - 3*x^2 + 1/2' --x 1/3",
    # sums on a shift read from a difference table, and symbols that are not shifts
    "sum --series alt --h=-3/2 --poly 'x^60 - 3*x^2 + 1/2' --x 1/3",
    "sum --series altlog --poly x^40 --x 1/2 -o json",
    "sum --series geom:1/3 --op symbol:[2,2,1] --poly 'x^2 + x' --x 1",
    "sum --series geom:1/3 --op symbol:[2,2,2] --poly 'x^2 + x' --x 1",
    "sum --series alt --op identity --poly 'x^3 - x' --x 2",
    # an all-exact sum whose float underflows keeps its sign: -0, not 0
    f"sum --series alt --poly=-1/1{'0' * 400}",
    f"sum --series alt --poly=-1/1{'0' * 400} -o json",
    # the zigzag table at its edges and past 2^64
    "euler 0",
    "euler 1",
    "euler 41",
    "euler 41 -o json",
]


def run_command(command: str) -> dict:
    """One command's exit code, stdout and stderr, as main gives them."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(shlex.split(command))
    return {"command": command, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def regenerate() -> None:
    """Rewrite the transcript from the current tree's output."""
    os.environ.pop(ENV_TERMS, None)
    records = [run_command(command) for command in COMMANDS]
    TRANSCRIPT.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")


def _recorded() -> dict:
    return {r["command"]: r for r in json.loads(TRANSCRIPT.read_text())}


def test_transcript_lists_every_command_once():
    assert list(_recorded()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_the_transcript(command, monkeypatch):
    monkeypatch.delenv(ENV_TERMS, raising=False)
    assert run_command(command) == _recorded()[command]


if __name__ == "__main__":
    regenerate()
