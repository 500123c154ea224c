"""Golden CLI outputs: stdout and exit code of a fixed set of commands.

``golden_cli.json`` holds, for every command below, the exact stdout and exit
code recorded from ``zslen.cli.main``.  A change that is meant to keep
behaviour fixed must replay every entry byte for byte.  To record the file
again after an intended output change, run::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from zslen.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

_README = [
    ["atoms", "--group", "C10", "--support", "1,3,7,9"],
    ["lengths", "--group", "C10", "--sequence", "1^10,9^10"],
    ["min-delta", "--group", "C10", "--support", "1,9"],
    ["delta-rho", "--group", "C10"],
    ["cf-scan", "--lo", "8", "--hi", "3000"],
    ["fp", "--q", "2", "--gens", "1:3,0:5", "profile"],
    ["fp", "obstruction", "--d", "4,6"],
]

COMMANDS = (
    _README
    + [["--format", fmt] + argv for fmt in ("json", "tsv") for argv in _README]
    + [
        ["verify", "--list"],
        ["atoms", "--group", "C10", "--support", "1,3,7,9", "--format", "json"],
        ["--format", "tsv", "atoms", "--group", "C3xC3", "--support", "(1,0),(0,1),(2,2)"],
        ["delta-rho", "--group", "C2xC4"],
        ["cf-scan", "--lo", "8", "--hi", "3000", "--engine", "e1", "--shards", "4"],
        ["--budget-atoms", "3", "atoms", "--group", "C10", "--support", "1,2,3,4,5"],
        ["verify", "elem2", "locals", "char-separation", "realize"],
        ["cf-scan", "--lo", "99000", "--engine", "e1"],
        ["atoms", "--group", "C2xC4", "--support", "(0,1),(0,2),(0,3),(1,0),(1,1),(1,2),(1,3)"],
        ["--format", "tsv", "atoms", "--group", "C12", "--support", "1,5,7,11"],
        ["delta-rho", "--group", "C16"],
        ["--format", "json", "delta-rho", "--group", "C14"],
        ["min-delta", "--group", "C2xC2xC2", "--support", "(1,0,0),(0,1,0),(0,0,1),(1,1,1)"],
        ["fp", "--q", "3", "--gens", "1:4,2:7,0:9", "profile"],
        ["--format", "json", "fp", "--q", "1", "--gens", "0:2,0:4,0:3", "profile"],
        ["fp", "--q", "2", "--gens", "0:4,1:6,1:9", "profile"],
        ["--budget-atoms", "20", "verify", "cf-cross", "kernel-brute"],
        ["delta-rho", "--group", "C2xC2xC2xC4"],
        ["--format", "json", "delta-rho", "--group", "C2xC2xC2xC4"],
        ["delta-rho", "--group", "C2xC4xC4"],
        ["--format", "json", "delta-rho", "--group", "C2xC4xC4"],
        ["atoms", "--group", "C2xC4xC4", "--support", "(0,0,1),(0,1,3),(1,2,1),(1,3,2),(0,3,3)"],
        ["--format", "json", "atoms", "--group", "C2xC2xC2xC6", "--support", "(0,0,1,1),(0,1,0,5),(1,0,1,3),(1,1,1,4)"],
        ["--format", "tsv", "atoms", "--group", "C298", "--support", "1,9,289,297"],
        ["min-delta", "--group", "C3xC3xC6", "--support", "(0,1,1),(1,0,5),(2,2,3),(1,1,2),(0,2,4)"],
        ["delta-rho", "--group", "C26"],
        ["fp", "--q", "2", "--gens", "1:1000000000,0:1", "profile"],
        ["delta-rho", "--group", "C2xC2xC2xC2xC4"],
    ]
)


def run_command(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=lambda i: " ".join(COMMANDS[i]))
def test_golden_command(index, monkeypatch):
    monkeypatch.delenv("ZSLEN_BUDGET", raising=False)
    entry = _load()[index]
    assert entry["argv"] == COMMANDS[index]
    assert run_command(entry["argv"]) == (entry["exit"], entry["stdout"])


if __name__ == "__main__":
    os.environ.pop("ZSLEN_BUDGET", None)
    entries = []
    for argv in COMMANDS:
        code, stdout = run_command(argv)
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
