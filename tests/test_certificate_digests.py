"""Byte-identical certificates: `line-scheme --verify`, as text and as JSON,
at eight values of gamma (the generic 1, 3/2+i, 2*i and 1/3, gamma^2 = 4
and gamma^2 = 16), prints exactly the stdout whose sha256 is recorded in
tests/line_verify_digests.json; `point-scheme`, `line-scheme`,
`lines-through --symbolic` and `lines-through --point e1` .. `e4` at the
same gamma print the stdout and exit with the code recorded in
tests/command_digests.json."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qp3 import cli

HERE = Path(__file__).resolve().parent
RUNS = json.loads((HERE / "line_verify_digests.json").read_text())["runs"]
COMMAND_RUNS = json.loads((HERE / "command_digests.json").read_text())["runs"]
GAMMAS = ["1", "3/2+i", "2", "-2", "4", "-4", "2*i", "1/3"]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("run", RUNS, ids=[f"{r['gamma']}-{r['format']}" for r in RUNS])
def test_line_verify_stdout_matches_its_digest(run):
    argv = [f"--gamma={run['gamma']}", "line-scheme", "--verify", "--format", run["format"]]
    assert _run(argv) == (0, run["sha256"])


def test_every_gamma_is_pinned_in_both_formats():
    assert sorted((r["gamma"], r["format"]) for r in RUNS) == sorted(
        (g, f) for g in GAMMAS for f in ("text", "json"))


@pytest.mark.parametrize("run", COMMAND_RUNS, ids=[
    f"{r['command']}-{r['gamma']}-{r['format']}" for r in COMMAND_RUNS])
def test_command_stdout_and_exit_code_match_their_pin(run):
    argv = [f"--gamma={run['gamma']}", *run["command"].split(), "--format", run["format"]]
    assert _run(argv) == (run["exit"], run["sha256"])


def test_every_command_is_pinned_at_every_gamma_in_both_formats():
    commands = ["point-scheme", "line-scheme", "lines-through --symbolic",
                *(f"lines-through --point e{k}" for k in range(1, 5))]
    assert sorted((r["command"], r["gamma"], r["format"]) for r in COMMAND_RUNS) == sorted(
        (c, g, f) for c in commands for g in GAMMAS for f in ("text", "json"))
    # the gamma = -4 defect stays visible: it is pinned as a failure
    assert {(r["command"], r["gamma"]) for r in COMMAND_RUNS if r["exit"]} == {
        ("lines-through --symbolic", "-4")}
