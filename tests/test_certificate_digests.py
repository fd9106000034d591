"""Byte-identical certificates: `line-scheme --verify`, as text and as JSON,
at eight values of gamma (the generic 1, 3/2+i, 2*i and 1/3, gamma^2 = 4
and gamma^2 = 16), prints exactly the stdout whose sha256 is recorded in
tests/line_verify_digests.json."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qp3 import cli

RUNS = json.loads((Path(__file__).resolve().parent
                   / "line_verify_digests.json").read_text())["runs"]


@pytest.mark.parametrize("run", RUNS, ids=[f"{r['gamma']}-{r['format']}" for r in RUNS])
def test_line_verify_stdout_matches_its_digest(run):
    argv = [f"--gamma={run['gamma']}", "line-scheme", "--verify", "--format", run["format"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == run["sha256"]


def test_every_gamma_is_pinned_in_both_formats():
    gammas = ["1", "3/2+i", "2", "-2", "4", "-4", "2*i", "1/3"]
    assert sorted((r["gamma"], r["format"]) for r in RUNS) == sorted(
        (g, f) for g in gammas for f in ("text", "json"))
