"""Byte-identical output: each canonical README invocation, run through
`qp3.cli.main` in this process, prints exactly the stdout whose sha256 is
recorded in bench/golden.json."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qp3 import cli

GOLDEN = json.loads((Path(__file__).resolve().parent.parent
                     / "bench" / "golden.json").read_text())["invocations"]


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_stdout_matches_golden_digest(entry):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(entry["argv"]))
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == entry["sha256"]
