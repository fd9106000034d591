"""Every script in demos/ runs to completion against the current API and
prints exactly the stdout whose sha256 is pinned below.

The residuals that numeric_cross_check.py prints are floating-point
figures whose last digits may differ between numpy builds, so each one is
checked against a bound and masked before hashing; the other demos print
exact results only, and their stdout is hashed as it is."""

import hashlib
import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "line_scheme_walkthrough.py":
        "9798499d86c1dc0547dc61c42edaf2f8cfd80852a051d174d472a26874dba79f",
    "numeric_cross_check.py":
        "138b54dfb9444b8de21b1145f16489498cfc0a6d9f8790cde2e861badee1f7fa",
    "point_scheme_walkthrough.py":
        "291a88dcda021c5a29d54c5fa822761b4e93a2cb77df8ea27ec3aaa6ac0784d8",
    "reference_list_forensics.py":
        "0b45d827d1bdbff310986798278e2b13355ef5c8f0cecddce11983c2425dac30",
    "six_lines_walkthrough.py":
        "a6810368ead6e237fd24d538bc08dc6810d1e4a32334cdc0d1d1c25f1f3584b0",
}

RESIDUAL = re.compile(r"\d\.\d+e[-+]\d+")


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert all(float(r) < 1e-9 for r in RESIDUAL.findall(out))
    masked = RESIDUAL.sub("<residual>", out)
    assert hashlib.sha256(masked.encode()).hexdigest() == STDOUT_SHA256[path.name]
