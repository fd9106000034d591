import json

import pytest

from qp3.cli import (EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, EXIT_VERIFICATION,
                     main, parse_gamma, UsageError)
from qp3.gaussian import gr


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_gamma_forms():
    assert parse_gamma("4") == gr(4)
    assert parse_gamma("-1") == gr(-1)
    assert parse_gamma("1/2 + 3/2*i") == gr(0.5, 1.5) or True
    from fractions import Fraction

    assert parse_gamma("1/2 + 3/2*i") == gr(Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(UsageError):
        parse_gamma("0")
    with pytest.raises(UsageError):
        parse_gamma("x1")


def test_point_scheme_gamma_one(capsys):
    code, out, _ = run_cli(["--gamma", "1", "point-scheme"], capsys)
    assert code == EXIT_OK
    assert "distinct points: 20" in out


def test_point_scheme_gamma_two(capsys):
    code, out, _ = run_cli(["--gamma", "2", "point-scheme"], capsys)
    assert code == EXIT_OK
    assert "distinct points: 12" in out


def test_zero_gamma_usage_error(capsys):
    code, _, err = run_cli(["--gamma", "0", "point-scheme"], capsys)
    assert code == EXIT_USAGE
    assert "gamma" in err


def test_missing_gamma_usage_error(capsys):
    code, _, _ = run_cli(["point-scheme"], capsys)
    assert code == EXIT_USAGE


def test_line_scheme_verify(capsys):
    code, out, _ = run_cli(["--gamma", "1", "line-scheme", "--verify"], capsys)
    assert code == EXIT_OK
    assert "verified: True" in out


def test_line_scheme_json_schema(capsys):
    code, out, _ = run_cli(
        ["--gamma", "1", "line-scheme", "--verify", "--format", "json"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["polynomials"]) == 46
    assert len(doc["components"]) == 7
    assert doc["decomposition"]["hilbert_dimension_degree"] == [1, 20]
    assert doc["decomposition"]["verified"] is True


def test_line_scheme_gamma4_components(capsys):
    code, out, _ = run_cli(
        ["--gamma", "4", "line-scheme", "--verify", "--format", "json"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["components"]) == 8


def test_lines_through_symbolic(capsys):
    code, out, _ = run_cli(
        ["--gamma", "1", "lines-through", "--symbolic"], capsys)
    assert code == EXIT_OK
    assert "lines per point: 6" in out


def test_lines_through_basis_point(capsys):
    code, out, _ = run_cli(
        ["--gamma", "1", "lines-through", "--point", "e2", "--format", "json"],
        capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["total"] == "infinite"
    assert doc["infinite"] is True


def test_lines_through_numeric(capsys):
    code, out, _ = run_cli(
        ["--gamma", "1", "lines-through", "--numeric", "--format", "json"],
        capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["points"]) == 16
    assert all(len(r["lines"]) == 6 for r in doc["points"])


def test_resource_limit_exit(capsys):
    code, _, err = run_cli(
        ["--gamma", "5", "point-scheme", "--max-pairs", "1"], capsys)
    assert code == EXIT_RESOURCE
    assert "resource limit" in err


def test_verification_failure_exit(monkeypatch, capsys):
    # force a failing decomposition report to exercise the exit path
    import qp3.line_scheme as ls

    real = ls.verify_decomposition

    def broken(L, C):
        rep = real(L, C)
        rep.degrees_sum = 0
        return rep

    monkeypatch.setattr(ls, "verify_decomposition", broken)
    code, _, _ = run_cli(["--gamma", "1", "line-scheme", "--verify"], capsys)
    assert code == EXIT_VERIFICATION


def test_text_output_deterministic(capsys):
    _, out1, _ = run_cli(["--gamma", "1", "line-scheme"], capsys)
    _, out2, _ = run_cli(["--gamma", "1", "line-scheme"], capsys)
    assert out1 == out2
    _, j1, _ = run_cli(["--gamma", "4", "point-scheme", "--format", "json"], capsys)
    _, j2, _ = run_cli(["--gamma", "4", "point-scheme", "--format", "json"], capsys)
    assert j1 == j2


def test_env_var_limits(monkeypatch, capsys):
    monkeypatch.setenv("QP3_MAX_PAIRS", "1")
    code, _, _ = run_cli(["--gamma", "5", "point-scheme"], capsys)
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize("argv,env", [
    (["--max-pairs=0"], {}),
    (["--max-basis=-3"], {}),
    (["--max-degree", "0"], {}),
    ([], {"QP3_MAX_PAIRS": "-1"}),
    ([], {"QP3_MAX_BASIS": "0"}),
    ([], {"QP3_MAX_DEGREE": "-1"}),
])
def test_limit_below_one_usage_error(argv, env, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(
        ["--gamma", "1", "lines-through", "--numeric", *argv], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("qp3: ") and "at least 1" in err


@pytest.mark.parametrize("gamma", ["-1/2", "-i", "-3/2+i"])
def test_negative_gamma_as_separate_argument(gamma, capsys):
    code, out, _ = run_cli(["--gamma", gamma, "point-scheme"], capsys)
    assert code == EXIT_OK
    _, joined, _ = run_cli([f"--gamma={gamma}", "point-scheme"], capsys)
    assert out == joined


def test_global_flags_after_subcommand(capsys):
    code, out, _ = run_cli(["--gamma", "1", "point-scheme", "--format", "json"],
                           capsys)
    assert code == EXIT_OK
    assert json.loads(out)["schema"] == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-8"])
def test_bad_tolerance_usage_error(tol, capsys):
    code, out, err = run_cli(
        ["--gamma", "1", "lines-through", "--numeric", f"--tolerance={tol}"],
        capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("qp3: ") and "tolerance" in err


def test_unreachable_tolerance_is_a_verification_failure(capsys):
    code, out, err = run_cli(
        ["--gamma", "1", "lines-through", "--numeric", "--tolerance", "1e-30"],
        capsys)
    assert code == EXIT_VERIFICATION
    assert out == ""
    assert err.startswith("qp3: ")


def test_gamma_division_by_zero_usage_error(capsys):
    code, _, err = run_cli(["--gamma", "1/0", "point-scheme"], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("qp3: ") and "gamma" in err


def test_unknown_basis_point_usage_error(capsys):
    code, out, err = run_cli(["--gamma", "1", "lines-through", "--point", "e5"],
                             capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("qp3: ") and "e5" in err
