import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qp3 import cli, gaussian
from qp3.cli import (EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, EXIT_VERIFICATION,
                     main, parse_gamma, UsageError)
from qp3.gaussian import gr
from qp3.groebner import DEFAULT_LIMITS, GroebnerLimits, current_limits, limits_scope
from qp3.point_scheme import E1, E2, sigma
from qp3.quadratic_algebra import make_A


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_python(args):
    """Run a fresh interpreter that imports qp3 from this checkout's src."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _run_qp3(argv):
    return _run_python(["-m", "qp3", *argv])


def test_parse_gamma_forms():
    assert parse_gamma("4") == gr(4)
    assert parse_gamma("-1") == gr(-1)
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


@pytest.mark.parametrize("argv", [["--gamma=--"], ["--gamma", "--"]])
def test_gamma_double_dash_usage_error(argv, capsys):
    # argparse drops a `--` value, so the option arrives without a string
    code, out, err = run_cli([*argv, "point-scheme"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "qp3: --gamma needs a value, such as 4 or 1/2+3/2*i\n"


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
    # at 2^30 and 2^35 the small root of rho2 keeps its digits only
    # because it is Newton-polished, not read off the quadratic formula;
    # from 2^40 on two lines are closer than 1e-6 and the separation
    # threshold shrinks with |gamma|^(-1/2); from 2^51 on the gap is under
    # 1e-8, which proj_distance resolves only because it takes no
    # difference of nearly equal numbers.  Below about 2^-21 the points
    # with x4^4 near 4 fail the minor residual test, since both the
    # discriminant of rho2 and x2 cancel there, and are recomputed from
    # closed forms that do not.  At +-2^-10*i and +-2^-23*i the quadratic
    # formula's points pass the tolerance but their lines do not, so the
    # closed forms are tried whenever a residual exceeds RECOMPUTE_ABOVE
    for gamma in ("1", "2^30", "2^35", "2^40", "-2^40", "2^45",
                  "2^51", "-2^79", "2^79*i", "1/2^22", "-1/2^25*i", "1/2^38",
                  "1/2^10*i", "-1/2^10*i", "1/2^23*i", "-1/2^23*i"):
        code, out, err = run_cli(
            ["--gamma", gamma, "lines-through", "--numeric", "--format", "json"],
            capsys)
        assert code == EXIT_OK, err
        doc = json.loads(out)
        assert len(doc["points"]) == 16
        assert all(len(r["lines"]) == 6 for r in doc["points"])


def test_lines_through_numeric_refuses_under_separation_floor(capsys):
    # at 2^80 the least true gap, 2^-40, is under LINE_DISTINCT_FLOOR
    code, out, err = run_cli(["--gamma=2^80", "lines-through", "--numeric"],
                             capsys)
    assert code == EXIT_VERIFICATION
    assert "coincide numerically" in err


def test_lines_through_numeric_refuses_a_point_near_a_hyperplane():
    # at 2^-40 the smallest coordinate, |x4| ~ (|gamma|/2)^(1/2), is under 1e-6
    proc = _run_qp3(["--gamma=1/2^40", "lines-through", "--numeric"])
    assert proc.returncode == EXIT_VERIFICATION
    assert proc.stdout == ""
    assert proc.stderr.startswith("qp3: numeric verification failed: "
                                  "point too close to a coordinate hyperplane")
    assert "Traceback" not in proc.stderr


def test_resource_limit_exit(capsys):
    code, _, err = run_cli(
        ["--gamma", "5", "point-scheme", "--max-pairs", "1"], capsys)
    assert code == EXIT_RESOURCE
    assert "resource limit" in err


def test_exponent_overflow_exits_as_a_resource_limit(monkeypatch, capsys,
                                                    fresh_caches):
    # an exponent past the packed fields is a resource limit: exit 3 with
    # the one message of that exit, no traceback
    import qp3.point_scheme as ps
    from qp3.multipoly import ExponentOverflowError

    def overflow(*_):
        raise ExponentOverflowError("exponent 40000 exceeds 32767")

    monkeypatch.setattr(ps, "count_points", overflow)
    code, out, err = run_cli(["--gamma", "5", "point-scheme"], capsys)
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == "qp3: resource limit: exponent 40000 exceeds 32767\n"


def test_engine_exponents_stay_far_below_the_packed_width(monkeypatch, capsys,
                                                         fresh_caches):
    # the fields are fixed at 15 bits, and every list the Groebner engine
    # reduces against passes `_Packing.check`, which allows exponents up
    # to 2^14 - 1; the paper's computations stay far below that
    from qp3 import multipoly

    largest = 0
    check = multipoly._Packing.check

    def recorded(pk, p):
        nonlocal largest
        for _, m, _ in p:
            largest = max(largest, *pk.unpack(m))
        return check(pk, p)

    monkeypatch.setattr(multipoly._Packing, "check", recorded)
    for gamma in ("1", "4", "3/2+i"):
        for command in (["point-scheme"], ["line-scheme", "--verify"],
                        ["lines-through", "--symbolic"]):
            assert run_cli([f"--gamma={gamma}", *command], capsys)[0] == EXIT_OK
    assert 0 < largest < 64


def test_verification_failure_exit(monkeypatch, capsys, fresh_caches):
    # force a failing decomposition report to exercise the exit path; with
    # warm memos an earlier gamma = 1 answer would be read back instead
    import qp3.line_scheme as ls

    real = ls.verify_decomposition

    def broken(gamma):
        # reports are frozen: build a changed copy, never assign
        return real(gamma)._replace(degrees_sum=0)

    monkeypatch.setattr(ls, "verify_decomposition", broken)
    argv = ["--gamma", "1", "line-scheme", "--verify"]
    first = run_cli(argv, capsys)
    assert first[0] == EXIT_VERIFICATION
    assert "verified: False" in first[1]
    # the failed answer is memoized like a success: same stdout, exit 2
    hits = cli.answer.cache_info().hits
    assert run_cli(argv, capsys) == first
    assert cli.answer.cache_info().hits == hits + 1


SESSION = (["point-scheme"], ["line-scheme", "--verify"],
           ["lines-through", "--symbolic"],
           *(["lines-through", "--point", p] for p in ("e1", "e2", "e3", "e4")),
           ["lines-through", "--numeric"])


def test_session_revisit_reads_the_answer_memo(capsys):
    # a second visit at the same gamma reprints the answer from the answer
    # memo: one hit there, and no memo of the Groebner layer is asked again
    from qp3 import groebner, line_scheme

    below = (groebner.buchberger, groebner.is_unit_mod, line_scheme.curve_invariants)
    for command in SESSION:
        argv = ["--gamma=3/2+i", *command, "--format", "json"]
        first = run_cli(argv, capsys)
        hits = cli.answer.cache_info().hits
        infos = [m.cache_info() for m in below]
        assert run_cli(argv, capsys) == first
        assert first[0] == EXIT_OK
        assert cli.answer.cache_info().hits == hits + 1
        assert [m.cache_info() for m in below] == infos


def test_every_memo_serves_a_session(capsys, fresh_caches):
    # a memo that no repeated question reads is waste: two visits at two
    # gammas, one of them split (gamma^2 = 16), read every cache of qp3
    for gamma in ("3/2+i", "4"):
        for _ in range(2):
            for command in SESSION:
                run_cli([f"--gamma={gamma}", *command], capsys)
    memos = {id(v): (f"{name}.{attr}", v)
             for name, mod in list(sys.modules.items())
             if (name == "qp3" or name.startswith("qp3.")) and mod is not None
             for attr, v in vars(mod).items()
             if callable(getattr(v, "cache_info", None))}
    idle = sorted(n for n, m in memos.values() if m.cache_info().hits == 0)
    assert idle == []


def test_answer_memo_keeps_text_and_json_apart(capsys, fresh_caches):
    _, text, _ = run_cli(["--gamma=3", "point-scheme"], capsys)
    _, doc, _ = run_cli(["--gamma=3", "point-scheme", "--format", "json"], capsys)
    assert "distinct points: 20" in text
    assert json.loads(doc)["command"] == "point-scheme"
    assert cli.answer.cache_info().currsize == 2


def test_answer_memo_respects_the_limits(monkeypatch, capsys):
    # a cached success is keyed on the limits, so a narrower bound, from a
    # flag or from a variable set between two identical calls, recomputes
    # and still stops
    argv = ["--gamma=5", "point-scheme"]
    for field, name in cli.LIMIT_ENV.items():
        assert run_cli(argv, capsys)[0] == EXIT_OK
        code, out, err = run_cli([*argv, "--" + field.replace("_", "-"), "1"], capsys)
        assert code == EXIT_RESOURCE and out == "" and "resource limit" in err
        monkeypatch.setenv(name, "1")
        assert run_cli(argv, capsys)[0] == EXIT_RESOURCE
        monkeypatch.delenv(name)


@pytest.mark.parametrize("value", ["", "many"])
@pytest.mark.parametrize("name", cli.LIMIT_ENV.values())
def test_bad_variable_is_refused_on_a_repeated_question(name, value, monkeypatch,
                                                        capsys, fresh_caches):
    # the variables are read on every call, so a bad value set before a
    # question the memos already hold is refused like a first one
    argv = ["--gamma=5/3", "point-scheme"]
    for repeated in (False, True):
        if repeated:
            monkeypatch.delenv(name)
            assert run_cli(argv, capsys)[0] == EXIT_OK
        monkeypatch.setenv(name, value)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"qp3: environment variable {name} must be an integer\n"


def test_answer_puts_its_limits_in_force_on_a_miss_only(monkeypatch, capsys,
                                                         fresh_caches):
    # the command runs under the limits its flags and variables set, the
    # defaults when none is set; a repeated question resolves no bound and
    # enters no scope
    seen, scopes, resolved = [], [], []
    scope, limit = cli.limits_scope, cli._limit

    def stub(gamma, fmt):
        seen.append(current_limits())
        return "stub\n", EXIT_OK

    def counted_scope(limits):
        scopes.append(limits)
        return scope(limits)

    def counted_limit(*args):
        resolved.append(args)
        return limit(*args)

    for name in cli.LIMIT_ENV.values():
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(cli, "cmd_point_scheme", stub)
    monkeypatch.setattr(cli, "limits_scope", counted_scope)
    monkeypatch.setattr(cli, "_limit", counted_limit)
    for flags, limits in (([], DEFAULT_LIMITS),
                          (["--max-basis", "7"], DEFAULT_LIMITS._replace(max_basis=7))):
        argv = ["--gamma=5", "point-scheme", *flags]
        assert run_cli(argv, capsys) == (EXIT_OK, "stub\n", "")
        assert seen == scopes == [limits] and len(resolved) == 3
        del seen[:], scopes[:], resolved[:]
        assert run_cli(argv, capsys) == (EXIT_OK, "stub\n", "")
        assert seen == scopes == resolved == []


def test_a_repeated_question_resolves_nothing_again(monkeypatch, capsys, fresh_caches):
    # the second of two identical calls reads its limits and its answer
    # from the memos: no bound is resolved again, and gamma's hash is not
    # rebuilt through a Fraction
    argv = ["--gamma=5", "point-scheme"]
    resolved, fractions = [], []
    limit = cli._limit

    def counted(*args):
        resolved.append(args)
        return limit(*args)

    class Counted(Fraction):
        def __new__(cls, *args):
            fractions.append(args)
            return Fraction(*args)

    monkeypatch.setattr(cli, "_limit", counted)
    assert run_cli(argv, capsys)[0] == EXIT_OK
    assert len(resolved) == 3
    resolved.clear()
    monkeypatch.setattr(gaussian, "Fraction", Counted)
    assert run_cli(argv, capsys)[0] == EXIT_OK
    assert resolved == [] and fractions == []


def test_answer_memo_keys_the_tolerance_in_numeric_mode_only(capsys):
    numeric = ["--gamma=3/2+i", "lines-through", "--numeric"]
    assert run_cli(numeric, capsys)[0] == EXIT_OK
    code, out, _ = run_cli([*numeric, "--tolerance=1e-30"], capsys)
    assert code == EXIT_VERIFICATION and out == ""
    symbolic = ["--gamma=3/2+i", "lines-through", "--symbolic"]
    first = run_cli(symbolic, capsys)
    hits = cli.answer.cache_info().hits
    assert run_cli([*symbolic, "--tolerance=1e-30"], capsys) == first
    assert cli.answer.cache_info().hits == hits + 1


def test_usage_error_is_not_cached(capsys):
    info = cli.answer.cache_info()
    for _ in range(2):
        code, out, err = run_cli(["--gamma=1", "lines-through", "--numeric",
                                  "--symbolic"], capsys)
        assert code == EXIT_USAGE and out == "" and "--numeric" in err
    assert cli.answer.cache_info() == info


def test_numeric_refusal_is_not_cached(capsys):
    # exceptions are not memoized: the refusal is recomputed every time
    for _ in range(2):
        code, out, err = run_cli(["--gamma=1/2^40", "lines-through",
                                  "--numeric"], capsys)
        assert code == EXIT_VERIFICATION and out == ""
        assert "point too close to a coordinate hyperplane" in err


def test_reports_are_frozen():
    # memos hand out the same report to every caller, so none may change it
    from qp3.line_scheme import verify_decomposition
    from qp3.plucker import lines_through_point
    from qp3.point_scheme import count_points

    six = lines_through_point("generic", gr(1))
    reports = {
        "distinct_count": count_points(make_A(gr(1))),
        "degrees_sum": verify_decomposition(gr(1)),
        "total": six,
        "distinct": six.branches[0],
        "in_line_scheme": six.branches[0].lines[0],
    }
    for name, report in reports.items():
        with pytest.raises(AttributeError):
            setattr(report, name, None)


def test_text_output_deterministic(capsys):
    _, out1, _ = run_cli(["--gamma", "1", "line-scheme"], capsys)
    _, out2, _ = run_cli(["--gamma", "1", "line-scheme"], capsys)
    assert out1 == out2
    _, j1, _ = run_cli(["--gamma", "4", "point-scheme", "--format", "json"], capsys)
    _, j2, _ = run_cli(["--gamma", "4", "point-scheme", "--format", "json"], capsys)
    assert j1 == j2


def test_limits_do_not_bound_the_relation_row_reduction(fresh_caches):
    # building A(gamma) reduces its six relation rows to the ten dual forms,
    # and sigma(e1) reduces R(e1) to its kernel: row reductions under fixed
    # bounds of their own, so a basis bound under ten stops neither
    with limits_scope(GroebnerLimits(max_pairs=1, max_basis=5, max_degree=1)):
        A = make_A(parse_gamma("7/3+2*i"))
        assert len(A.dual) == 10
        assert sigma(E1, A) == E2


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
    assert err.startswith("qp3: cannot parse gamma '1/0': division by zero")


@pytest.mark.parametrize("gamma", ["2^100000", "(1+i)^100000",
                                   "1/3^20000", "2^1000000000"])
def test_huge_gamma_usage_error(gamma, capsys):
    # refused before it is evaluated, so even 2^1000000000 returns at once
    start = time.perf_counter()
    code, out, err = run_cli([f"--gamma={gamma}", "point-scheme"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("qp3: ") and "too large" in err


@pytest.mark.parametrize("gamma", ["2^1000000000", "(2^100)^100"])
def test_huge_gamma_is_refused_before_evaluation(gamma, capsys, monkeypatch):
    import qp3.cli

    def evaluated(*args, **kwargs):
        raise AssertionError("gamma text evaluated")

    monkeypatch.setattr(qp3.cli, "parse_poly", evaluated)
    start = time.perf_counter()
    code, out, err = run_cli([f"--gamma={gamma}", "point-scheme"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == "" and "too large" in err


@pytest.mark.parametrize("command", [["point-scheme"], ["line-scheme", "--verify"],
                                     ["lines-through", "--symbolic"]])
def test_gamma_with_several_powers_is_computed(command, capsys):
    # each power bounds its own subexpression: 2^100 + 2^100*i needs about
    # a hundred bits, not the product of its exponents
    code, out, _ = run_cli(["--gamma=2^100+2^100*i"] + command, capsys)
    assert code == EXIT_OK
    assert "verified: yes" in out or "verified: True" in out


def test_large_gamma_within_bound_is_computed(capsys):
    code, out, _ = run_cli(["--gamma=2^2000", "point-scheme"], capsys)
    assert code == EXIT_OK
    assert "distinct points: 20" in out


@pytest.mark.parametrize("gamma", ["2^1000", "2^2000"])
def test_numeric_gamma_outside_float_range_exits_2(gamma):
    # gamma^2 overflows a float at 2^1000 and gamma itself at 2^2000; the
    # exact commands handle both, the numeric one must refuse cleanly
    proc = _run_qp3([f"--gamma={gamma}", "lines-through", "--numeric"])
    assert proc.returncode == EXIT_VERIFICATION
    assert proc.stdout == ""
    assert proc.stderr.startswith("qp3: numeric verification failed: ")
    assert "Traceback" not in proc.stderr


NUMPY_PROBE = """
import contextlib, io, json, sys
import qp3.cli

def loaded():
    return ["numpy" in sys.modules, "qp3.numeric" in sys.modules]

report = [[None] + loaded()]
for argv in (["point-scheme"], ["line-scheme", "--verify"],
             ["lines-through", "--symbolic"], ["lines-through", "--numeric"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = qp3.cli.main(["--gamma", "1", *argv])
    report.append([code] + loaded())
print(json.dumps(report))
"""


def test_only_numeric_mode_imports_numpy():
    # qp3.numeric itself loads with the package; numpy waits for the first
    # numeric call, so a cold symbolic run does not pay for importing it
    proc = _run_python(["-c", NUMPY_PROBE])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == [[None, False, True], [EXIT_OK, False, True],
                      [EXIT_OK, False, True], [EXIT_OK, False, True],
                      [EXIT_OK, True, True]]


IMPORT_PROBE = """
import json, sys
import qp3.cli
print(json.dumps(["dataclasses" in sys.modules,
                  sorted(m for m in sys.modules if m.split(".")[0] == "qp3")]))
"""


def test_cold_import_loads_no_dataclasses():
    # the records are NamedTuples and slotted classes: a cold process does
    # not pay for dataclasses and the inspect/ast/dis it imports.  pytest
    # itself imports dataclasses, so only a fresh interpreter can tell
    proc = _run_python(["-c", IMPORT_PROBE])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, [
        "qp3", "qp3.cli", "qp3.fixtures", "qp3.gaussian", "qp3.groebner",
        "qp3.line_scheme", "qp3.multipoly", "qp3.numeric", "qp3.plucker",
        "qp3.point_scheme", "qp3.polylinalg", "qp3.quadratic_algebra"]]


STDLIB_PROBE = """
import contextlib, io, json, sys
import qp3.cli

if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert qp3.cli.main(["--gamma=1", *sys.argv[1:]]) == 0
print(json.dumps(sorted({"argparse", "gettext", "locale"} & set(sys.modules))))
"""


@pytest.mark.parametrize("command", [[], ["line-scheme", "--verify"],
                                     ["lines-through", "--symbolic"]],
                         ids=" ".join)
def test_cold_command_loads_no_argparse(command):
    # the command line is read by a table, so a cold process imports
    # neither argparse nor the gettext and locale that it pulls in
    proc = _run_python(["-c", STDLIB_PROBE, *command])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("argv", [["-h"], ["--help"],
                                  ["--gamma=1", "line-scheme", "--he"],
                                  ["--bogus", "point-scheme", "-h", "--verify"]])
def test_help_prints_the_usage_and_exits_0(argv, monkeypatch, capsys):
    # before any check of the command line or of the environment
    monkeypatch.setenv("QP3_MAX_PAIRS", "many")
    assert run_cli(argv, capsys) == (EXIT_OK, cli.USAGE, "")
    assert cli.USAGE.startswith("usage: qp3 ")


def test_help_in_a_cold_process():
    for flag in ("-h", "--help"):
        proc = _run_qp3([flag])
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, cli.USAGE, "")


def test_numeric_degenerate_float_point_exits_2(capsys):
    # at gamma = 2^511 a generic point rounds onto a coordinate hyperplane
    code, out, err = run_cli(["--gamma=2^511", "lines-through", "--numeric"],
                             capsys)
    assert code == EXIT_VERIFICATION
    assert out == ""
    assert err.startswith("qp3: numeric verification failed: ")


def test_unknown_basis_point_usage_error(capsys):
    code, out, err = run_cli(["--gamma", "1", "lines-through", "--point", "e5"],
                             capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("qp3: ") and "e5" in err


@pytest.mark.parametrize("extra", [["--point", "e2"], ["--symbolic"],
                                   ["--point", "generic"]])
def test_numeric_with_symbolic_mode_flag_usage_error(extra, capsys):
    code, out, err = run_cli(["--gamma", "1", "lines-through", "--numeric"] + extra,
                             capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("qp3: ") and "--numeric" in err


def _spellings(gamma, command):
    """The same question spelled five ways: flags after or before the
    command, `--gamma X` or `--gamma=X`, `--format json` or `--format=json`."""
    name, own = command[0], command[1:]
    return ([f"--gamma={gamma}", name, *own, "--format", "json"],
            [name, *own, "--gamma", gamma, "--format=json"],
            ["--format=json", *own, "--gamma", gamma, name],
            [*own, "--format", "json", name, f"--gamma={gamma}"],
            ["--gamma", gamma, name, "--format=json", *own])


@pytest.mark.parametrize("command", SESSION, ids=" ".join)
def test_flags_work_on_either_side_of_the_command(command, capsys):
    answers = {run_cli(argv, capsys) for argv in _spellings("3/2+i", command)}
    assert len(answers) == 1
    (code, out, err), = answers
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["command"] == command[0]


@pytest.mark.parametrize("argv,flag", [
    (["point-scheme", "--verify"], "--verify"),
    (["line-scheme", "--point", "e1"], "--point"),
    (["--numeric", "point-scheme"], "--numeric"),
    (["line-scheme", "--symbolic"], "--symbolic"),
])
def test_command_flag_of_another_command_usage_error(argv, flag, capsys):
    code, out, err = run_cli(["--gamma=1", *argv], capsys)
    assert (code, out, err) == (EXIT_USAGE, "", f"qp3: unrecognized arguments: {flag}\n")


def test_repeated_command_line_is_parsed_once(capsys):
    # a revisit reads both memos: the parsed question and its answer
    argv = ["--gamma=3/2+i", "lines-through", "--point", "e3"]
    first = run_cli(argv, capsys)
    parsed, answered = cli._parsed.cache_info(), cli.answer.cache_info()
    assert run_cli(argv, capsys) == first
    assert cli._parsed.cache_info().hits == parsed.hits + 1
    assert cli._parsed.cache_info().misses == parsed.misses
    assert cli.answer.cache_info().hits == answered.hits + 1


@pytest.mark.parametrize("argv", [
    ["--gamma=1", "point-scheme", "--verify"],
    ["--gamma=1/0", "point-scheme"],
    ["--gamma=1", "lines-through", "--numeric", "--point", "e2"],
    ["--gamma=1", "lines-through", "--numeric", "--tolerance=0"],
])
def test_usage_error_is_not_kept_by_the_parse_memo(argv, capsys):
    before = cli._parsed.cache_info()
    for _ in range(2):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE and out == "" and err.startswith("qp3: ")
    after = cli._parsed.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)


def test_deeply_nested_gamma_usage_error():
    # a cold process through the real entry point: no RecursionError
    deep = "(" * 300 + "1" + ")" * 300
    proc = _run_qp3([f"--gamma={deep}", "point-scheme"])
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert proc.stderr.startswith("qp3: cannot parse gamma ")
    assert "nested deeper than" in proc.stderr and "Traceback" not in proc.stderr
