"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import sys

import pytest

import facts
import run
import tracing
from gammas import SPECIAL, draw_pool, format_gamma, parse_parts

sys.path.insert(0, str(run.SRC))
from qp3.cli import UsageError, parse_gamma  # noqa: E402


def span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_subtracts_children_once():
    spans = [
        span("outer", 0.0, 10.0, -1),
        span("mid", 1.0, 4.0, 0),
        span("leaf", 2.0, 3.0, 1),
        span("mid", 5.0, 6.0, 0),
        span("outer", 6.5, 7.5, 0),   # recursion: outer inside outer
    ]
    t = tracing.layer_times(spans)
    assert t["leaf"] == (1, 1.0, 1.0)
    assert t["mid"] == (2, 2.0 + 1.0, 4.0)
    # 10 - (3 + 1 + 1) for the outer span, 1 for the nested one
    assert t["outer"].self_s == pytest.approx(5.0 + 1.0)
    assert t["outer"].total_s == pytest.approx(10.0)   # nested one not re-added
    assert t["outer"].calls == 2


def test_self_time_clips_overlapping_children():
    spans = [span("a", 0.0, 4.0, -1), span("b", 1.0, 3.0, 0),
             span("c", 2.0, 5.0, 0)]
    assert tracing.layer_times(spans)["a"].self_s == pytest.approx(1.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = [float(k) for k in range(40, 0, -1)]
    pct, value, n = run.tail_percentile(xs)
    assert (pct, value, n) == (75.0, 30.0, 40)
    assert sum(x > value for x in xs) == 10
    pct, value, n = run.tail_percentile(xs[:11])
    assert value == min(xs[:11]) and n == 11
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)


def test_times_are_brought_to_the_nominal_host_speed():
    nominal = run.PROBE_NOMINAL_S
    assert run.at_nominal(0.8, nominal) == pytest.approx(0.8)
    # probes twice as slow as nominal: the host ran at half speed
    assert run.at_nominal(0.8, 2 * nominal) == pytest.approx(0.4)
    result, probe_s = run.probed(lambda: 7)
    assert result == 7 and probe_s > 0


def test_every_drawn_gamma_parses():
    for seed in range(50):
        for g in draw_pool(seed, 20):
            assert parse_gamma(g).is_zero() is False
            assert "+-" not in g.replace(" ", "")
            assert format_gamma(*parse_parts(g)) == g
    with pytest.raises(UsageError):
        parse_gamma("4/9+-9/4*i")


def test_plan_is_seeded_and_holds_each_special_value_once_a_round():
    plan = run.job_plan(3, generic=12, rounds=4)
    assert plan == run.job_plan(3, generic=12, rounds=4)
    assert plan != run.job_plan(4, generic=12, rounds=4)
    for k in range(0, len(plan), 16):
        pool = plan[k:k + 16]
        assert len(set(pool)) == 16 and set(SPECIAL) <= set(pool)
        assert sorted(pool) == sorted(plan[:16])
    assert run.plan_rounds("line-verify", 30) == 2
    assert run.plan_rounds("six-lines", 0.1) == 1


def _ok_point_scheme(gamma="1"):
    return {"schema": 1, "command": "point-scheme", "gamma": gamma,
            "total_with_multiplicity": 20, "distinct_count": 20,
            "multiplicity_profile": {"1": 20},
            "sigma_orbits": [4, 2, 4, 2, 4, 4], "verified": True}


def test_facts_accept_the_paper_and_catch_a_mutation():
    good = json.dumps(_ok_point_scheme())
    assert facts.check("point-scheme", "1", 0, good) == []
    mutated = _ok_point_scheme()
    mutated["distinct_count"] = 19
    problems = facts.check("point-scheme", "1", 0, json.dumps(mutated))
    assert any("distinct points" in p for p in problems)
    ok, wrong, _ = run.judge("point-scheme", "1", 0, json.dumps(mutated))
    assert not ok and wrong    # exit 0 with a false fact: a false certificate
    # gamma^2 = 4: twelve distinct points, eight of them double
    assert facts.check("point-scheme", "-2", 0, good)
    assert facts.check("point-scheme", "1/2 + 3/2*i", 0, good) == []


def test_real_output_passes_and_mutated_output_fails():
    cli = run.load_cli()
    job, _ = run.forked_job(cli, "point-scheme", "2")
    assert job.ok, job.problems
    out = run.call_cli(cli, facts.argv("point-scheme", "2"))["stdout"]
    assert facts.check("point-scheme", "2", 0, out) == []
    bad = out.replace('"distinct_count": 12', '"distinct_count": 20')
    assert bad != out and facts.check("point-scheme", "2", 0, bad)


class _FakeCli:
    """Stands in for qp3.cli: prints fixed text; raises for special gammas."""

    def __init__(self, text="hello\n"):
        self.text = text

    def main(self, argv):
        if argv[0].split("=", 1)[1] in SPECIAL:
            raise RuntimeError("boom")
        sys.stdout.write(self.text)
        return 0


def test_digest_mismatch_is_reported():
    bad = run.check_digests(_FakeCli())
    assert len(bad) == len(json.loads((run.BENCH / "golden.json").read_text())
                           ["invocations"])


def test_failing_jobs_are_counted_and_do_not_stop_the_run():
    m = run.measure_forked(_FakeCli(), "point-scheme",
                           run.job_plan(5, generic=2, rounds=2))
    assert len(m.jobs) == 12
    assert all(j.probe_s > 0 for j in m.jobs)
    assert all(not j.ok for j in m.jobs)          # not JSON: every job fails
    crashed = [j for j in m.jobs if j.gamma in SPECIAL]
    assert crashed and all(j.wrong and any("crashed" in p for p in j.problems)
                           for j in crashed)


def test_known_defect_gamma_minus_4_six_lines_is_a_counted_failure():
    job, _ = run.forked_job(run.load_cli(), "six-lines", "-4")
    assert not job.ok and not job.wrong
    assert "exit code 2" in job.problems


def test_traced_job_records_nested_spans_and_counts():
    job, t = run.forked_job(run.load_cli(), "point-scheme", "1", traced=True)
    assert job.ok
    names = {s[0] for s in t["spans"]}
    assert {"cli.main", "point_scheme.count_points",
            "groebner.buchberger"} <= names
    assert t["spans"][0][0] == "cli.main" and t["spans"][0][3] == -1
    assert all(s[3] < i for i, s in enumerate(t["spans"]))
    assert t["counts"]["multipoly.Polynomial.made"] > 0
    assert t["counts"]["cache.lru.misses"] > 0
