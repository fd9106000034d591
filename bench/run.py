#!/usr/bin/env python3
"""qp3 benchmark: time to a certified verdict for seeded values of gamma.

    python3 bench/run.py --workload line-verify --seed 1 --seconds 30 --trace 0

Run it from the root of a qp3 checkout; it imports qp3 from `src/`.

A job is one call of `qp3.cli.main(["--gamma=<g>", <command>, "--format",
"json"])`.  Load is a closed loop: one client, one job at a time, from one
process.  A run draws a pool of gamma from the seed (the four special values
2, -2, 4, -4 and some generic ones) and visits it in whole shuffled rounds;
`--seconds` sets the number of rounds (PLAN_RATE), so the jobs a run makes
do not depend on the host's speed.  Workloads:

  line-verify  `line-scheme --verify`, each job in a child forked from a
               parent that imported qp3.cli and called nothing, so every
               cache starts empty.  Buchberger dominates it.
  six-lines    `lines-through --symbolic`, forked the same way.  Minors,
               Pluecker line checks and the N-rewrite dominate it.
               gamma = -4 fails here (exit 2, `verified: NO`): a known
               defect, counted in `failed`.
  session      one forked child keeps its caches over the rounds; a visit
               (one job) runs the eight commands of facts.SESSION.  First
               visits fill the caches, revisits read them.

Every output is checked against the paper's facts (facts.py) and the
README invocations against the digests in golden.json.  `correct` is
false on a digest mismatch, a crash, or an exit-0 output that contradicts
a fact; an honest exit 2 is a failed job.  `certified_share` counts qp3
calls, so a session visit weighs its eight verdicts.

`--trace 1` instead runs a smaller seeded pool twice, untraced and
traced (tracing.py), and prints per-layer metrics per job plus the tracing
overhead.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Each run also writes a record, with
its environment and (traced) spans, to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import facts
import tracing
from gammas import SPECIAL, draw_pool

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("line-verify", "six-lines", "session")
# Generic gammas beside the four special ones in a run's pool.  A run
# visits its pool in whole rounds, so its job count, and how many of its
# jobs fail, depend on --seconds alone, never on how fast the host is.
POOL_GENERIC = {"line-verify": 12, "six-lines": 12, "session": 4}
# typical jobs per second on a shared 2-core Xeon host; used only to size
# the plan
PLAN_RATE = {"line-verify": 1.0, "six-lines": 1.9, "session": 2.15}
TRACE_GENERIC = {"line-verify": 2, "six-lines": 2, "session": 1}
SETUP_RUNS = 7         # fresh interpreters timed for setup_s
PROBE_REPEATS = 5      # reference kernels in one probe
# A probe's time on a shared 2-core Xeon host, between its fast (1.7 ms)
# and slow (3.1 ms) states.  End-to-end times are reported at that host
# speed; see at_nominal.
PROBE_NOMINAL_S = 2.5e-3
TAIL_BEYOND = 10       # samples required beyond the tail percentile
JOB_TIMEOUT_S = 150.0
RUN_BUDGET_S = 160.0   # a run that needs longer stops with an error

END_TO_END_UNITS = {
    "setup_s": "s", "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
    "certified_share": "share", "peak_rss_mb": "MB",
}

# per-layer metrics, `<module>.<function>.<stat>`: span statistics, except
# the names in COUNTED, which are counters
PER_LAYER = (
    "groebner.buchberger.calls", "groebner.buchberger.self_s",
    "groebner.buchberger.basis_len", "groebner.buchberger.cache_hits",
    "groebner.normal_form.calls", "groebner.normal_form.self_s",
    "groebner.is_unit_mod.calls", "groebner.radical_member.total_s",
    "groebner.intersect.total_s", "groebner.hilbert_dimension_degree.self_s",
    "groebner.invert_mod.self_s",
    "polylinalg.minor.calls", "polylinalg.minor.self_s",
    "line_scheme.line_scheme_ideal.self_s",
    "line_scheme.verify_decomposition.self_s",
    "line_scheme.component_catalog.total_s",
    "plucker.lines_through_point.self_s",
    "multipoly.Polynomial.made", "multipoly.parse_poly.calls",
    "gaussian.GaussianRational.made",
    "point_scheme.count_points.self_s",
    "point_scheme.verify_rho_derivation.total_s",
    "point_scheme.sigma_orbit_certificates.total_s",
    "numeric.enumerate_points.self_s",
    "numeric.six_lines_numeric.calls", "numeric.six_lines_numeric.self_s",
    "fixtures.load_fixtures.total_s", "cli.main.self_s",
    "cache.lru.hits", "cache.lru.misses",
)
COUNTED = {"groebner.buchberger.cache_hits", "multipoly.Polynomial.made",
           "multipoly.parse_poly.calls", "gaussian.GaussianRational.made",
           "cache.lru.hits", "cache.lru.misses"}
OVERHEAD_METRICS = {"trace.job_p50_untraced_s": "s",
                    "trace.job_p50_traced_s": "s",
                    "trace.overhead_share": "share"}


class BenchError(Exception):
    """The benchmark cannot run here (no qp3 sources, a broken child)."""


_deadline = float("inf")   # monotonic time by which the run must end


def time_left() -> float:
    """Seconds a child may still take; BenchError once the run is over
    its budget."""
    left = _deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the run took over {RUN_BUDGET_S:.0f} s")
    return left


# --------------------------------------------------------------------------
# statistics


def tail_percentile(values: List[float],
                    beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """(percentile, value, samples): the highest percentile of `values`
    with at least `beyond` samples above it.  With `beyond` samples or
    fewer there is none, and the maximum (percentile 100) is returned."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return 100.0, xs[-1], n
    k = n - beyond - 1
    return 100.0 * (k + 1) / n, xs[k], n


def reference_kernel() -> None:
    """A fixed sparse product of Fraction-coefficient dicts, the kind of
    work qp3 does, written here so that no change to qp3 changes it."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    b = {(i, j): Fraction(j + 3, i + 1) for i in range(5) for j in range(4)}
    out: Dict[Tuple[int, int], Fraction] = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + x * y


def probe() -> float:
    """The host's speed now: median time of PROBE_REPEATS reference kernels."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_nominal(seconds: float, probe_s: float) -> float:
    """A time measured beside the mean probe `probe_s`, brought to the
    nominal host speed.

    On a shared host each core flips, about once a second, between a fast
    and a slow state (1.7x apart for the probe) as other tenants come and
    go, and the share of time in the fast state drifts from about 15% to
    75% between runs minutes apart.  Raw job times follow that share, so
    runs of the same code spread by 20% and more.  Probes taken on the
    same core just before and after a job measure the state it ran in, and
    the probe's code never changes.  Raw values are printed and recorded
    beside the scaled ones."""
    return seconds * PROBE_NOMINAL_S / probe_s


def probed(fn: Callable[[], object]) -> Tuple[object, float]:
    """fn's result, and the mean of a probe before and one after it."""
    before = probe()
    result = fn()
    return result, (before + probe()) / 2


# --------------------------------------------------------------------------
# forked children


class Child(NamedTuple):
    payload: Optional[dict]   # what the child returned; None if it died
    maxrss_kb: int
    note: str


def fork_call(fn: Callable[[], dict], timeout_s: float) -> Child:
    """Run fn in a forked child and return its JSON-able result.

    The child inherits this process's imports and (empty) caches.  It is
    killed after timeout_s, and always waited for."""
    r, w = os.pipe()
    deadline = time.monotonic() + timeout_s
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 70
        try:
            data = json.dumps(fn()).encode()
            with os.fdopen(w, "wb") as f:
                f.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    chunks, note = [], ""
    with os.fdopen(r, "rb", buffering=0) as f:
        while True:
            ready, _, _ = select.select([f], [], [],
                                        max(deadline - time.monotonic(), 0.0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                note = f"killed after {timeout_s:.0f} s"
                break
            chunk = f.read(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    if not note and status != 0:
        note = f"child ended with status {status}"
    payload = json.loads(b"".join(chunks)) if not note else None
    return Child(payload, usage.ru_maxrss, note)


def call_cli(cli, argv: List[str]) -> dict:
    """One job in this process: exit code, stdout, stderr and seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "seconds": seconds}


# --------------------------------------------------------------------------
# jobs and their verdicts


class Job(NamedTuple):
    gamma: str
    seconds: float
    ok: bool            # exit 0 and every fact holds
    wrong: bool         # a crash, or exit 0 while a fact fails (a false
                        # certificate); exit 2 "not verified" is not wrong
    problems: List[str]
    maxrss_kb: int
    verdicts: int       # qp3 calls in the job
    verdicts_failed: int
    probe_s: float = PROBE_NOMINAL_S   # mean probe around the job; nominal
                                       # for a child that died


def judge(job: str, gamma: str, rc, stdout: str) -> Tuple[bool, bool, List[str]]:
    """(ok, wrong, problems) for one qp3 call; see Job."""
    problems = facts.check(job, gamma, rc, stdout)
    crashed = rc not in (0, 1, 2, 3)
    if crashed:
        problems.append("crashed: exit code outside 0..3")
    return not problems, crashed or (rc == 0 and bool(problems)), problems


def forked_job(cli, job: str, gamma: str, traced: bool = False) -> Tuple[Job, dict]:
    """One job in a fresh child.  Returns the job and, if traced, its trace."""

    def body():
        caches = tracing.lru_caches()   # before install hides them
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        result, result["probe_s"] = probed(
            lambda: call_cli(cli, facts.argv(job, gamma)))
        result["counts"] = dict(tracing.lru_counts(caches))
        if tracer is not None:
            result["counts"].update(tracer.counts)
            result["spans"] = tracer.spans
        return result

    timeout = min(JOB_TIMEOUT_S, time_left())
    child = fork_call(body, timeout)
    if child.payload is None:
        return Job(gamma, timeout, False, True, [child.note],
                   child.maxrss_kb, 1, 1), {}
    p = child.payload
    ok, wrong, problems = judge(job, gamma, p["rc"], p["stdout"])
    return (Job(gamma, p["seconds"], ok, wrong, problems, child.maxrss_kb,
                1, int(not ok), p["probe_s"]),
            {"counts": p["counts"], "spans": p.get("spans", [])})


def session_visit(cli, gamma: str, caches) -> Tuple[Job, Dict[str, int]]:
    """One session job: the eight commands for gamma, in this process."""
    before = tracing.lru_counts(caches)
    host = probe()
    seconds, problems, wrong, failed = 0.0, [], False, 0
    for job in facts.SESSION:
        result = call_cli(cli, facts.argv(job, gamma))
        seconds += result["seconds"]
        ok, bad, probs = judge(job, gamma, result["rc"], result["stdout"])
        wrong = wrong or bad
        failed += not ok
        problems += [f"{job}: {p}" for p in probs]
    host = (host + probe()) / 2
    after = tracing.lru_counts(caches)
    return (Job(gamma, seconds, not problems, wrong, problems, 0,
                len(facts.SESSION), failed, host),
            {k: after[k] - before[k] for k in after})


def job_plan(seed: int, generic: int, rounds: int) -> List[str]:
    """Job order: `rounds` rounds over the seeded pool, each shuffled."""
    pool = draw_pool(seed, generic)
    rng = random.Random(seed)
    order: List[str] = []
    for _ in range(rounds):
        rng.shuffle(pool)
        order += pool
    return order


def plan_rounds(workload: str, seconds: float) -> int:
    """Rounds over the pool that take about `seconds` at PLAN_RATE."""
    pool = len(SPECIAL) + POOL_GENERIC[workload]
    return max(1, round(seconds * PLAN_RATE[workload] / pool))


def run_session(cli, plan: List[str], traced: bool) -> Tuple[List[Job], dict]:
    """The session workload in one forked child that keeps its caches."""

    def body():
        caches = tracing.lru_caches()   # before install hides them
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        visits, counts = [], {}
        for k, gamma in enumerate(plan):
            if tracer is not None:
                tracer.job = k
            job, lru = session_visit(cli, gamma, caches)
            visits.append(job._asdict())
            for name, v in lru.items():
                counts[name] = counts.get(name, 0) + v
        if tracer is not None:
            counts.update(tracer.counts)
        return {"visits": visits, "counts": counts,
                "spans": tracer.spans if tracer else []}

    child = fork_call(body, time_left())
    if child.payload is None:
        raise BenchError(f"session child failed: {child.note}")
    jobs = [Job(**{**v, "maxrss_kb": child.maxrss_kb})
            for v in child.payload["visits"]]
    return jobs, child.payload


# --------------------------------------------------------------------------
# workloads


class Measured(NamedTuple):
    jobs: List[Job]          # every job run, in order
    elapsed_s: float
    counts: Dict[str, int]   # lru cache hits and misses, summed


def measure_forked(cli, job: str, plan: List[str]) -> Measured:
    """One forked job per entry of the plan."""
    jobs, counts = [], Counter()
    t0 = time.perf_counter()
    for gamma in plan:
        j, t = forked_job(cli, job, gamma)
        jobs.append(j)
        counts.update(t.get("counts", {}))
    return Measured(jobs, time.perf_counter() - t0, dict(counts))


def measure_session(cli, plan: List[str]) -> Measured:
    t0 = time.perf_counter()
    jobs, payload = run_session(cli, plan, traced=False)
    return Measured(jobs, time.perf_counter() - t0, payload["counts"])


def setup_seconds() -> List[Tuple[float, float]]:
    """(seconds, mean probe) for each of SETUP_RUNS fresh interpreters that
    start and import qp3.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def start() -> float:
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in 50 ms steps
        subprocess.run([sys.executable, "-c", "import qp3.cli"], cwd=ROOT,
                       env=env, check=True)
        return time.perf_counter() - t0

    return [probed(start) for _ in range(SETUP_RUNS)]


def check_digests(cli) -> List[str]:
    """README invocations whose stdout differs from golden.json."""
    golden = json.loads((BENCH / "golden.json").read_text())
    bad = []
    for entry in golden["invocations"]:
        child = fork_call(lambda: call_cli(cli, entry["argv"]),
                          min(JOB_TIMEOUT_S, time_left()))
        out = child.payload["stdout"] if child.payload else ""
        if hashlib.sha256(out.encode()).hexdigest() != entry["sha256"]:
            bad.append("qp3 " + " ".join(entry["argv"]))
    return bad


# --------------------------------------------------------------------------
# traced runs


def traced_forked(cli, job: str, seed: int):
    gammas = job_plan(seed, TRACE_GENERIC[job], rounds=1)
    plain, traced, spans, counts = [], [], [], Counter()
    for k, gamma in enumerate(gammas):
        plain.append(forked_job(cli, job, gamma)[0])
        j, t = forked_job(cli, job, gamma, traced=True)
        traced.append(j)
        base = len(spans)   # each child numbered its spans from 0
        for name, start, end, parent, _ in t.get("spans", []):
            spans.append([name, start, end,
                          parent + base if parent >= 0 else -1, k])
        counts.update(t.get("counts", {}))
    return plain, traced, spans, counts


def traced_session(cli, seed: int):
    plan = job_plan(seed, TRACE_GENERIC["session"], rounds=2)
    plain, _ = run_session(cli, plan, traced=False)
    traced, payload = run_session(cli, plan, traced=True)
    return plain, traced, payload["spans"], payload["counts"]


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if name in COUNTED:
        return "count/job"
    if stat == "basis_len":
        return "polys/call"
    return "calls/job" if stat == "calls" else "s/job"


def layer_metrics(spans: List[list], counts: Dict[str, int], jobs: int) -> dict:
    """PER_LAYER values per traced job; basis_len per buchberger call."""
    times = tracing.layer_times([tracing.Span(*s) for s in spans])
    out = {}
    for name in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        t = times.get(span, tracing.LayerTime(0, 0.0, 0.0))
        if name in COUNTED:
            value = counts.get(name, 0) / jobs
        elif stat == "basis_len":
            value = counts.get(name, 0) / max(t.calls, 1)
        else:
            value = getattr(t, stat) / jobs
        out[name] = {"value": value, "unit": layer_unit(name)}
    return out


# --------------------------------------------------------------------------
# the run


def load_cli():
    """qp3.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "qp3" / "cli.py").is_file():
        raise BenchError(f"no qp3 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qp3.cli
    if Path(qp3.cli.__file__).resolve().parent != (SRC / "qp3").resolve():
        raise BenchError(f"imported qp3 from {qp3.cli.__file__}, not {SRC}")
    return qp3.cli


def environment(workload: str, seed: int, trace: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    with contextlib.suppress(OSError, ValueError, subprocess.SubprocessError):
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            timeout=10, capture_output=True, text=True).stdout.split()
        if Path(top).resolve() == ROOT:   # not an enclosing repository
            sha = head
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "git_sha": sha,
            "workload": workload, "seed": seed, "trace": trace}


def untraced_run(cli, workload: str, seed: int, seconds: float):
    setups = setup_seconds()
    plan = job_plan(seed, POOL_GENERIC[workload],
                    plan_rounds(workload, seconds))
    if workload == "session":
        m = measure_session(cli, plan)
    else:
        m = measure_forked(cli, workload, plan)
    latencies = [j.seconds for j in m.jobs]
    pct, tail, n = tail_percentile(latencies)
    scaled = [at_nominal(j.seconds, j.probe_s) for j in m.jobs]
    failed = sum(not j.ok for j in m.jobs)
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "jobs_per_s": len(m.jobs) / m.elapsed_s,
    }
    # the run's wall time, brought to the nominal speed by its mean probe
    elapsed = at_nominal(m.elapsed_s,
                         statistics.mean(j.probe_s for j in m.jobs))
    metrics = {
        "setup_s": statistics.median(at_nominal(*s) for s in setups),
        "job_p50_s": statistics.median(scaled),
        "job_tail_s": tail_percentile(scaled)[1],
        "jobs_per_s": len(m.jobs) / elapsed,
        "certified_share": 1 - (sum(j.verdicts_failed for j in m.jobs)
                                / sum(j.verdicts for j in m.jobs)),
        "peak_rss_mb": max(j.maxrss_kb for j in m.jobs) / 1024,
    }
    notes = [
        "times below are at the nominal host speed; as measured: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        f"setup_s: median of {SETUP_RUNS} fresh interpreters importing qp3.cli",
        f"job_tail_s is p{pct:.1f} of {n} job latencies",
        f"failed_share {failed / len(m.jobs):.4f} share "
        f"({failed} of {len(m.jobs)} jobs)",
    ]
    record = {"jobs": [j._asdict() for j in m.jobs], "counts": m.counts,
              "tail_percentile": pct, "tail_samples": n,
              "elapsed_s": m.elapsed_s, "measured": raw, "setups": setups}
    return m.jobs, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                    for k, v in metrics.items()}, notes, record


def traced_run(cli, workload: str, seed: int):
    if workload == "session":
        plain, traced, spans, counts = traced_session(cli, seed)
    else:
        plain, traced, spans, counts = traced_forked(cli, workload, seed)
    metrics = layer_metrics(spans, counts, len(traced))
    # the same jobs run untraced and traced; overhead compares their sums
    share = (sum(j.seconds for j in traced) / sum(j.seconds for j in plain)
             - 1)
    overhead = {
        "trace.job_p50_untraced_s": statistics.median(j.seconds for j in plain),
        "trace.job_p50_traced_s": statistics.median(j.seconds for j in traced),
        "trace.overhead_share": share,
    }
    for k, v in overhead.items():
        metrics[k] = {"value": v, "unit": OVERHEAD_METRICS[k]}
    notes = [f"{len(traced)} traced jobs, each also run untraced; "
             f"tracing adds {100 * share:+.1f}% to their summed time"]
    record = {"jobs": [j._asdict() for j in plain + traced], "spans": spans,
              "counts": counts}
    return plain + traced, metrics, notes, record


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    global _deadline
    _deadline = time.monotonic() + RUN_BUDGET_S
    # one core for the run and every child, so that each probe times the
    # core the next job runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        cli = load_cli()
        env = environment(args.workload, args.seed, args.trace)
        print("bench: " + json.dumps(env), flush=True)
        bad_digests = check_digests(cli)
        if args.trace:
            jobs, metrics, notes, record = traced_run(cli, args.workload,
                                                      args.seed)
        else:
            jobs, metrics, notes, record = untraced_run(
                cli, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    failed = sum(not j.ok for j in jobs)
    wrong = [j for j in jobs if j.wrong]
    correct = not bad_digests and not wrong

    print("README digests: " + ("all match" if not bad_digests
                                else "MISMATCH " + "; ".join(bad_digests)))
    failures = Counter((j.gamma, "; ".join(j.problems)) for j in jobs if not j.ok)
    for (gamma, problems), n in failures.items():
        print(f"failed: {n} job(s) at gamma={gamma}: {problems[:300]}")
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, "metrics": metrics,
                               "correct": correct, "digest_mismatches": bad_digests,
                               **record}, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
