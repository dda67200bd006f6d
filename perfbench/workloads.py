"""The three workloads: timed job loops, then the correctness gate.

Every workload is a closed loop with one client: one job at a time, each CLI
job in its own forked child, each crosscheck round in one long-lived forked
child.  A run repeats rounds (see gen.py) until the timed loops have
taken `seconds`; each round is finished, so every run does whole rounds of
the same composition.  References are computed after the timed loops, in
their own forked children, so they never warm a job's process state.

A job that runs past JOB_LIMIT_S, or raises, counts as failed and the run
goes on.  Nothing runs past BUDGET_PER_SECOND x `seconds` into a run: once
that budget is spent no further job starts (jobs not started are not
counted), and a report whose reference could not run counts as failed.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import shutil
import signal
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

import gate
import gen
from proc import map_forked, run_forked
from tracer import Tracer

JOB_LIMIT_S = 30  # a job still running after this counts as failed
# Fewest rounds in a CLI run.  A cli-variety round takes 12-17 s on a 2-core
# VM, close to --seconds 15: with one round as the minimum, a slow first
# round alone would make a one-round run, and runs would flip between one
# and two rounds by seed.  A cli-member round takes 4-6 s, so runs flipped
# between three and four rounds with the speed of the machine; four rounds
# (224 jobs) give its 90th percentile 22 jobs beyond it in every run.
MIN_CLI_ROUNDS = {"cli-variety": 2, "cli-member": 4}
BUDGET_PER_SECOND = 10  # no job or reference runs past 10 x --seconds into a run
# References run two at a time (never more than the cores this process may
# use): they run after the timed loops, so they do not disturb a timing.
REFERENCE_WIDTH = min(2, len(os.sched_getaffinity(0)))


class Record:
    """One attempted job: what ran, how long, and the gate's verdict."""

    def __init__(self, job, seconds, outcome, error=None, maxrss_mb=0.0):
        self.job = job
        self.seconds = seconds
        self.outcome = outcome  # dict from the child, or None on timeout/crash
        self.error = error  # set when the job failed
        self.maxrss_mb = maxrss_mb


class Pass:
    """One timed loop over whole rounds, and the spans of its traced jobs."""

    def __init__(self, min_rounds=1):
        self.min_rounds = min_rounds
        self.records = []
        self.wall = 0.0  # seconds spent in the timed loops
        self.rounds = 0
        self.cut = False  # the run's budget ran out before the pass ended
        self.spans = []  # one span list per traced process
        self.counts = []  # one counter dict per traced process

    def more(self, min_seconds, rounds):
        if self.cut:
            return False
        if rounds is not None:
            return self.rounds < rounds
        return self.wall < min_seconds or self.rounds < self.min_rounds

    def keep_trace(self, outcome):
        if outcome and "spans" in outcome:
            self.spans.append(outcome.pop("spans"))
            self.counts.append(outcome.pop("counts"))


class Run:
    def __init__(self, workload, seed, work_dir, started, seconds):
        self.workload = workload
        self.seed = seed
        self.work = work_dir
        self.started = started
        self.budget_s = BUDGET_PER_SECOND * seconds

    def left(self):
        """Seconds until the run's budget is spent."""
        return self.budget_s - (time.perf_counter() - self.started)

    def remaining(self, limit=JOB_LIMIT_S):
        return min(limit, self.left())


# ---------------------------------------------------------------------------
# children


def cli_child(args, trace):
    """Body of one forked CLI job: `cisupport <args>` with captured output."""
    import cisupport.cli as cli

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - start
    result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": seconds}
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    return result


def _module_from_report(ring, pres):
    from cisupport.cimodule import GradedModule
    from cisupport.poly import parse_poly

    amb = ring.ambient
    cols = [
        [parse_poly(amb, pres["entries"][i][j]) for i in range(pres["rows"])]
        for j in range(pres["cols"])
    ]
    return GradedModule.from_columns(ring, pres["row_twists"], cols, pres["col_twists"])


def variety_reference(job_text, kind, report, points, cone):
    """Oracle answers at the points; for `realize`, also radical equality of
    the reported ideal with the requested cone."""
    from cisupport.cimodule import residue_module
    from cisupport.groebner import Ideal, equal_up_to_radical
    from cisupport.jobspec import parse_input
    from cisupport.poly import parse_poly
    from cisupport.variety import membership

    spec = parse_input(job_text)
    ring = spec.ci_ring()
    k = residue_module(ring)
    if kind == "realize":
        module = _module_from_report(ring, report["results"]["presentation"])
    else:
        module = spec.build_module("M", ring)
    out = {"answers": [membership(ring, module, k, a) for a in points]}
    if kind == "realize":
        chi = ring.chi_ring()
        got = Ideal(chi, [parse_poly(chi, g) for g in report["results"]["variety_ideal"]])
        want = Ideal(chi, [parse_poly(chi, g) for g in cone])
        out["radical_equal"] = equal_up_to_radical(got, want)
    return out


def _betti_route(ring, module, a):
    """Membership of a in V(module) from the Groebner-engine resolution over
    the hypersurface section, not from the homotopy complex."""
    from cisupport.cimodule import CIRing, restrict_to_ring
    from cisupport.resolution import minimal_resolution

    amb = ring.ambient
    f = amb.zero()
    for i, c in enumerate(a):
        if c:
            f = f + ring.fs[i].scale(c)
    hyper = CIRing(amb, [f], validate=False)
    s = hyper.dim + 2
    betti = minimal_resolution(hyper, restrict_to_ring(module, hyper), s + 1, engine="groebner").betti
    return not (betti[s] == 0 and betti[s + 1] == 0)


def member_reference(job_text, point, has_module2):
    from cisupport.jobspec import parse_input

    spec = parse_input(job_text)
    ring = spec.ci_ring()
    answer = _betti_route(ring, spec.build_module("M", ring), point)
    if has_module2:
        answer = answer and _betti_route(ring, spec.build_module("N", ring), point)
    return answer


class JobTimeout(Exception):
    pass


class OutOfBudget(Exception):
    """The round's budget is spent: start no further job."""


def _raise_timeout(signum, frame):
    raise JobTimeout()


def crosscheck_child(round_spec, trace, deadline_s):
    """One long-lived process for a round: both oracles on every (ring,
    module) pair, through the library."""
    import cisupport.catalog  # noqa: F401  (so the tracer sees the module)
    import cisupport.cli  # noqa: F401

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    # look the functions up after install(), so traced versions are called
    from cisupport import catalog, variety
    from cisupport.cimodule import CIRing, cyclic_module
    from cisupport.field import PrimeField
    from cisupport.poly import PolyRing, parse_poly, render_poly

    signal.signal(signal.SIGALRM, _raise_timeout)
    start = time.perf_counter()
    jobs = []

    def limited(fn):
        left = min(JOB_LIMIT_S, deadline_s - (time.perf_counter() - start))
        if left <= 0:
            raise OutOfBudget()
        signal.setitimer(signal.ITIMER_REAL, left)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def attempt(ring, module, fn):
        """fn() under the limits; a timeout or an exception is recorded as
        this job's failure and gives None, and the round goes on."""
        t0 = time.perf_counter()
        try:
            return limited(fn)
        except JobTimeout:
            error = "timeout"
        except OutOfBudget:
            raise
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"[:300]
        jobs.append({"ring": ring, "module": module, "seconds": time.perf_counter() - t0,
                     "error": error})
        return None

    def build(desc):
        p, n = desc["p"], desc["n"]
        if desc["relations"] is None:
            ring = (catalog.two_var_ring if n == 2 else catalog.three_var_ring)(p)
        else:
            amb = PolyRing(list(gen.VARS[:n]), field=PrimeField(p))
            ring = CIRing(amb, [parse_poly(amb, f) for f in desc["relations"]])
        mods = dict(catalog.catalog_modules(ring))
        for name in desc["skip"]:
            del mods[name]
        for i, forms in enumerate(desc["cyclic"]):
            polys = [parse_poly(ring.ambient, f) for f in forms]
            mods[f"cyclic{i + 1}"] = cyclic_module(ring, polys)
        return ring, mods

    def both_oracles(ring, module, k, points):
        v = variety.variety_of(ring, module)
        return v, [variety.membership(ring, module, k, a) for a in points]

    cut = False
    try:
        for desc in round_spec:
            label = desc["label"]
            built = attempt(label, None, lambda: build(desc))
            if built is None:
                continue
            ring, mods = built
            points = list(itertools.product(range(desc["p"]), repeat=ring.c))
            for name, module in mods.items():
                t0 = time.perf_counter()
                got = attempt(label, name, lambda: both_oracles(ring, module, mods["k"], points))
                if got is None:
                    continue
                v, answers = got
                jobs.append({
                    "ring": label,
                    "module": name,
                    "seconds": time.perf_counter() - t0,
                    "p": desc["p"],
                    "c": ring.c,
                    "ideal": [render_poly(g) for g in v.ideal.gens],
                    "stabilized": v.stabilized,
                    "points": points,
                    "answers": answers,
                })
    except OutOfBudget:
        cut = True
    out = {"jobs": jobs, "wall": time.perf_counter() - start, "cut": cut}
    if tracer:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    return out


# ---------------------------------------------------------------------------
# CLI workloads


def _job_file(run, job):
    path = os.path.join(run.work, "jobs", hashlib.sha1(job.text.encode()).hexdigest() + ".job")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(job.text)
    return os.path.relpath(path)


def _rounds(workload, seed):
    history = []
    for r in itertools.count():
        if workload == "cli-variety":
            yield gen.variety_round(seed, r)
        else:
            yield gen.member_round(seed, r, history)


def cli_pass(run, trace, min_seconds=None, rounds=None):
    """Timed loop over whole rounds of CLI jobs, one forked child each."""
    cache_dir = os.path.relpath(os.path.join(run.work, "cache"))
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    out = Pass(MIN_CLI_ROUNDS[run.workload])
    for jobs in _rounds(run.workload, run.seed):
        if not out.more(min_seconds, rounds):
            break
        argv = []
        for job in jobs:
            extra = ["--cache-dir", cache_dir] if run.workload == "cli-member" else []
            argv.append(job.args[:1] + ["--input", _job_file(run, job)] + job.args[1:] + extra)
        t0 = time.perf_counter()
        for job, args in zip(jobs, argv):
            limit = run.remaining()
            if limit <= 0:
                out.cut = True
                break
            res = run_forked(lambda: cli_child(args, trace), limit)
            out.keep_trace(res.value)
            seconds = res.value["seconds"] if res.value else res.elapsed
            out.records.append(Record(job, seconds, res.value, res.error, res.maxrss_mb))
        out.wall += time.perf_counter() - t0
        out.rounds += 1
    return out


def gate_cli(run, records):
    """Check every record: the first report of each job against its
    reference, every later report of it byte for byte against the first.
    References run after the timed loops, REFERENCE_WIDTH at a time."""
    first = {}  # job key -> the record holding its first report
    checks = []  # (record, reference fn, judge) for references run in a child
    for rec in records:
        if rec.error or rec.job.key() in first:
            continue
        first[rec.job.key()] = rec
        verdict = reference_check(run, rec.job, rec.outcome)
        if not isinstance(verdict, gate.Verdict):
            checks.append((rec,) + verdict)
        elif not verdict.ok:
            rec.error = verdict.reason
    outcomes = map_forked([fn for _, fn, _ in checks], run.remaining, REFERENCE_WIDTH)
    for (rec, _, judge), res in zip(checks, outcomes):
        verdict = gate.Verdict(False, f"reference: {res.error}") if res.error else judge(res.value)
        if not verdict.ok:
            rec.error = verdict.reason
    for rec in records:
        ref = first.get(rec.job.key())
        if rec.error or ref is rec:
            continue
        if gate.strip_wall_time(rec.outcome["stdout"]) != gate.strip_wall_time(ref.outcome["stdout"]):
            rec.error = "report differs from the stored expected report"
        elif ref.error:
            rec.error = ref.error


def reference_check(run, job, out):
    """A Verdict where the report can be judged at once; otherwise (fn,
    judge), where fn() computes the reference in a child and judge(value)
    gives the Verdict."""
    if job.kind == "betti":
        return gate.check_betti(job, out["code"], out["stdout"], out["stderr"])
    if out["code"] != 0:
        return gate.Verdict(False, f"exit {out['code']}: {out['stderr'].strip()[:200]}")
    report = json.loads(out["stdout"])
    rng = gen.stream("reference", run.seed, job.key())
    if job.kind == "member":
        has2 = job.meta["module2"] is not None
        got = report["results"]["member"]

        def judge_member(want):
            if got != want:
                return gate.Verdict(False, f"member {got} != reference {want}")
            return gate.Verdict(True)

        return (lambda: member_reference(job.text, job.meta["point"], has2)), judge_member
    flags = report.get("flags", {})
    if flags.get("stabilized") is not True:
        return gate.Verdict(False, "not stabilized")
    ideal, points = gate.oracle_points(job, rng, report)
    checks = [(a, ideal, a) for a in points]
    if job.kind == "restrict":
        restricted, pairs = gate.restricted_points(job, rng, report)
        checks += [(s, restricted, a) for s, a in pairs]
    oracle_at = sorted({a for _, _, a in checks})
    cone = job.meta.get("cone")

    def judge_variety(value):
        oracle = dict(zip(oracle_at, value["answers"]))
        for where, polys, a in checks:
            if gate.vanishes(polys, where, job.ring.p) != oracle[a]:
                return gate.Verdict(False, f"ideal and membership oracle disagree at {where}")
        if job.kind == "realize" and not value["radical_equal"]:
            return gate.Verdict(False, "realized variety differs from the requested cone")
        return gate.Verdict(True)

    return (lambda: variety_reference(job.text, job.kind, report, oracle_at, cone)), judge_variety


# ---------------------------------------------------------------------------
# crosscheck


class CrossJob:
    """Stands in for a generated job in crosscheck records."""

    def __init__(self, ring, module):
        self.kind = "crosscheck"
        self.ring_label = ring
        self.module = module

    def key(self):
        return f"{self.ring_label}:{self.module}"


def crosscheck_pass(run, trace, min_seconds=None, rounds=None):
    """Timed loop over whole rounds, one long-lived forked child per round."""
    out = Pass()
    for r in itertools.count():
        budget = run.left()
        if not out.more(min_seconds, rounds) or budget <= 0:
            break
        spec = gen.crosscheck_round(run.seed, r)
        res = run_forked(lambda: crosscheck_child(spec, trace, budget), budget + JOB_LIMIT_S)
        out.rounds += 1
        if res.error:
            out.records.append(Record(CrossJob("round", r), res.elapsed, None, res.error, res.maxrss_mb))
            out.wall += res.elapsed
            continue
        out.keep_trace(res.value)
        out.cut = res.value["cut"]
        for j in res.value["jobs"]:
            job = CrossJob(j["ring"], j["module"])
            out.records.append(Record(job, j.get("seconds", 0.0), j, j.get("error"), res.maxrss_mb))
        out.wall += res.value["wall"]
    return out


def gate_crosscheck(records):
    """The annihilator ideal must vanish exactly where the oracle says yes."""
    for rec in records:
        if rec.error:
            continue
        j = rec.outcome
        if not j["stabilized"]:
            rec.error = "not stabilized"
            continue
        chi = [f"chi{i + 1}" for i in range(j["c"])]
        ideal = [gate.parse_poly(g, chi, j["p"]) for g in j["ideal"]]
        for a, ans in zip(j["points"], j["answers"]):
            if gate.vanishes(ideal, a, j["p"]) != ans:
                rec.error = f"oracles disagree at {tuple(a)}"
                break


# ---------------------------------------------------------------------------
# metrics


def end_to_end(records, wall, setup_s):
    attempted = len(records)
    failed = sum(1 for r in records if r.error)
    lat = sorted(r.seconds for r in records)
    deciles = statistics.quantiles(lat, n=10) if len(lat) >= 2 else lat * 9
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": ((attempted - failed) / wall if wall > 0 else 0.0, "1/s"),
        "job_p50_s": (statistics.median(lat) if lat else 0.0, "s"),
        "job_p90_s": (deciles[8] if deciles else 0.0, "s"),
        "peak_rss_mb": (max((r.maxrss_mb for r in records), default=0.0), "MB"),
        "ok_share": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
    }
    return attempted, failed, metrics
