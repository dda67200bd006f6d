"""Self-tests of the benchmark itself (not of the package).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _job_list(workload, seed, rounds=3):
    if workload == "crosscheck":
        return json.dumps([gen.crosscheck_round(seed, r) for r in range(rounds)])
    history = []
    out = []
    for r in range(rounds):
        jobs = (
            gen.variety_round(seed, r)
            if workload == "cli-variety"
            else gen.member_round(seed, r, history)
        )
        out += [[j.text, j.args, sorted(j.meta.items())] for j in jobs]
    return json.dumps(out)


def test_same_seed_gives_identical_job_lists():
    for workload in ("cli-variety", "cli-member", "crosscheck"):
        a = _job_list(workload, 7)
        assert a == _job_list(workload, 7)
        assert a != _job_list(workload, 8)


def test_member_rounds_repeat_a_quarter_of_jobs_verbatim():
    history = []
    seen = set()
    for r in range(3):
        jobs = gen.member_round(5, r, history)
        repeats = 0
        for job in jobs:
            if job.key() in seen:
                repeats += 1
            seen.add(job.key())
        assert repeats == round(len(jobs) / 4)


def test_generated_relations_are_regular_sequences():
    from cisupport.jobspec import parse_input

    for seed in range(3):
        for job in gen.variety_round(seed, 0) + gen.member_round(seed, 0, []):
            parse_input(job.text)  # raises on a non-regular sequence


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 8.0, 0),
        ("a", 6.5, 7.5, 3),  # re-entry: counted in self, not again in total
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 1.0, 2.0, 1.0]
    acc = tracer.summarize(spans)
    assert acc["a"] == {"calls": 2, "self_s": 5.0, "total_s": 10.0}
    assert acc["b"] == {"calls": 2, "self_s": 4.0, "total_s": 6.0}
    assert acc["c"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 7.0, 0)]
    assert tracer.self_times(spans)[0] == 4.0


def _betti_record(betti, wall_ms=12):
    ring = gen.Ring(5, 2, gen.regular_sequence(gen.stream("t"), 2, 2, 2, 5, True))
    text = gen.job_text(ring, [gen.module_decl("M", "k", None, ring)[0]], "betti", [("module", "M")])
    job = gen.Job("betti", ring, text, ["betti", "--length", "5"])
    report = {"command": "betti", "results": {"betti": betti}, "version": "1", "wall_time_ms": wall_ms}
    stdout = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return workloads.Record(job, 0.01, {"code": 0, "stdout": stdout, "stderr": ""})


def test_gate_flags_a_perturbed_report():
    good = [1, 2, 3, 4, 5, 6]  # k over a 2-variable artinian CI: C(i+1, i)
    records = [_betti_record(good), _betti_record(good, wall_ms=99), _betti_record([1, 2, 3, 4, 5, 7])]
    run = workloads.Run("cli-variety", 0, None, time.perf_counter(), 15)
    workloads.gate_cli(run, records)
    assert records[0].error is None
    assert records[1].error is None  # only wall_time_ms differs
    assert records[2].error == "report differs from the stored expected report"


def test_gate_flags_a_wrong_first_report():
    rec = _betti_record([1, 2, 3, 4, 5, 7])
    workloads.gate_cli(workloads.Run("cli-variety", 0, None, time.perf_counter(), 15), [rec])
    assert "closed form" in rec.error


def test_gate_flags_oracle_disagreement():
    job = {"p": 5, "c": 2, "stabilized": True, "ideal": ["chi1 + 4*chi2"],
           "points": [[1, 1], [1, 2]], "answers": [True, False]}
    ok = workloads.Record(workloads.CrossJob("r", "m"), 0.1, dict(job))
    bad = workloads.Record(workloads.CrossJob("r", "m"), 0.1, dict(job, answers=[True, True]))
    workloads.gate_crosscheck([ok, bad])
    assert ok.error is None
    assert bad.error.startswith("oracles disagree")


def test_poly_parsing_and_points():
    names = ["chi1", "chi2", "chi3"]
    f = gate.parse_poly("3*chi1^2*chi2 + chi3 + 100*chi2^3", names, 101)
    assert f == {(2, 1, 0): 3, (0, 0, 1): 1, (0, 3, 0): 100}
    assert gate.evaluate(f, (1, 1, 1), 101) == 3
    rng = gen.stream("points")
    lin = [gate.parse_poly("chi1 + 45*chi2", names[:2], 101)]
    for q in gate.points_on(rng, lin, 2, 101):
        assert any(q) and gate.vanishes(lin, q, 101)
    conic = [gate.parse_poly("chi1*chi2 + 4*chi3^2", names, 5)]
    for q in gate.points_on(rng, conic, 3, 5):
        assert any(q) and gate.vanishes(conic, q, 5)


def _variety_record(job, ideal):
    report = {"command": "variety", "flags": {"stabilized": True}, "results": {"ideal": ideal}}
    return workloads.Record(job, 0.01, {"code": 0, "stdout": json.dumps(report), "stderr": ""})


def test_gate_flags_an_under_reported_variety():
    # R/(l) on two variables: the true variety is the line w1*chi1 + w2*chi2 = 0
    job = gen.variety_job(gen.stream("under"), ("variety", 2, False, "cyclic1", 101))
    w1, w2 = job.meta["hyperplane"]
    true = _variety_record(job, [f"{w1}*chi1 + {w2}*chi2"])
    origin_only = _variety_record(job, ["chi1", "chi2"])
    workloads.gate_cli(workloads.Run("cli-variety", 0, None, time.perf_counter(), 15), [true])
    workloads.gate_cli(workloads.Run("cli-variety", 0, None, time.perf_counter(), 15), [origin_only])
    assert true.error is None
    assert "disagree" in origin_only.error


def test_crosscheck_records_a_raising_job_and_goes_on():
    spec = [
        {"label": "bad", "relations": None, "p": 3, "n": 2, "cyclic": [], "skip": ["no such module"]},
        {"label": "2var_p3", "relations": None, "p": 3, "n": 2, "cyclic": [], "skip": []},
    ]
    out = workloads.crosscheck_child(spec, False, 60)
    assert out["jobs"][0]["error"].startswith("KeyError")
    assert len(out["jobs"]) > 1 and all("error" not in j for j in out["jobs"][1:])
    spent = workloads.crosscheck_child(spec, False, 0)
    assert spent["cut"] and spent["jobs"] == []


def test_map_forked_keeps_order_and_skips_when_no_time_is_left():
    from proc import map_forked

    fns = [lambda i=i: (time.sleep(0.05 * (3 - i)), i)[1] for i in range(3)]
    assert [o.value for o in map_forked(fns, lambda: 10, 2)] == [0, 1, 2]
    out = map_forked(fns, lambda: 0, 2)
    assert all(o.value is None and o.error.startswith("not started") for o in out)
