#!/usr/bin/env python3
"""cisupport benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload cli-variety --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (the package is imported from ./src; nothing
needs building).  Workloads:

* cli-variety  CLI `variety`, `restrict`, `realize` and `betti` jobs: the
               annihilator route (slice resolutions, chi action, annihilator).
* cli-member   CLI `member` jobs with a report cache: the membership oracle
               (Groebner module bases, hypersurface homology).
* crosscheck   one process per round calling `variety_of` and `membership`
               at every point of k^c over the acceptance rings: the two
               oracles compared, with memo hits across jobs.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries per-layer metrics from spans around the package's
public functions, plus the tracing overhead.  Scratch files go to
./.perfbench (job files, the report cache, the span dump).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("cli-variety", "cli-member", "crosscheck")
SETUP_SAMPLES = 5

# numpy must not start threads: the benchmark forks after importing it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def measure_setup():
    """Median wall time of a fresh interpreter importing cisupport.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import cisupport.cli"]
    subprocess.run(cmd, env=env, check=True)  # byte-compiles once, untimed
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(span_lists, count_dicts, plain_rate, traced_rate):
    import tracer

    acc = {}
    for spans in span_lists:
        tracer.summarize(spans, acc)
    counts = {}
    for cd in count_dicts:
        for name, vals in cd.items():
            row = counts.setdefault(name, {})
            for k, v in vals.items():
                row[k] = row.get(k, 0) + v
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    m = {}
    for name in tracer.NAMES:
        row = acc.get(name, zero)
        m[f"{name}.calls"] = (row["calls"], "count")
        m[f"{name}.self_s"] = (row["self_s"], "s")
        m[f"{name}.total_s"] = (row["total_s"], "s")

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    def share(num, den):
        return num / den if den else 0.0

    m["modlinalg.rref.cells"] = (count("modlinalg.rref", "cells"), "count")
    m["cimodule.slice_matrix.cells"] = (count("cimodule.slice_matrix", "cells"), "count")
    res = "resolution.minimal_resolution"
    m[f"{res}.betti_sum"] = (count(res, "betti_sum"), "count")
    m[f"{res}.repeat_share"] = (share(count(res, "repeats"), count(res, "keyed")), "ratio")
    m["groebner.buchberger.gens_in"] = (count("groebner.buchberger", "gens_in"), "count")
    for fn in ("module_groebner", "module_syzygies"):
        m[f"groebner.{fn}.vectors_in"] = (count(f"groebner.{fn}", "vectors_in"), "count")
    reads = acc.get("cache.read_cache", zero)["calls"]
    m["cache.hit_share"] = (share(count("cache.read_cache", "hits"), reads), "ratio")
    varieties = acc.get("variety.variety_of", zero)["calls"]
    chis = acc.get("operators.chi_action", zero)["calls"]
    m["variety.chi_action_per_variety"] = (share(chis, varieties), "ratio")
    m["trace.overhead"] = (share(traced_rate, plain_rate), "ratio")
    return m


def run_workload(args, started):
    import workloads as wl

    run = wl.Run(args.workload, args.seed, WORK, started, args.seconds)
    crosscheck = args.workload == "crosscheck"
    do_pass = wl.crosscheck_pass if crosscheck else wl.cli_pass

    def gate(records):
        if crosscheck:
            wl.gate_crosscheck(records)
        else:
            wl.gate_cli(run, records)

    if not args.trace:
        setup_s = measure_setup()
        timed = do_pass(run, False, min_seconds=args.seconds)
        gate(timed.records)
        attempted, failed, metrics = wl.end_to_end(timed.records, timed.wall, setup_s)
        return attempted, failed, metrics, timed.records

    # traced run: the same rounds once plain, once traced
    plain = do_pass(run, False, min_seconds=args.seconds / 2)
    traced = do_pass(run, True, rounds=plain.rounds)
    records = plain.records + traced.records
    gate(records)
    _, _, plain_m = wl.end_to_end(plain.records, plain.wall, 0.0)
    _, _, traced_m = wl.end_to_end(traced.records, traced.wall, 0.0)
    with open(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "processes": traced.spans}, fh)
    metrics = per_layer(
        traced.spans, traced.counts, plain_m["jobs_per_s"][0], traced_m["jobs_per_s"][0]
    )
    failed = sum(1 for r in records if r.error)
    return len(records), failed, metrics, records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "cisupport", "cli.py")):
        print(f"error: no package source at {SRC}/cisupport; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cisupport.cli  # noqa: F401  (forked children inherit the import)

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "jobs"))
    attempted, failed, metrics, records = run_workload(args, started)
    if attempted == 0:
        print("error: no job completed", file=sys.stderr)
        return 1
    for rec in records:
        if rec.error:
            print(f"failed: {rec.job.kind} {rec.job.key()[:300]!r}: {rec.error}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
