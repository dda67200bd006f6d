"""CLI reports held byte for byte against committed goldens.

Each `golden/<name>.job` carries its own `command` section and runs as
`cisupport <command> --input <name>.job` from inside `golden/`.  The exit
code, stderr and stdout must equal `golden/<name>.expected`, with the
volatile `wall_time_ms` field dropped from stdout.  Any change to a report's
bytes is an engine change: bump `cache.ENGINE_VERSION` and regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import re
import sys

import pytest

from cisupport.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
JOBS = sorted(f[: -len(".job")] for f in os.listdir(GOLDEN) if f.endswith(".job"))
_WALL = re.compile(r',\n  "wall_time_ms": -?\d+(?=\n\}\n$)')
_COMMAND = re.compile(r"^command (\w+)$", re.M)


def run_golden(name):
    """(exit code, stderr, stdout without wall_time_ms) of one golden job."""
    with open(os.path.join(GOLDEN, f"{name}.job"), encoding="utf-8") as fh:
        command = _COMMAND.search(fh.read()).group(1)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", f"{name}.job"])
    finally:
        os.chdir(cwd)
    return code, err.getvalue(), _WALL.sub("", out.getvalue())


@pytest.mark.parametrize("name", JOBS)
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv("CISUPPORT_CACHE", raising=False)
    code, err, out = run_golden(name)
    with open(os.path.join(GOLDEN, f"{name}.expected"), encoding="utf-8") as fh:
        want = json.load(fh)
    assert code == want["exit"]
    assert err == want["stderr"]
    assert out == want["stdout"]


def test_golden_jobs_are_found():
    assert len(JOBS) >= 6  # an empty glob would parametrize no test at all


def test_realize_golden_above_the_degree_bound_agrees_with_member_everywhere():
    # its cone has degree 5, above the default degree bound n + c = 4
    from cisupport.cimodule import GradedModule, residue_module
    from cisupport.groebner import Ideal
    from cisupport.jobspec import parse_input
    from cisupport.pmatrix import PolyMatrix
    from cisupport.poly import parse_poly
    from cisupport.variety import membership, vanishes_at

    name = "realize_above_degree_bound"
    with open(os.path.join(GOLDEN, f"{name}.job"), encoding="utf-8") as fh:
        ring = parse_input(fh.read()).ci_ring()
    with open(os.path.join(GOLDEN, f"{name}.expected"), encoding="utf-8") as fh:
        results = json.loads(json.load(fh)["stdout"])["results"]
    chi, amb = ring.chi_ring(), ring.ambient
    ideal = Ideal(chi, [parse_poly(chi, g) for g in results["variety_ideal"]])
    assert ideal.dimension() == results["dimension"] == 1
    pres = results["presentation"]
    entries = [[parse_poly(amb, e) for e in row] for row in pres["entries"]]
    module = GradedModule(ring, PolyMatrix(amb, entries, pres["row_twists"], pres["col_twists"]))
    k = residue_module(ring)
    p = ring.field.p
    for point in [(1, b) for b in range(p)] + [(0, 1)]:  # P^1(F_101)
        assert membership(ring, module, k, point) == vanishes_at(ideal, point, ring.field), point


if __name__ == "__main__":
    os.environ.pop("CISUPPORT_CACHE", None)
    for name in JOBS:
        code, err, out = run_golden(name)
        with open(os.path.join(GOLDEN, f"{name}.expected"), "w", encoding="utf-8") as fh:
            json.dump({"exit": code, "stderr": err, "stdout": out}, fh, indent=1)
            fh.write("\n")
        print(f"{name}: exit {code}", file=sys.stderr)
