"""Acceptance criteria, one test per criterion, each printing a verdict line.

Exact arithmetic throughout: every comparison is exact or explicitly
"up to radical" (decided by radical membership).  Stated runtime budgets are
asserted with generous margins against wall-clock time.
"""

import itertools
import json
import time

import numpy as np

from cisupport.catalog import (
    acceptance_rings,
    catalog_modules,
    three_var_ring,
    two_var_ring,
)
from cisupport.checksuite import (
    cached_variety,
    check_cm_dual,
    check_cone_realization,
    check_equivalent_intermediates,
    check_finite_pd_origin,
    check_intermediate_restriction,
    check_pair_intersection,
    check_regular_quotient,
    check_residue_full_variety,
    check_self_pair_reduction,
    check_ses_inclusions,
    check_syzygy_invariance,
    check_tensor_split,
)
from cisupport.cimodule import residue_module
from cisupport.jobspec import parse_input
from cisupport.operators import chi_action_from_family, operator_family
from cisupport.poly import parse_poly, render_poly
from cisupport.realize import certify_cone_ses, mapping_cone_module
from cisupport.resolution import minimal_resolution
from cisupport.variety import (
    complexity_estimate,
    dimension,
    membership,
    vanishes_at,
)


def verdict(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else "")
    print(line, flush=True)
    assert ok, line


def test_criterion_01_example_betti_reproduction():
    t0 = time.monotonic()
    ring = three_var_ring(5)
    res = minimal_resolution(ring, residue_module(ring), 5)
    ok = res.betti == [1, 3, 6, 10, 15, 21]
    # d1 = (x y z) up to column permutation and sign
    d1 = res.differential(1)
    cols = {render_poly(d1.entries[0][j].monic()) for j in range(d1.ncols)}
    ok = ok and d1.nrows == 1 and cols == {"x", "y", "z"}
    elapsed = time.monotonic() - t0
    verdict(1, ok and elapsed < 10, f"betti={res.betti}, d1 columns {{x,y,z}}, {elapsed:.2f}s < 10s")


def test_criterion_02_example_mapping_cone():
    t0 = time.monotonic()
    ring = three_var_ring(5)
    k = residue_module(ring)
    chi = ring.chi_ring()
    p = parse_poly(chi, "chi1*chi2 - chi3^2")
    cone = mapping_cone_module(ring, k, p)
    res = minimal_resolution(ring, k, 5)
    blk = cone.block_matrix
    shape_ok = (blk.nrows, blk.ncols) == (11, 18)
    b4, b1, b3 = res.betti[4], res.betti[1], res.betti[3]
    # block structure: [[-d4, 0], [P4, d1]]
    block_ok = True
    d4 = res.differential(4)
    d1 = res.differential(1)
    for i in range(b3):
        for j in range(b4):
            if not (blk.entries[i][j] + d4.entries[i][j]).is_zero():
                block_ok = False
        for j in range(b4, b4 + b1):
            if not blk.entries[i][j].is_zero():
                block_ok = False
    for j in range(b4, b4 + b1):
        if blk.entries[b3][j] != d1.entries[0][j - b4]:
            block_ok = False
    # P4 carries +1 and -1 in two positions, up to permutation and global sign
    p4_entries = [blk.entries[b3][j] for j in range(b4)]
    nonzero = [e.constant_coeff() for e in p4_entries if not e.is_zero()]
    p4_ok = len(nonzero) == 2 and sorted(nonzero) == [1, 4]
    cert = certify_cone_ses(cone)
    ses_ok = all(cert.values())
    elapsed = time.monotonic() - t0
    verdict(
        2,
        shape_ok and block_ok and p4_ok and ses_ok and elapsed < 60,
        f"shape=11x18:{shape_ok}, blocks:{block_ok}, P4 +-1:{p4_ok}, ses:{cert}, {elapsed:.2f}s < 60s",
    )


def test_criterion_03_cross_oracle_agreement():
    t0 = time.monotonic()
    disagreements = []
    checked = 0
    for label, ring in acceptance_rings().items():
        p = ring.field.p
        mods = catalog_modules(ring)
        k = mods["k"]
        points = list(itertools.product(range(p), repeat=ring.c))
        for name, m in mods.items():
            v = cached_variety(ring, m)
            assert v.stabilized, f"{label}:{name} unstabilized"
            for a in points:
                checked += 1
                if membership(ring, m, k, a) != vanishes_at(v.ideal, a, ring.field):
                    disagreements.append(f"{label}:{name}@{a}")
    elapsed = time.monotonic() - t0
    verdict(
        3,
        not disagreements and elapsed < 900,
        f"{checked} point checks, {len(disagreements)} disagreements, {elapsed:.1f}s < 900s",
    )


def test_criterion_04_basic_property_suite():
    rings = [two_var_ring(3), two_var_ring(5), three_var_ring(2), three_var_ring(3)]
    results = [
        check_residue_full_variety(rings),
        check_finite_pd_origin(rings),
        check_pair_intersection(rings),
        check_self_pair_reduction(rings),
        check_syzygy_invariance(rings),
        check_ses_inclusions(rings),
        check_cm_dual(rings),           # finite length, m = dim R (0 and 2)
        check_regular_quotient(3),
    ]
    failures = [r for r in results if not r["passed"]]
    verdict(
        4,
        not failures,
        f"{len(results)} properties"
        + ("" if not failures else "; failed: " + ", ".join(f["property"] for f in failures)),
    )


def test_criterion_05_intermediate_restrictions():
    r1 = check_intermediate_restriction(3)
    r2 = check_equivalent_intermediates(3)
    verdict(
        5,
        r1["passed"] and r2["passed"],
        f"3 subspaces (two planes, one line): {r1['passed']}; equal row spaces: {r2['passed']}",
    )


def test_criterion_06_realizability():
    t0 = time.monotonic()
    r = check_cone_realization(three_var_ring(3), ["chi1*chi2 - chi3^2"], exhaustive=True)
    elapsed = time.monotonic() - t0
    verdict(6, r["passed"] and elapsed < 600, f"{r['details']}, {elapsed:.1f}s < 600s")


def test_criterion_07_tensor_instance():
    r3 = check_tensor_split(3)
    r5 = check_tensor_split(5)
    verdict(7, r3["passed"] and r5["passed"], "p=3 and p=5 instances")


def test_criterion_08_dimension_equals_complexity():
    bad = []
    for label, ring in acceptance_rings().items():
        mods = catalog_modules(ring)
        for name, m in mods.items():
            res = minimal_resolution(ring, m, 12)
            est = complexity_estimate(res.betti)
            dim_v = dimension(cached_variety(ring, m))
            if not est.reliable or est.value != dim_v:
                bad.append(f"{label}:{name} cx={est.value} dim={dim_v}")
    verdict(8, not bad, "all catalog modules" if not bad else "; ".join(bad))


def test_criterion_09_operator_invariants():
    bad = []
    window = 10
    for label, ring in acceptance_rings().items():
        mods = catalog_modules(ring)
        for name, m in mods.items():
            res = minimal_resolution(ring, m, window)
            fam = operator_family(ring, res)
            try:
                fam.verify_identity()
                fam.verify_chain_property()
            except AssertionError as exc:
                bad.append(f"{label}:{name}: {exc}")
                continue
            e_f = chi_action_from_family(fam)
            try:
                e_f.verify_commutativity()
            except AssertionError as exc:
                bad.append(f"{label}:{name}: {exc}")
                continue
            e_r = chi_action_from_family(operator_family(ring, res, strategy="reverse"))
            for i in range(ring.c):
                for n in range(0, window - 1):
                    if not np.array_equal(e_f.chi(i, n), e_r.chi(i, n)):
                        bad.append(f"{label}:{name}: strategy mismatch ({i},{n})")
                        break
    verdict(9, not bad, "identity, commutativity, witness independence at window 10"
            if not bad else "; ".join(bad[:3]))


def test_criterion_10_determinism_and_cache(tmp_path):
    from cisupport.cli import run_job

    job_text = """\
field 3
ring x y
relations x^2 ; y^2
module M
twists 0
columns x
"""
    job = parse_input(job_text)
    cache = str(tmp_path / "cache")
    results = []
    for _ in range(2):
        payload, hit = run_job(job, "variety", {"degree-bound": "4"}, cache)
        results.append((payload, hit))
    same_bytes = results[0][0] == results[1][0]
    hit_pattern = (results[0][1], results[1][1]) == (False, True)
    # the check suite, cold then cached, byte-identical
    payload_cold, hit_cold = run_job(None, "check", {}, cache)
    payload_warm, hit_warm = run_job(None, "check", {}, cache)
    check_ok = (
        payload_cold == payload_warm
        and not hit_cold
        and hit_warm
        and json.loads(payload_cold)["results"]["passed"]
    )
    verdict(
        10,
        same_bytes and hit_pattern and check_ok,
        f"repeat bytes equal: {same_bytes}; cache cold/hit: {hit_pattern}; check suite cached+passing: {check_ok}",
    )
