"""Executable property suites over the built-in catalog.

Each check returns {"property", "passed", "details"}; the CLI `check`
subcommand prints one line per property.  The acceptance tests run the same
building blocks with the full quantification demanded there.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import modlinalg
from .cache import memo
from .catalog import (
    catalog_modules,
    catalog_ses,
    dim2_hypersurface_ring,
    three_var_ring,
    two_var_ring,
)
from .cimodule import (
    CIRing,
    cyclic_module,
    free_module,
    quotient_by_element,
    residue_module,
    restrict_to_ring,
    tensor_over_base,
)
from .field import PrimeField
from .groebner import Ideal, equal_up_to_radical
from .homology import ext_k_dims, ext_module_ring_coeffs, ext_vanishes, hypersurface_betti
from .operators import chi_action, chi_action_from_family, operator_family
from .poly import PolyRing, parse_poly
from .realize import ConeSpec, certify_cone_ses, mapping_cone_module, realize_cone
from .resolution import minimal_resolution, syzygy_module
from .variety import (
    Subspace,
    complexity_estimate,
    dimension,
    membership,
    sample_points,
    substitute_linear,
    rename_ideal,
    restrict_to_subspace,
    vanishes_at,
    variety_of,
    variety_of_pair,
)


def cached_variety(ring: CIRing, module):
    key = (ring.key(), module.content_key())
    return memo("variety", key, lambda: variety_of(ring, module))


def _result(name, passed, details="", stabilized=True):
    """One property's line; an unstable variety under it marks it unstable."""
    out = {"property": name, "passed": bool(passed), "details": details}
    if not stabilized:
        out["stabilized"] = False
    return out


def _irrelevant_ideal(ring: CIRing) -> Ideal:
    chi = ring.chi_ring()
    return Ideal(chi, [chi.var_poly(i) for i in range(ring.c)])


def check_residue_full_variety(rings):
    bad = []
    for ring in rings:
        v = cached_variety(ring, residue_module(ring))
        if v.ideal.gens or not v.stabilized:
            bad.append(repr(ring))
    return _result("residue_field_has_full_variety", not bad, "; ".join(bad))


def check_finite_pd_origin(rings):
    bad = []
    for ring in rings:
        mods = catalog_modules(ring)
        for name in ("R", "cone(origin)"):
            v = cached_variety(ring, mods[name])
            if not equal_up_to_radical(v.ideal, _irrelevant_ideal(ring)):
                bad.append(f"{ring!r}:{name}")
        res = minimal_resolution(ring, mods["cone(origin)"], 2 * ring.ambient.n + 2)
        if res.projective_dimension() is None:
            bad.append(f"{ring!r}: origin cone does not terminate")
    return _result("finite_pd_means_origin_variety", not bad, "; ".join(bad))


def check_pair_intersection(rings):
    bad, unstable = [], []
    for ring in rings:
        mods = catalog_modules(ring)
        pairs = [("R/(x)", "R/(y)"), ("R/(x)", "k")]
        for a, b in pairs:
            vp = variety_of_pair(ring, mods[a], mods[b])
            va = cached_variety(ring, mods[a])
            vb = cached_variety(ring, mods[b])
            if not vp.stabilized:
                unstable.append(f"{ring!r}:{a},{b}: {vp.note}")
            elif not equal_up_to_radical(vp.ideal, va.ideal.sum(vb.ideal)):
                bad.append(f"{ring!r}:{a},{b}")
    return _result("pair_variety_is_intersection", not (bad or unstable), "; ".join(bad + unstable), not unstable)


def hom_route_membership(ring: CIRing, module, other, a) -> bool:
    """Is the nonzero direction a, over the ring's field, in V(module, other)?

    The reference for pair membership: over A = Q/(f_a), Ext^s and Ext^(s+1)
    for s = dim A + 2, in the 2-periodic part, by Groebner containments in
    the Hom complex (homology.ext_vanishes), and against k by the Betti
    numbers of the minimal resolution over A (homology.ext_k_dims): no
    rank locus is read, of R or of A.
    """
    s = ring.ambient.n + 1  # dim A + 2
    hyper = CIRing(ring.ambient, [ring.form(a)], validate=False)
    m_a, n_a = restrict_to_ring(module, hyper), restrict_to_ring(other, hyper)
    return not (ext_vanishes(hyper, m_a, n_a, s) and ext_vanishes(hyper, m_a, n_a, s + 1))


def check_self_pair_reduction(rings):
    """Membership of pairs against the Hom route, at sampled points.  k and
    syz1(k) have full varieties and M = R/(x) does not, so a pair branch
    reading one of the two loci only is wrong outside V(M) on (k, M) or on
    (M, syz1(k))."""
    bad = []
    for ring in rings:
        mods = catalog_modules(ring)
        k, m, syz = mods["k"], mods["R/(x)"], mods["syz1(k)"]
        for coords in sample_points(ring, 4, 23):
            for name, (a, b) in (("M,M", (m, m)), ("k,M", (k, m)), ("M,k", (m, k)), ("M,syz1(k)", (m, syz))):
                got = membership(ring, a, b, coords)
                if got != hom_route_membership(ring, a, b, coords):
                    bad.append(f"{ring!r}:{name}@{coords} -> {got}")
    return _result("self_pair_reduces_to_single_variety", not bad, "; ".join(bad))


def check_syzygy_invariance(rings):
    bad = []
    for ring in rings:
        mods = catalog_modules(ring)
        heavy = "K_quadric" if ring.c == 3 else "cone(chi1*chi2)"
        plan = [("R/(x)", 3), ("k", 3), (heavy, 1)]
        for name, top in plan:
            base = cached_variety(ring, mods[name])
            for n in range(1, top + 1):
                sz = syzygy_module(mods[name], n)
                v = cached_variety(ring, sz)
                if not equal_up_to_radical(base.ideal, v.ideal):
                    bad.append(f"{ring!r}:{name},n={n}")
    return _result("syzygies_preserve_variety", not bad, "; ".join(bad))


def check_ses_inclusions(rings):
    bad = []
    for ring in rings:
        for label, m1, m2, m3 in catalog_ses(ring):
            ideals = [cached_variety(ring, m).ideal for m in (m1, m2, m3)]
            for h in range(3):
                others = [ideals[t] for t in range(3) if t != h]
                prod = others[0].product(others[1])
                for g in prod.gens:
                    if not ideals[h].radical_contains(g):
                        bad.append(f"{ring!r}:{label},h={h}")
                        break
    return _result("ses_union_inclusions", not bad, "; ".join(bad))


def check_cm_dual(rings):
    bad = []
    for ring in rings:
        mods = catalog_modules(ring)
        for name in ("k", "R/(x)"):
            dual = ext_module_ring_coeffs(ring, mods[name], 0)
            v1 = cached_variety(ring, mods[name])
            v2 = cached_variety(ring, dual)
            if not equal_up_to_radical(v1.ideal, v2.ideal):
                bad.append(f"{ring!r}:{name}")
    ring2 = dim2_hypersurface_ring(rings[0].field.p if rings else 3)
    k2 = residue_module(ring2)
    dual2 = ext_module_ring_coeffs(ring2, k2, ring2.dim)
    v1 = cached_variety(ring2, k2)
    v2 = cached_variety(ring2, dual2)
    if not equal_up_to_radical(v1.ideal, v2.ideal):
        bad.append(f"{ring2!r}: k vs Ext^{ring2.dim}(k, R)")
    return _result("cm_dual_preserves_variety", not bad, "; ".join(bad))


def check_regular_quotient(p=3):
    ring = dim2_hypersurface_ring(p)
    amb = ring.ambient
    bad = []
    cases = [
        ("R", free_module(ring), amb.var_poly(1)),
        ("R/(x)", cyclic_module(ring, [amb.var_poly(0)]), amb.var_poly(1)),
    ]
    for name, mod, x in cases:
        quot, regular = quotient_by_element(mod, x)
        if not regular:
            bad.append(f"{name}: expected regular element")
            continue
        v1 = cached_variety(ring, mod)
        v2 = cached_variety(ring, quot)
        if not equal_up_to_radical(v1.ideal, v2.ideal):
            bad.append(f"{name}: variety changed")
    return _result("regular_quotient_preserves_variety", not bad, "; ".join(bad))


def standard_subspaces(ring: CIRing):
    """Axis plane, diagonal plane and a diagonal line inside the form space."""
    if ring.c != 3:
        raise ValueError("standard subspaces are defined for codimension 3")
    return [
        ("axis_plane", Subspace(ring, [[1, 0, 0], [0, 1, 0]])),
        ("diag_plane", Subspace(ring, [[1, 0, 1], [0, 1, 0]])),
        ("diag_line", Subspace(ring, [[1, 1, 1]])),
    ]


def check_intermediate_restriction(p=3):
    ring = three_var_ring(p)
    mods = catalog_modules(ring)
    bad = []
    for label, w in standard_subspaces(ring):
        inter = w.intermediate_ring()
        for name in ("k", "R/(x)"):
            m = mods[name]
            restricted = restrict_to_subspace(cached_variety(ring, m), w)
            native = cached_variety(inter, restrict_to_ring(m, inter))
            if not equal_up_to_radical(restricted, rename_ideal(native.ideal, restricted.ring)):
                bad.append(f"{label}:{name}")
    return _result("intermediate_restriction_matches_native", not bad, "; ".join(bad))


def check_equivalent_intermediates(p=3):
    ring = three_var_ring(p)
    m = catalog_modules(ring)["R/(x)"]
    rows_a = [[1, 0, 0], [0, 1, 0]]
    rows_b = [[1, 1, 0], [0, 1, 0]]
    wa = Subspace(ring, rows_a)
    wb = Subspace(ring, rows_b)
    sring = ring.s_ring(wa.r)
    ia = rename_ideal(cached_variety(wa.intermediate_ring(), restrict_to_ring(m, wa.intermediate_ring())).ideal, sring)
    ib = rename_ideal(cached_variety(wb.intermediate_ring(), restrict_to_ring(m, wb.intermediate_ring())).ideal, sring)
    # change of coordinates: rows_b = C . rows_a; points transform by C^T
    a_t = np.array(rows_a, dtype=np.int64).T
    b_t = np.array(rows_b, dtype=np.int64).T
    c_t = modlinalg.solve(a_t, b_t, ring.field.p)
    if c_t is None:
        return _result("equivalent_intermediates_linear_change", False, "no change of basis")
    c_mat = [[int(c_t[j, i]) for j in range(wa.r)] for i in range(wa.r)]
    moved = substitute_linear(ia, c_mat, ib.ring)
    ok = equal_up_to_radical(moved, ib)
    return _result("equivalent_intermediates_linear_change", ok, "" if ok else "R/(x)")


def check_cone_section(rings):
    bad = []
    for ring in rings:
        chi = ring.chi_ring()
        mods = catalog_modules(ring)
        cases = [("k", parse_poly(chi, "chi1"))]
        if ring.c >= 2:
            cases.append(("R/(x)", parse_poly(chi, "chi1 + chi2")))
        for name, p_chi in cases:
            cone = mapping_cone_module(ring, mods[name], p_chi)
            cert = certify_cone_ses(cone)
            if not all(cert.values()):
                bad.append(f"{ring!r}:{name} ses {cert}")
                continue
            vk = cached_variety(ring, cone.minimal_module())
            vm = cached_variety(ring, mods[name])
            want = vm.ideal.sum(Ideal(chi, [p_chi]))
            if not equal_up_to_radical(vk.ideal, want):
                bad.append(f"{ring!r}:{name} variety")
    return _result("mapping_cone_cuts_variety", not bad, "; ".join(bad))


def check_cone_realization(ring: CIRing, cone_polys, exhaustive=False):
    chi = ring.chi_ring()
    spec = ConeSpec([parse_poly(chi, s) for s in cone_polys])
    m = realize_cone(ring, spec)
    v = cached_variety(ring, m)
    want = Ideal(chi, spec.polys)
    if not equal_up_to_radical(v.ideal, want):
        return _result("cone_realization", False, f"ideal mismatch for {cone_polys}")
    k = residue_module(ring)
    pts = (
        list(itertools.product(range(ring.field.p), repeat=ring.c))
        if exhaustive
        else sample_points(ring, 6, 29) + [tuple([0] * ring.c)]
    )
    for coords in pts:
        if membership(ring, m, k, coords) != vanishes_at(want, coords, ring.field):
            return _result("cone_realization", False, f"oracle mismatch at {coords}")
    return _result("cone_realization", True, f"{len(pts)} points checked")


def check_tensor_split(p=3):
    q = PolyRing(["x", "y"], field=PrimeField(p))
    x2 = parse_poly(q, "x^2")
    y2 = parse_poly(q, "y^2")
    ring = CIRing(q, [x2, y2])
    free = CIRing(q, ())
    m1q = cyclic_module(free, [parse_poly(q, "x")])
    m2q = cyclic_module(free, [parse_poly(q, "y")])
    tens = tensor_over_base(m1q, m2q, ring)
    v = cached_variety(ring, tens)
    if v.ideal.gens:
        return _result("tensor_complementary_varieties", False, "tensor variety not full")
    r1 = CIRing(q, [x2])
    r2 = CIRing(q, [y2])
    native1 = cached_variety(r1, cyclic_module(r1, [parse_poly(q, "x")]))
    native2 = cached_variety(r2, cyclic_module(r2, [parse_poly(q, "y")]))
    w1 = Subspace(ring, [[1, 0]])
    w2 = Subspace(ring, [[0, 1]])
    r1a = restrict_to_subspace(v, w1)
    r2a = restrict_to_subspace(v, w2)
    ok1 = equal_up_to_radical(r1a, rename_ideal(native1.ideal, r1a.ring))
    ok2 = equal_up_to_radical(r2a, rename_ideal(native2.ideal, r2a.ring))
    return _result(
        "tensor_complementary_varieties",
        ok1 and ok2,
        "" if ok1 and ok2 else "restricted line varieties differ",
    )


def check_syzygy_ring_independence(p=3):
    q = PolyRing(["x", "y"], field=PrimeField(p))
    x2 = parse_poly(q, "x^2")
    y2 = parse_poly(q, "y^2")
    a_ring = CIRing(q, [x2])
    b_ring = CIRing(q, [x2, y2])
    pd_ab = 1  # y^2 is regular on A, so B has a length-1 free A-resolution
    bad = []
    for name, mod in (("k", residue_module(b_ring)), ("R/(y)", cyclic_module(b_ring, [parse_poly(q, "y")]))):
        for n in range(0, 3):
            over_b = restrict_to_ring(syzygy_module(mod, n), a_ring)
            over_a = syzygy_module(restrict_to_ring(mod, a_ring), n)
            upto = pd_ab + 3
            db = ext_k_dims(a_ring, over_b, upto)
            da = ext_k_dims(a_ring, over_a, upto)
            for i in range(pd_ab + 1, upto + 1):
                if db[i] != da[i]:
                    bad.append(f"{name},n={n},i={i}: {db[i]} vs {da[i]}")
    return _result("syzygy_ring_independence", not bad, "; ".join(bad))


def check_dimension_equals_complexity(rings):
    bad = []
    for ring in rings:
        mods = catalog_modules(ring)
        for name, m in mods.items():
            res = minimal_resolution(ring, m, 12)
            est = complexity_estimate(res.betti)
            v = cached_variety(ring, m)
            if not est.reliable or est.value != dimension(v):
                bad.append(f"{ring!r}:{name} cx={est.value} dim={dimension(v)}")
    return _result("dimension_equals_complexity", not bad, "; ".join(bad))


def check_operator_invariants(rings):
    window = 10
    bad = []
    for ring in rings:
        mods = catalog_modules(ring)
        for name in ("k", "R/(x)", "cone(origin)"):
            m = mods[name]
            res = minimal_resolution(ring, m, window)
            fam = operator_family(ring, res)
            try:
                fam.verify_identity()
                fam.verify_chain_property()
            except AssertionError as exc:
                bad.append(f"{ring!r}:{name}: {exc}")
                continue
            e1 = chi_action_from_family(fam)
            e1.verify_commutativity()
            e2 = chi_action_from_family(operator_family(ring, res, strategy="reverse"))
            e3 = chi_action(ring, m, window)
            for i in range(ring.c):
                for n in range(0, window - 1):
                    if not (
                        np.array_equal(e1.chi(i, n), e2.chi(i, n))
                        and np.array_equal(e1.chi(i, n), e3.chi(i, n))
                    ):
                        bad.append(f"{ring!r}:{name}: action mismatch at ({i},{n})")
                        break
    return _result("operator_invariants", not bad, "; ".join(bad))


def check_oracle_agreement(ring: CIRing, sample=8):
    """Membership oracle vs annihilator vanishing over sampled directions."""
    mods = catalog_modules(ring)
    k = mods["k"]
    mismatches = []
    pts = sample_points(ring, sample, 31) + [tuple([0] * ring.c)]
    for name, m in mods.items():
        v = cached_variety(ring, m)
        for coords in pts:
            oracle = membership(ring, m, k, coords)
            ann = vanishes_at(v.ideal, coords, ring.field)
            if oracle != ann:
                mismatches.append(f"{name}@{coords}")
    return _result(
        "oracle_agreement",
        not mismatches,
        f"{len(pts)} points x {len(mods)} modules"
        + ("" if not mismatches else "; mismatches: " + ", ".join(mismatches[:5])),
    )


def check_scaling_invariance(ring: CIRing):
    """Membership is constant on the scalar multiples of sampled directions.

    The scalars are 2..min(p - 1, 7): each costs one membership call per
    point, so over a large field this stays a bounded spot check.  The
    oracle keeps its ranks per projective point, so a scaled direction
    reads the answer kept for the direction itself; each scaled direction
    is therefore also decided from the table of f_{lambda a} alone, by
    hypersurface_betti over Q/(f_{lambda a}): the RankLocus of that
    hypersurface ring, apart from the one the oracle reads.
    """
    mods = catalog_modules(ring)
    k = mods["k"]
    m = mods["R/(x)"]
    s = ring.ambient.n + 1  # dim Q/(f) + 2
    bad = []
    for coords in sample_points(ring, 4, 37):
        base = membership(ring, m, k, coords)
        for lam in range(2, min(ring.field.p, 8)):
            scaled = tuple(lam * c % ring.field.p for c in coords)
            hyper = CIRing(ring.ambient, [ring.form(scaled)], validate=False)
            alone = any(hypersurface_betti(hyper, m, s + 1)[s:])
            if not membership(ring, m, k, scaled) == alone == base:
                bad.append(f"{coords} vs {scaled}")
    return _result("membership_scaling_invariance", not bad, "; ".join(bad))


def run_check(p_small: int = 3):
    """The full property battery; returns a list of per-property results."""
    rings = [two_var_ring(p_small), three_var_ring(p_small)]
    chi3 = three_var_ring(p_small).chi_ring()
    results = [
        check_residue_full_variety(rings),
        check_finite_pd_origin(rings),
        check_pair_intersection(rings),
        check_self_pair_reduction(rings),
        check_syzygy_invariance(rings),
        check_ses_inclusions(rings),
        check_cm_dual(rings),
        check_regular_quotient(p_small),
        check_intermediate_restriction(p_small),
        check_equivalent_intermediates(p_small),
        check_cone_section(rings),
        check_cone_realization(three_var_ring(p_small), ["chi1*chi2 - chi3^2"]),
        check_tensor_split(p_small),
        check_syzygy_ring_independence(p_small),
        check_dimension_equals_complexity(rings),
        check_operator_invariants(rings),
        check_oracle_agreement(two_var_ring(p_small)),
        check_scaling_invariance(two_var_ring(p_small)),
    ]
    return results
