import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisupport import homology, modlinalg
from cisupport.cache import clear_memo
from cisupport.catalog import catalog_modules, three_var_ring, two_var_ring
from cisupport.checksuite import hom_route_membership
from cisupport.cimodule import (
    CIRing,
    GradedModule,
    cyclic_module,
    free_module,
    residue_module,
    zero_module,
)
from cisupport.field import ExtField, PrimeField
from cisupport.groebner import Ideal, equal_up_to_radical, member_witness
from cisupport.operators import chi_action
from cisupport.poly import PolyRing, mono_mul, parse_poly, render_poly
from cisupport.resolution import minimal_resolution
from cisupport.variety import (
    PointK,
    Subspace,
    SupportVariety,
    _monic_candidates,
    _probes,
    annihilator_ideal,
    complexity_estimate,
    dimension,
    intersection_variety,
    irreducible_principal,
    membership,
    rename_ideal,
    restrict_to_subspace,
    sample_points,
    substitute_linear,
    union_variety,
    vanishes_at,
    variety_of,
    variety_of_pair,
)

from basechange import base_change_module, base_change_ring


def P(ring, s):
    return parse_poly(ring, s)


# ---------------------------------------------------------------------------
# membership oracle


def test_membership_examples_over_two_variable_ring():
    ring = two_var_ring(5)
    q = ring.ambient
    m = cyclic_module(ring, [P(q, "x")])
    k = residue_module(ring)
    assert membership(ring, m, k, (1, 0))
    assert not membership(ring, m, k, (0, 1))
    assert membership(ring, m, k, (0, 0))
    assert not membership(ring, free_module(ring), k, (2, 3))


def test_membership_scaling_invariance():
    ring = two_var_ring(5)
    q = ring.ambient
    m = cyclic_module(ring, [P(q, "x")])
    k = residue_module(ring)
    for a in ((1, 0), (1, 1), (2, 3)):
        base = membership(ring, m, k, a)
        for lam in range(2, 5):
            assert membership(ring, m, k, tuple(lam * c % 5 for c in a)) == base


def test_membership_over_extension_point():
    ring = two_var_ring(3)
    q = ring.ambient
    m = cyclic_module(ring, [P(q, "x")])
    k = residue_module(ring)
    f9 = ExtField(3, 2)
    omega = next(a for a in f9.elements() if a[1] != 0)
    # variety of R/(x) is the chi2 axis: (omega, 0) lies inside, (0, omega) not
    assert membership(ring, m, k, PointK((omega, f9.zero), f9))
    assert not membership(ring, m, k, PointK((f9.zero, omega), f9))


@pytest.mark.parametrize("char", ["F_5", "F_25"])
def test_a_point_of_another_characteristic_is_rejected(char):
    # read as before, the F_5 point (3, 1) became the F_3 point (0, 1), and
    # the F_25 point (1, 0) base-changed the ring over F_3 to F_25
    ring = two_var_ring(3)
    m = cyclic_module(ring, [P(ring.ambient, "x")])
    f25 = ExtField(5, 2)
    point = PointK((3, 1), PrimeField(5)) if char == "F_5" else PointK((f25.one, f25.zero), f25)
    with pytest.raises(ValueError, match="characteristic 5"):
        membership(ring, m, residue_module(ring), point)


@pytest.mark.parametrize("route", ["k", "pair"])
def test_int_coordinates_of_a_point_over_f9_are_read_as_elements_of_f9(route):
    # ints name the elements of F_3 inside F_9 on either route; they used to
    # reach the arithmetic of F_9 as ints and raise TypeError
    ring = two_var_ring(3)
    m = cyclic_module(ring, [P(ring.ambient, "x")])
    other = residue_module(ring) if route == "k" else m
    f9 = ExtField(3, 2)
    for ints, elements in (((1, 0), (f9.one, f9.zero)), ((0, 4), (f9.zero, f9.one)), ((2, 1), (f9.from_int(2), f9.one))):
        want = membership(ring, m, other, ints)
        assert membership(ring, m, other, PointK(ints, f9)) == membership(ring, m, other, PointK(elements, f9)) == want


def test_k_membership_over_f9_reads_the_f3_table(monkeypatch):
    # each point of P^1(F_9) reads the module's table over F_3 in F_9: one
    # ambient resolution, over F_3, and no module over F_9 is built; the
    # answers are those of the module base-changed to F_9
    ring, f9 = two_var_ring(3), ExtField(3, 2)
    k = residue_module(ring)
    points = [(f9.one, x) for x in f9.elements()] + [(f9.zero, f9.one)]
    s = ring.ambient.n + 1  # the degrees membership reads
    real_ambient, real_module = homology.AmbientResolution, GradedModule.__init__
    for name, module in catalog_modules(ring).items():
        built, fields = [], set()
        with monkeypatch.context() as mp:
            mp.setattr(homology, "AmbientResolution", lambda m: built.append(m.ring.field) or real_ambient(m))
            mp.setattr(GradedModule, "__init__", lambda m, r, *a, **kw: fields.add(r.field) or real_module(m, r, *a, **kw))
            clear_memo()
            got = [membership(ring, module, k, PointK(a, f9)) for a in points]
        assert built == [ring.field] and fields <= {ring.field}, name
        work = base_change_ring(ring, f9)
        moved_module = base_change_module(module, work)
        assert got == [any(homology.rank_locus(work, moved_module).betti_at(a, (s, s + 1))) for a in points], name


def test_membership_pair_general_second_argument():
    ring = two_var_ring(3)
    q = ring.ambient
    mx = cyclic_module(ring, [P(q, "x")])
    my = cyclic_module(ring, [P(q, "y")])
    # V(M,N) = V(M) cap V(N) = {0} here, so no nonzero direction is a member
    assert not membership(ring, mx, my, (1, 0))
    assert not membership(ring, mx, my, (0, 1))
    assert not membership(ring, mx, my, (1, 1))
    assert membership(ring, mx, my, (0, 0))


def test_a_module_over_a_larger_ring_is_refused_where_its_locus_is_read():
    # Q/(x) presented over Q is no module over R = Q/(x^2, y^2): f_1..f_c
    # have no homotopies on its resolution; every reader of a rank locus
    # names the two rings instead of failing in the homotopy solve or
    # answering a pair from it
    ring = two_var_ring(3)
    q = ring.ambient
    over_q = cyclic_module(CIRing(q, ()), [P(q, "x")])
    mx, my, k = cyclic_module(ring, [P(q, "x")]), cyclic_module(ring, [P(q, "y")]), residue_module(ring)
    section = CIRing(q, [ring.form((1, 0))], validate=False)
    calls = [
        lambda: variety_of(ring, over_q),
        lambda: variety_of_pair(ring, mx, over_q),
        lambda: membership(ring, mx, over_q, (1, 0)),
        lambda: membership(ring, my, over_q, (1, 0)),  # (1, 0) is outside V(R/(y))
        lambda: membership(ring, over_q, k, (1, 0)),
        lambda: homology.hypersurface_betti(section, over_q, 4),
    ]
    for call in calls:
        clear_memo()
        with pytest.raises(ValueError, match=r"the module is over CIRing\(\('x', 'y'\) / \(\)\), which is neither "):
            call()
    # a module over R is one over each of its sections
    assert homology.hypersurface_betti(section, mx, 4) == [1, 2, 2, 2, 2]


def _projective_points(field, c):
    """One point of each line of field^c: first nonzero coordinate one."""
    points = itertools.product(list(field.elements()), repeat=c)
    return [a for a in points if next((x for x in a if x != field.zero), None) == field.one]


def _pair_cases():
    for make, p in ((two_var_ring, 3), (three_var_ring, 2)):
        ring = make(p)
        yield f"catalog_{ring.c}var_p{p}", ring, catalog_modules(ring)
    q = PolyRing(["x", "y", "z"], field=PrimeField(7))
    ring = CIRing(q, [P(q, "x^2 + y^2"), P(q, "y^2 + 3*z^2"), P(q, "x*z + 5*y^2")])
    mods = {"k": residue_module(ring)}
    for rels in (["x + 2*y"], ["x + 2*y", "z"], ["z"]):
        mods[f"R/({', '.join(rels)})"] = cyclic_module(ring, [P(q, r) for r in rels])
    yield "nonmonomial_p7", ring, mods


@pytest.mark.parametrize("case", list(_pair_cases()), ids=lambda c: c[0])
def test_pair_membership_is_the_hom_route_at_every_point(case):
    # V(M, N) = V(M) cap V(N): membership reads the two rank loci, the
    # reference restricts both modules to each section and decides Ext there
    # by Groebner containments in the Hom complex
    _, ring, mods = case
    for a in _projective_points(ring.field, ring.c):
        for (m, mod), (n, other) in itertools.product(mods.items(), repeat=2):
            assert membership(ring, mod, other, a) == hom_route_membership(ring, mod, other, a), (m, n, a)


def test_the_hom_route_against_k_reads_no_tor_reader(monkeypatch):
    # the reference for (M, k) reads the minimal resolution over each
    # section, not the TorReader that membership reads: with every Tor rank
    # read as zero, membership changes and the reference does not
    ring = two_var_ring(3)
    mods = catalog_modules(ring)
    k = mods["k"]
    asks = [(m, a) for m in mods for a in _projective_points(ring.field, ring.c)]
    clear_memo()
    want = [hom_route_membership(ring, mods[m], k, a) for m, a in asks]
    clear_memo()
    monkeypatch.setattr(homology.TorReader, "read", lambda self, field, a, degrees: [0 for _ in degrees])
    assert [hom_route_membership(ring, mods[m], k, a) for m, a in asks] == want
    assert [membership(ring, mods[m], k, a) for m, a in asks] != want


def test_pair_membership_over_f9_is_the_base_changed_hom_route():
    ring, f9 = two_var_ring(3), ExtField(3, 2)
    work = base_change_ring(ring, f9)
    mods = catalog_modules(ring)
    moved = {name: base_change_module(mod, work) for name, mod in mods.items()}
    for a in _projective_points(f9, ring.c):
        for m, n in itertools.product(mods, repeat=2):
            want = hom_route_membership(work, moved[m], moved[n], a)
            assert membership(ring, mods[m], mods[n], PointK(a, f9)) == want, (m, n, a)


# ---------------------------------------------------------------------------
# annihilator route


def test_variety_examples():
    ring = two_var_ring(5)
    q = ring.ambient
    vk = variety_of(ring, residue_module(ring))
    assert vk.ideal.is_zero() and vk.stabilized
    vfree = variety_of(ring, free_module(ring))
    assert sorted(render_poly(g) for g in vfree.ideal.gens) == ["chi1", "chi2"]
    vx = variety_of(ring, cyclic_module(ring, [P(q, "x")]))
    assert [render_poly(g) for g in vx.ideal.gens] == ["chi2"]
    assert vx.stabilized


@pytest.mark.parametrize("bound", [0, -3])
def test_degree_bound_below_one_is_rejected(bound):
    ring = two_var_ring(5)
    module = cyclic_module(ring, [P(ring.ambient, "x")])
    with pytest.raises(ValueError, match="degree bound"):
        variety_of(ring, module, degree_bound=bound)


def test_a_ring_without_defining_forms_has_no_variety():
    # codimension 0: k[chi] has no coordinates, so variety_of refuses the
    # ring before any chi action is built
    q = PolyRing(["x", "y"], field=PrimeField(3))
    ring = CIRing(q, [])
    with pytest.raises(ValueError, match="no chi coordinates"):
        variety_of(ring, residue_module(ring))


def test_variety_of_zero_module_is_origin():
    ring = two_var_ring(3)
    v = variety_of(ring, zero_module(ring))
    assert sorted(render_poly(g) for g in v.ideal.gens) == ["chi1", "chi2"]


def test_annihilator_examples():
    ring = two_var_ring(5)
    q = ring.ambient
    e = chi_action(ring, cyclic_module(ring, [P(q, "x")]), 10)
    ann = annihilator_ideal(e, 1)
    assert [render_poly(g) for g in ann.gens] == ["chi2"]
    efree = chi_action(ring, free_module(ring), 6)
    annf = annihilator_ideal(efree, 2)
    assert sorted(render_poly(g) for g in annf.gens) == ["chi1", "chi2"]
    ring3 = three_var_ring(5)
    ek = chi_action(ring3, residue_module(ring3), 10)
    assert annihilator_ideal(ek, 2).is_zero()


def test_variety_of_pair_shortcuts_and_intersection():
    ring = two_var_ring(3)
    q = ring.ambient
    mx = cyclic_module(ring, [P(q, "x")])
    my = cyclic_module(ring, [P(q, "y")])
    k = residue_module(ring)
    v1 = variety_of_pair(ring, mx, k)
    assert equal_up_to_radical(v1.ideal, variety_of(ring, mx).ideal)
    v2 = variety_of_pair(ring, mx, my)
    want = Ideal(ring.chi_ring(), [P(ring.chi_ring(), "chi1"), P(ring.chi_ring(), "chi2")])
    assert equal_up_to_radical(v2.ideal, want)
    v3 = variety_of_pair(ring, free_module(ring), mx)
    assert equal_up_to_radical(v3.ideal, want)


def test_union_and_intersection():
    ring = two_var_ring(3)
    chi = ring.chi_ring()
    q = ring.ambient
    vx = variety_of(ring, cyclic_module(ring, [P(q, "x")]))
    vy = variety_of(ring, cyclic_module(ring, [P(q, "y")]))
    inter = intersection_variety(vx, vy)
    assert equal_up_to_radical(inter.ideal, Ideal(chi, [P(chi, "chi1"), P(chi, "chi2")]))
    uni = union_variety(vx, vy)
    assert equal_up_to_radical(uni.ideal, Ideal(chi, [P(chi, "chi1*chi2")]))
    # union with the whole space leaves it whole
    vk = variety_of(ring, residue_module(ring))
    assert union_variety(vx, vk).ideal.is_zero()
    # intersection with the whole space changes nothing
    assert equal_up_to_radical(intersection_variety(vx, vk).ideal, vx.ideal)


# ---------------------------------------------------------------------------
# cross-oracle agreement (small exhaustive)


def test_cross_oracle_agreement_exhaustive_two_var_p3():
    ring = two_var_ring(3)
    mods = catalog_modules(ring)
    k = mods["k"]
    for name, m in mods.items():
        v = variety_of(ring, m)
        assert v.stabilized, name
        for a in itertools.product(range(3), repeat=2):
            oracle = membership(ring, m, k, a)
            assert oracle == vanishes_at(v.ideal, a, ring.field), (name, a)


@pytest.mark.parametrize("p", [7, 11, 13, 101])
def test_sampled_probes_are_eight_distinct_projective_points(p):
    ring = three_var_ring(p)
    assert ring.c == 3
    points, lines = _probes(ring)
    assert len(points) == len(set(points)) == 8
    for a in points:
        assert len(a) == 3 and all(0 <= x < p for x in a)
        assert a[next(i for i, x in enumerate(a) if x)] == 1  # one point per line through 0
    assert points == _probes(ring)[0]  # seeded
    assert len(lines) == 2


@pytest.mark.parametrize(
    "p, c, want",
    [
        (7, 3, [(1, 5, 4), (0, 1, 2), (1, 6, 4), (1, 1, 6), (0, 1, 6), (0, 0, 1), (1, 5, 2), (1, 4, 3)]),
        (
            101,
            3,
            [(1, 95, 47), (1, 56, 21), (1, 62, 43), (1, 70, 72), (1, 0, 27), (1, 59, 90), (1, 95, 49), (1, 36, 56)],
        ),
        (
            3,
            4,
            [(1, 1, 0, 2), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 0), (0, 1, 1, 0), (1, 2, 0, 2)],
        ),
    ],
)
def test_sampled_probes_keep_their_points_and_order(p, c, want):
    # drawn from the seeded stream of sample_points, scaled to first
    # nonzero coordinate one, in the order drawn
    q = PolyRing([f"x{i}" for i in range(c)], field=PrimeField(p))
    ring = CIRing(q, [P(q, f"x{i}^2") for i in range(c)])
    assert _probes(ring)[0] == want


# ---------------------------------------------------------------------------
# restriction


def quadric_variety(ring):
    chi = ring.chi_ring()
    return SupportVariety(ring, Ideal(chi, [P(chi, "chi1*chi2 - chi3^2")]), True)


def test_restrict_examples():
    ring = three_var_ring(5)
    vq = quadric_variety(ring)
    w = Subspace(ring, [[1, 0, 0], [0, 1, 0]])
    out = restrict_to_subspace(vq, w)
    assert [render_poly(g) for g in out.gens] == ["s1*s2"]
    # identity subspace keeps the ideal
    wid = Subspace(ring, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    out2 = restrict_to_subspace(vq, wid)
    assert equal_up_to_radical(out2, rename_ideal(vq.ideal, out2.ring))
    # whole space restricts to the zero ideal
    vk = SupportVariety(ring, Ideal(ring.chi_ring(), []), True)
    assert restrict_to_subspace(vk, w).is_zero()


def test_rank_deficient_subspace_rejected():
    ring = three_var_ring(5)
    with pytest.raises(ValueError):
        Subspace(ring, [[1, 0, 0], [2, 0, 0]])


# ---------------------------------------------------------------------------
# dimension / complexity


def test_dimension_examples():
    ring = two_var_ring(5)
    q = ring.ambient
    assert dimension(variety_of(ring, residue_module(ring))) == 2
    assert dimension(variety_of(ring, free_module(ring))) == 0
    assert dimension(variety_of(ring, cyclic_module(ring, [P(q, "x")]))) == 1


def test_complexity_matches_growth():
    ring3 = three_var_ring(5)
    res = minimal_resolution(ring3, residue_module(ring3), 8)
    assert res.betti[:6] == [1, 3, 6, 10, 15, 21]
    est = complexity_estimate(res.betti)
    assert est.reliable and est.value == 3
    ring2 = two_var_ring(5)
    q = ring2.ambient
    res2 = minimal_resolution(ring2, cyclic_module(ring2, [P(q, "x")]), 8)
    est2 = complexity_estimate(res2.betti)
    assert est2.reliable and est2.value == 1
    res3 = minimal_resolution(ring2, free_module(ring2), 8)
    est3 = complexity_estimate(res3.betti)
    assert est3.reliable and est3.value == 0


def test_complexity_flags_non_polynomial_growth():
    bad = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    est = complexity_estimate(bad)
    assert not est.reliable


def test_complexity_needs_window():
    with pytest.raises(ValueError):
        complexity_estimate([1, 1, 1])


# ---------------------------------------------------------------------------
# irreducibility (principal case)


def test_irreducible_examples():
    ring = three_var_ring(5)
    chi = ring.chi_ring()
    assert irreducible_principal(quadric_variety(ring)).verdict == "yes"
    v2 = SupportVariety(ring, Ideal(chi, [P(chi, "chi1*chi2")]), True)
    assert irreducible_principal(v2).verdict == "no"
    v3 = SupportVariety(ring, Ideal(chi, [P(chi, "chi1")]), True)
    assert irreducible_principal(v3).verdict == "yes"
    v4 = SupportVariety(ring, Ideal(chi, [P(chi, "chi1^2")]), True)
    assert irreducible_principal(v4).verdict == "yes"  # powered single factor
    v5 = SupportVariety(
        ring, Ideal(chi, [P(chi, "chi1*chi2"), P(chi, "chi2*chi3")]), 0, True
    )
    assert irreducible_principal(v5).verdict == "unknown"


def test_irreducible_budget_exhaustion_is_flagged():
    ring = three_var_ring(101)
    chi = ring.chi_ring()
    v = SupportVariety(ring, Ideal(chi, [P(chi, "chi1*chi2 - chi3^2")]), True)
    out = irreducible_principal(v, budget_limit=10)
    assert out.verdict == "unknown"


def reference_exact_divide(f, g):
    """h with f = g*h (both homogeneous), or None: the linear system over
    monomial coefficients the irreducibility search used to solve."""
    ring = f.ring
    p = ring.field.p
    dh = f.degree() - g.degree()
    if dh < 0:
        return None
    monos_h = ring.monomials_of_degree(dh)
    monos_f = ring.monomials_of_degree(f.degree())
    idx = {m: i for i, m in enumerate(monos_f)}
    a = np.zeros((len(monos_f), len(monos_h)), dtype=np.int64)
    for j, mh in enumerate(monos_h):
        for mg, cg in g.terms:
            a[idx[mono_mul(mg, mh)], j] = cg
    b = np.zeros(len(monos_f), dtype=np.int64)
    for m, c in f.terms:
        b[idx[m]] = c
    sol = modlinalg.solve(a, b, p)
    if sol is None:
        return None
    h = ring.from_terms((monos_h[j], int(sol[j]) % p) for j in range(len(monos_h)))
    if (g * h - f).is_zero():
        return h
    return None


def test_quadric_brute_force_oracle_over_f5():
    # independent check: no linear form divides the rank-3 quadric over F_5
    chi = PolyRing(["chi1", "chi2", "chi3"], field=PrimeField(5))
    quad = P(chi, "chi1*chi2 - chi3^2")
    assert all(reference_exact_divide(quad, g) is None for g in _monic_candidates(chi, 1))
    assert all(member_witness(quad, [g]) is None for g in _monic_candidates(chi, 1))


@st.composite
def homogeneous_polys(draw, ring, degree):
    monos = ring.monomials_of_degree(degree)
    p = ring.field.p
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
    return ring.from_terms(zip(monos, coeffs))


@st.composite
def division_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    ring = PolyRing(["chi1", "chi2", "chi3"][: draw(st.integers(2, 3))], field=PrimeField(p))
    dg = draw(st.integers(1, 2))
    g = draw(homogeneous_polys(ring, dg))
    h = draw(homogeneous_polys(ring, draw(st.integers(0, 2))))
    other = draw(homogeneous_polys(ring, dg + draw(st.integers(0, 2))))
    return g, h, other


@settings(max_examples=60, deadline=None)
@given(division_cases())
def test_member_witness_quotient_equals_the_linear_algebra_divider(case):
    g, h, other = case
    if g.is_zero():
        return
    for f in (g * h, other):
        if f.is_zero():
            continue
        want = reference_exact_divide(f, g)
        got = member_witness(f, [g])
        if want is None:
            assert got is None
        else:
            assert got == [want]
    if not h.is_zero():
        assert member_witness(g * h, [g]) == [h]


def reference_evaluate_at_point(poly, coords, fld):
    """The evaluator Poly.evaluate(point, field) replaced."""
    base = poly.ring.field
    if fld is base:
        return poly.evaluate(coords)
    total = fld.zero
    for m, c in poly.terms:
        v = fld.from_int(c)
        for e, av in zip(m, coords):
            for _ in range(e):
                v = fld.mul(v, av)
        total = fld.add(total, v)
    return total


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evaluate_in_an_extension_field_equals_the_old_evaluator(data):
    for p, exts in ((2, (ExtField(2, 2), ExtField(2, 3))), (3, (ExtField(3, 2),))):
        chi = PolyRing(["chi1", "chi2"], field=PrimeField(p))
        check_evaluate(data, chi, exts)


def check_evaluate(data, chi, exts):
    f = data.draw(homogeneous_polys(chi, data.draw(st.integers(0, 4))))
    for fld in exts:
        points = list(itertools.product(list(fld.elements()), repeat=2))
        for point in data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=8)):
            assert f.evaluate(point, fld) == reference_evaluate_at_point(f, point, fld)
        assert f.evaluate((fld.one, fld.one), fld) == fld.from_int(sum(c for _, c in f.terms))


# ---------------------------------------------------------------------------
# misc


def test_sample_points_deterministic_and_nonzero():
    ring = two_var_ring(5)
    a = sample_points(ring, 6, seed=9)
    b = sample_points(ring, 6, seed=9)
    assert a == b and all(any(c for c in pt) for pt in a)


def reference_sample_points(ring, count, seed):
    """sample_points with its base-p decoding unrolled, as it was written."""
    p = ring.field.p
    c = ring.c
    out = []
    rng = random.Random(seed)
    seen = set()
    while len(out) < min(count, p**c - 1):
        t = rng.randrange(1, p**c)
        coords = []
        for _ in range(c):
            coords.append(t % p)
            t //= p
        coords = tuple(coords)
        if coords not in seen:
            seen.add(coords)
            out.append(coords)
    return out


@pytest.mark.parametrize("p", [2, 5, 101])
def test_sample_points_draw_in_the_same_order_as_before(p):
    for ring in (two_var_ring(p), three_var_ring(p)):
        for seed in (0, 11, 65536):
            assert sample_points(ring, 7, seed) == reference_sample_points(ring, 7, seed)


def test_sample_points_returns_for_every_seed():
    # 65536 was a fixed point of the old generator, which then never returned
    ring = two_var_ring(5)
    for seed in (0, 65535, 65536, 65537, 2**40):
        pts = sample_points(ring, 6, seed=seed)
        assert len(set(pts)) == 6 and all(any(pt) for pt in pts)
    assert len(set(sample_points(ring, 100, seed=65536))) == 24  # all of k^2 minus 0


def test_sample_points_cover_every_coordinate_for_large_p_and_c():
    # p^c > 65537: the old generator left the last coordinate at most 6
    q = PolyRing(["x", "y", "z"], field=PrimeField(101))
    ring = CIRing(q, [P(q, "x^2"), P(q, "y^2"), P(q, "z^2")])
    pts = sample_points(ring, 400, seed=11)
    assert len(set(pts)) == 400
    for i in range(3):
        values = [pt[i] for pt in pts]
        assert max(values) > 90 and min(values) < 10


def test_substitute_linear_change_of_coordinates():
    ring = two_var_ring(5)
    chi = ring.chi_ring()
    ideal = Ideal(chi, [P(chi, "chi1*chi2")])
    target = ring.s_ring(2)
    moved = substitute_linear(ideal, [[1, 1], [0, 1]], target)
    # chi1 -> s1, chi2 -> s1 + s2
    assert [render_poly(g) for g in moved.gens] == ["s1^2 + s1*s2"]


def test_cross_oracle_agreement_exhaustive_two_var_p2():
    ring = two_var_ring(2)
    mods = catalog_modules(ring)
    k = mods["k"]
    for name, m in mods.items():
        v = variety_of(ring, m)
        assert v.stabilized, name
        for a in itertools.product(range(2), repeat=2):
            oracle = membership(ring, m, k, a)
            assert oracle == vanishes_at(v.ideal, a, ring.field), (name, a)


def test_mixed_degree_defining_forms():
    # forms of degrees 3 and 2: operator internal degrees differ
    q = PolyRing(["x", "y"], field=PrimeField(5))
    ring = CIRing(q, [P(q, "x^3"), P(q, "y^2")])
    m = cyclic_module(ring, [P(q, "x")])
    v = variety_of(ring, m)
    assert v.stabilized
    assert [render_poly(g) for g in v.ideal.gens] == ["chi2"]
    k = residue_module(ring)
    assert membership(ring, m, k, (1, 0))
    assert not membership(ring, m, k, (0, 1))
    assert variety_of(ring, k).ideal.is_zero()
    with pytest.raises(ValueError):
        membership(ring, m, k, (1, 1))  # mixed-degree direction rejected


def test_membership_reduces_prime_field_coordinates_mod_p():
    # (3, 0) over F_3 is the zero direction: it once raised TypeError while
    # (4, 0) worked, and unreduced coordinates reached check_direction
    ring = two_var_ring(3)
    m = cyclic_module(ring, [P(ring.ambient, "x")])
    k = residue_module(ring)
    assert membership(ring, m, k, (3, 0)) is True
    assert membership(ring, m, k, PointK((3, 6), PrimeField(3))) is True
    for a in itertools.product(range(3), repeat=2):
        shifted = tuple(x + 3 * (i + 1) for i, x in enumerate(a))
        assert membership(ring, m, k, shifted) == membership(ring, m, k, a), a
    q = PolyRing(["x", "y"], field=PrimeField(3))
    mixed = CIRing(q, [P(q, "x^2"), P(q, "y^3")])
    mk = residue_module(mixed)
    assert membership(mixed, mk, mk, (3, 1)) == membership(mixed, mk, mk, (0, 1))
    with pytest.raises(ValueError):
        membership(mixed, mk, mk, (4, 1))  # (1, 1) mixes degrees 2 and 3


def test_weighted_grading_end_to_end():
    q = PolyRing(["x", "y"], field=PrimeField(5), weights=[1, 2])
    ring = CIRing(q, [P(q, "x^4"), P(q, "y^2")])
    assert ring.note  # the degree convention is flagged, not silent
    m = cyclic_module(ring, [P(q, "x")])
    v = variety_of(ring, m, degree_bound=3)
    assert v.stabilized
    assert [render_poly(g) for g in v.ideal.gens] == ["chi2"]
    k = residue_module(ring)
    assert membership(ring, m, k, (1, 0))
    assert not membership(ring, m, k, (0, 1))


def test_annihilator_window_precondition():
    ring = two_var_ring(3)
    e = chi_action(ring, residue_module(ring), 4)
    with pytest.raises(ValueError):
        annihilator_ideal(e, 2)  # window 4 < 2*2 + 2


def test_non_monomial_artinian_quotient_end_to_end():
    # engines, operator actions and both oracles on k[x,y]/(x^2 + y^2, x*y)
    import numpy as np

    from cisupport.operators import chi_action_from_family, operator_family
    from cisupport.resolution import check_complex, check_minimal

    q = PolyRing(["x", "y"], field=PrimeField(5))
    ring = CIRing(q, [P(q, "x^2 + y^2"), P(q, "x*y")])
    k = residue_module(ring)
    for m in (k, cyclic_module(ring, [P(q, "x")])):
        a = minimal_resolution(ring, m, 8, engine="slice")
        b = minimal_resolution(ring, m, 8, engine="groebner")
        assert a.betti == b.betti
        check_complex(a)
        check_minimal(a)
        e1 = chi_action(ring, m, 8)
        e1.verify_commutativity()
        fam = operator_family(ring, minimal_resolution(ring, m, 8))
        fam.verify_identity()
        fam.verify_chain_property()
        e2 = chi_action_from_family(fam)
        for i in range(2):
            for n in range(0, 7):
                assert np.array_equal(e1.chi(i, n), e2.chi(i, n))
        v = variety_of(ring, m)
        assert v.stabilized
        for pt in itertools.product(range(5), repeat=2):
            assert membership(ring, m, k, pt) == vanishes_at(v.ideal, pt, ring.field)


def test_a_pair_variety_the_oracle_disputes_is_unstable_not_an_error(monkeypatch):
    import cisupport.variety as variety_mod

    ring = two_var_ring(3)
    mx = cyclic_module(ring, [P(ring.ambient, "x")])
    k = residue_module(ring)
    assert variety_of_pair(ring, mx, k).stabilized
    monkeypatch.setattr(variety_mod, "membership", lambda *args: True)  # outside points say yes
    v = variety_of_pair(ring, mx, k)
    assert not v.stabilized
    assert v.note.startswith("the membership oracle disagrees with the annihilator ideal at ")
    assert [render_poly(g) for g in v.ideal.gens] == ["chi2"]
