"""The rank locus of a module's homotopies against an independent reference
and against the membership oracle.

The reference reads the same homotopy_constants table as homology.RankLocus
but shares nothing else with it: on each line {x u + v} it assembles D_0 and
D_1 over GF(p)[x] in sympy, and sympy's invariant factors give the generic
rank and the gcd of all r-minors (their product).  The locus on the chart
is the zero set of that gcd, or the whole line when the generic ranks fall
short; the point u itself is read on the chart {u + x v} at x = 0.  The
src locus (RankLocus.on_line, and RankLocus.contains) and the membership
oracle are checked against it at every point of P^(c-1)(F_p) and, for
p <= 3, at every point over F_{p^2} of the lines used (for c = 2 that line
is all of P^1).

The two-rank reading of the periodic tail is checked against a routine that
builds and ranks every Shamash differential, the candidate points of
on_line against a copy of the route that also took the determinants of two
random compressions, and the reuse of each line's answer across a degree
ladder by spies.
"""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, Poly as SymPoly, symbols
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from cisupport import homology, modlinalg, variety
from cisupport.cache import clear_memo
from cisupport.catalog import catalog_modules, three_var_ring, two_var_ring
from cisupport.cimodule import CIRing, residue_module, restrict_to_ring
from cisupport.field import ExtField, PrimeField
from cisupport.groebner import Ideal, equal_up_to_radical
from cisupport.homology import RankLocus, rank_locus
from cisupport.poly import parse_poly
from cisupport.realize import ConeSpec, realize_cone
from cisupport.resolution import minimal_resolution
from cisupport.variety import PointK, membership, variety_of

from basechange import base_change_module, base_change_ring

X = symbols("x")


def chart_divisor(ring, module, u, v):
    """(whole, coefficients low first): on the chart x u + v, whether the
    generic ranks of D_0 and D_1 over GF(p)(x) sum below N, and otherwise
    the product of the gcds of their r-minors."""
    p = ring.field.p
    reader = rank_locus(ring, module).reader()
    betti, table = reader.betti, reader.table
    dom = GF(p)[X]
    lin = [u[j] * dom.convert(X) + v[j] for j in range(ring.c)]
    rank, divisor = 0, dom.one
    for parity in (0, 1):
        src = [i for i in range(len(betti)) if i % 2 == parity]
        dst = [i for i in range(len(betti)) if i % 2 != parity]
        col_at = dict(zip(src, itertools.accumulate([0] + [betti[i] for i in src])))
        row_at = dict(zip(dst, itertools.accumulate([0] + [betti[i] for i in dst])))
        shape = (sum(betti[i] for i in dst), sum(betti[i] for i in src))
        d = [[dom.zero] * shape[1] for _ in range(shape[0])]
        for (t, i), (alphas, stacked) in table.items():
            if i % 2 != parity:
                continue
            k = i + 2 * t - 1
            for col, alpha in enumerate(alphas):
                mono = dom.one
                for j, e in enumerate(alpha):
                    mono *= lin[j] ** e if e else dom.one  # sympy rejects 0**0
                block = stacked[:, col].reshape(betti[k], betti[i])
                for r, c in zip(*block.nonzero()):
                    d[row_at[k] + r][col_at[i] + c] += int(block[r, c]) * mono
        if 0 in shape:
            continue
        factors = [f for f in invariant_factors(DomainMatrix(d, shape, dom)) if f]
        rank += len(factors)
        for f in factors:
            divisor *= f
    whole = rank < sum(betti[0::2])
    coeffs = SymPoly(dom.to_sympy(divisor), X, modulus=p).all_coeffs()[::-1]
    return whole, [int(c) % p for c in coeffs]


class LineReference:
    """The reference locus on the line {s1 u + s2 v}."""

    def __init__(self, ring, module, u, v):
        self.u, self.v = u, v
        self.whole, self.chart = chart_divisor(ring, module, u, v)
        at_u = chart_divisor(ring, module, v, u)  # u + x v
        self.infinity = at_u[0] or at_u[1][0] == 0

    def contains(self, x, field):
        """Is x u + v (x in field), or u when x is None, in the locus?"""
        if self.whole or x is None:
            return self.whole or self.infinity
        value = field.zero
        for c in reversed(self.chart):
            value = field.add(field.mul(value, x), field.from_int(c))
        return value == field.zero

    def ideal(self, ring2):
        """The ideal of k[s1, s2] whose zero set this is."""
        if self.whole:
            return Ideal(ring2, [])
        deg = len(self.chart) - 1
        gen = ring2.from_terms(((k, deg - k), c) for k, c in enumerate(self.chart))
        if self.infinity:
            gen = gen * ring2.var_poly(1)
        if gen.degree() == 0:
            return Ideal(ring2, [ring2.var_poly(0), ring2.var_poly(1)])
        return Ideal(ring2, [gen])


def line_points(ref, field):
    """(x, coordinates) for every point of the line over field; x is None at u."""
    for x in field.elements():
        yield x, tuple(field.add(field.mul(field.from_int(a), x), field.from_int(b)) for a, b in zip(ref.u, ref.v))
    yield None, tuple(field.from_int(a) for a in ref.u)


def reference_lines(ring):
    """c = 2: the one line P^1.  c = 3: the p + 1 lines through (0, 0, 1)
    defined over F_p, which cover P^2(F_p)."""
    p = ring.field.p
    if ring.c == 2:
        return [((1, 0), (0, 1))]
    return [((1, b, 0), (0, 0, 1)) for b in range(p)] + [((0, 1, 0), (0, 0, 1))]


def repro_above_degree_bound():
    ring = two_var_ring(101)
    chi = ring.chi_ring()
    return ring, realize_cone(ring, ConeSpec([parse_poly(chi, "chi1^5 - 3*chi2^5")]))


def realized_cone(p, d):
    """The module realize builds for chi1^d + 2 chi1 chi2^(d-1) + chi2^d
    over k[x,y]/(x^2, y^2), the cones of tests/realize_cones.py."""
    ring = two_var_ring(p)
    chi = ring.chi_ring()
    text = f"chi1^{d} + 2*chi1*chi2^{d - 1} + chi2^{d}" if d > 1 else "3*chi1 + chi2"
    return ring, realize_cone(ring, ConeSpec([parse_poly(chi, text)]))


def _cases(cones=()):
    for make, ps in ((two_var_ring, (2, 3, 5)), (three_var_ring, (2, 3))):
        for p in ps:
            ring = make(p)
            for name, module in catalog_modules(ring).items():
                yield pytest.param(ring, module, id=f"{ring.ambient.n}var_p{p}-{name}")
    yield pytest.param(*repro_above_degree_bound(), id="repro_above_degree_bound")
    ring = three_var_ring(5)
    yield pytest.param(ring, catalog_modules(ring)["K_quadric"], id="repro_degree_bound_one")
    for p, d in cones:
        yield pytest.param(*realized_cone(p, d), id=f"cone_p{p}_d{d}")


@pytest.mark.parametrize("ring, module", _cases())
def test_rank_locus_matches_the_minors_reference_and_membership(ring, module):
    p, k = ring.field.p, residue_module(ring)
    locus = RankLocus(ring, module)
    ring2 = ring.chi_ring() if ring.c == 2 else ring.s_ring(2)
    fields = [PrimeField(p)] + ([ExtField(p, 2)] if p <= 3 else [])
    for u, v in reference_lines(ring):
        ref = LineReference(ring, module, u, v)
        assert equal_up_to_radical(locus.on_line(u, v, ring2), ref.ideal(ring2)), (u, v)
        for field in fields:
            for x, a in line_points(ref, field):
                want = ref.contains(x, field)
                assert membership(ring, module, k, PointK(a, field)) == want, (a, field)
                if field.e == 1:
                    assert locus.contains(a) == want, a


# ---------------------------------------------------------------------------
# two tail ranks, candidate points from one minor, answers kept per line

CONES = [(3, 2), (3, 4), (5, 3), (5, 6)]


def all_tor_ranks(field, betti, table, a, upto):
    """Tor ranks in degrees 0..upto with every Shamash differential
    d_0..d_{upto+1} built entry by entry and ranked, none reused."""

    def entry(row, n):  # the coefficient of alpha number n in one row of the table
        return tuple(int(z) for z in row[n * field.e : (n + 1) * field.e]) if field.e > 1 else int(row[n])

    blocks = {}
    for (t, i), (alphas, stacked) in table.items():
        powers = [functools.reduce(field.mul, [c for c, e in zip(a, alpha) for _ in range(e)], field.one) for alpha in alphas]
        flat = [functools.reduce(field.add, [field.mul(entry(row, n), c) for n, c in enumerate(powers)]) for row in stacked]
        blocks[(t, i)] = [flat[r * betti[i] : (r + 1) * betti[i]] for r in range(betti[i + 2 * t - 1])]
    sizes, ranks = [], []
    for m in range(upto + 2):
        src, dst, grid = homology._shamash_layout(m, len(betti) - 1)
        sizes.append(sum(betti[i] for i, _ in src))
        rows = []
        for (k, _), row in zip(dst, grid):
            for x in range(betti[k]):
                rows.append([blocks[key][x][y] if key in blocks else field.zero for (i, _), key in zip(src, row) for y in range(betti[i])])
        ranks.append(modlinalg.rank(modlinalg.regular_matrix(field, rows), field.p) // field.e if rows and rows[0] else 0)
    return [sizes[m] - ranks[m] - ranks[m + 1] for m in range(upto + 1)]


def projective_points(field, c):
    for a in itertools.product(list(field.elements()), repeat=c):
        nonzero = [x for x in a if x != field.zero]
        if nonzero and nonzero[0] == field.one:
            yield a


@pytest.mark.parametrize("ring, module", _cases(CONES))
def test_two_tail_ranks_decide_what_all_the_tor_ranks_decide(ring, module):
    p, k = ring.field.p, residue_module(ring)
    s = ring.ambient.n + 1  # the degrees membership reads: s > pd
    locus = RankLocus(ring, module)
    for field in [PrimeField(p)] + ([ExtField(p, 2)] if p <= 3 else []):
        work = ring if field.e == 1 else base_change_ring(ring, field)
        moved = module if field.e == 1 else base_change_module(module, work)
        reader = rank_locus(work, moved).reader()
        betti, table = reader.betti, reader.table
        for a in projective_points(field, ring.c):
            dims = all_tor_ranks(field, betti, table, a, s + 1)
            want = not (dims[s] == 0 and dims[s + 1] == 0)
            assert homology.TorReader(betti, table).read(field, a, (s, s + 1)) == dims[s:], a
            assert membership(ring, module, k, PointK(a, field)) == want, (a, field)
            if field.e == 1:
                assert locus.contains(a) == want, a


def reader_points(field, c):
    """The points a reader is checked at: for p <= 5 every point of F_p^c,
    the zero vector and every scalar multiple included; otherwise zero and
    each projective point with its multiples by 2 and -1 (F_101^2 has 10201
    points); over F_{p^2} zero and the multiple of each projective point by
    a scalar outside F_p."""
    if field.e == 1 and field.p <= 5:
        return list(itertools.product(list(field.elements()), repeat=c))
    if field.e == 1:
        scalars = [field.one, field.from_int(2), field.from_int(-1)]
    else:
        scalars = [next(x for x in field.elements() if any(x[1:]))]
    multiples = [tuple(field.mul(s, x) for x in a) for a in projective_points(field, c) for s in scalars]
    return [(field.zero,) * c] + multiples


@pytest.mark.parametrize("ring, module", _cases(CONES))
def test_one_reader_gives_every_tor_rank_at_every_multiple(ring, module):
    # one reader read at every point in turn and at its projective
    # representative, so a multiple of a point read before takes that
    # point's kept ranks, and a fresh reader per point, against
    # every differential built entry by entry at the point itself
    p = ring.field.p
    for field in [PrimeField(p)] + ([ExtField(p, 2)] if p <= 3 else []):
        work = ring if field.e == 1 else base_change_ring(ring, field)
        moved = module if field.e == 1 else base_change_module(module, work)
        clear_memo()
        reader = rank_locus(work, moved).reader()
        betti, table = reader.betti, reader.table
        upto = len(betti) + 3  # pd + 4
        for a in reader_points(field, ring.c):
            want = all_tor_ranks(field, betti, table, a, upto)
            assert reader.read(field, a, range(upto + 1)) == want, (a, field)
            assert reader.read(field, homology._projective(field, a), range(upto + 1)) == want, (a, field)
            assert homology.TorReader(betti, table).read(field, a, range(upto + 1)) == want, (a, field)


def compression_route(locus, u, v, ring2):
    """RankLocus.on_line as it was with two random r x r compressions U D V
    besides the elimination's last pivot, and ranks read off the pencil."""
    p = locus.ring.field.p
    rng = random.Random(repr((u, v)))
    d = locus._pencil(u, v)
    ranks, gcds = [], []
    for m in d:
        r, g = homology._generic_rank(m, p)
        for _ in range(2 if r else 0):
            left = np.array([[rng.randrange(p) for _ in range(m.shape[1])] for _ in range(r)], dtype=np.int64)
            right = np.array([[rng.randrange(p) for _ in range(r)] for _ in range(m.shape[2])], dtype=np.int64)
            rc, det = homology._generic_rank(modlinalg.matmul(modlinalg.matmul(left, m, p), right, p), p)
            if rc == r:
                g = homology._pgcd(g, det, p)
        ranks.append(r)
        gcds.append(g)
    if sum(ranks) < locus.n:
        return Ideal(ring2, [])

    def exact_at(modulus):
        e = len(modulus) - 1
        fld = ExtField(p, e, modulus)
        root = tuple(int(k == 1) for k in range(e)) if e > 1 else (-modulus[0] % p,)
        powers = [fld.one]
        while len(powers) < len(d[0]):
            powers.append(fld.mul(powers[-1], root))
        powers = np.array(powers, dtype=np.int64)
        rank = 0
        for m in d:
            if m[0].size:
                at = modlinalg.matmul(m.reshape(len(m), -1).T, powers, p).reshape(m.shape[1:] + (e,))
                rank += modlinalg.rank(modlinalg.regular_matrix(fld, at), p)
        return rank == e * locus.n

    s1, s2 = ring2.var_poly(0), ring2.var_poly(1)
    points = [
        ring2.from_terms(((k, len(h) - 1 - k), c) for k, c in enumerate(h))
        for h in homology._irreducible_factors(homology._pmul(*gcds, p), p, rng)
        if not exact_at(h)
    ]
    at_u = locus._pencil((0,) * locus.ring.c, u)
    if sum(modlinalg.rank(m[0], p) for m in at_u) < locus.n:  # x = infinity
        points.append(s2)
    if not points:
        return Ideal(ring2, [s1, s2])
    return Ideal(ring2, [functools.reduce(lambda f, g: f * g, points)])


@pytest.mark.parametrize("ring, module", _cases(CONES))
def test_candidates_from_one_minor_give_the_compression_route_ideal(ring, module):
    locus = RankLocus(ring, module)
    ring2 = ring.chi_ring() if ring.c == 2 else ring.s_ring(2)
    lines = reference_lines(ring) + variety._probes(ring)[1] if ring.c > 2 else reference_lines(ring)
    for u, v in lines:
        got, want = locus.on_line(u, v, ring2), compression_route(locus, u, v, ring2)
        assert [g.terms for g in got.gens] == [g.terms for g in want.gens], (u, v)


def _ladders():
    """(ring, module, rungs climbed, asks of on_line across them)"""
    # one line, P^1, asked for the ladder's start and on its one rung: the
    # locus' form has the cone's degree 4
    yield pytest.param(*realized_cone(5, 4), [4], 2, id="cone_p5_d4")
    # over F_2 the cone is (chi1 + chi2)^2: the start asks, then two rungs
    yield pytest.param(*realized_cone(2, 2), [1, 2], 3, id="cone_p2_d2")
    # sampled probe points; rung 1 fails at a point, rung 2 asks both probe lines
    ring = three_var_ring(7)
    yield pytest.param(ring, catalog_modules(ring)["K_quadric"], [1, 2], 2, id="3var_p7-K_quadric")


@pytest.mark.parametrize("ring, module, climbed, asks", _ladders())
def test_each_line_is_eliminated_once_across_the_ladder(ring, module, climbed, asks, monkeypatch):
    calls, rungs = [], []
    real_rank, real_line, real_ann = homology._generic_rank, RankLocus.on_line, variety.annihilator_ideal

    def spy_line(self, u, v, ring2):
        calls.append(("on_line", id(self), tuple(u), tuple(v)))
        return real_line(self, u, v, ring2)

    monkeypatch.setattr(homology, "_generic_rank", lambda m, p: calls.append(("rank",)) or real_rank(m, p))
    monkeypatch.setattr(RankLocus, "on_line", spy_line)
    monkeypatch.setattr(variety, "annihilator_ideal", lambda ext, d: rungs.append(d) or real_ann(ext, d))
    clear_memo()
    v = variety_of(ring, module)
    assert v.stabilized and rungs == climbed
    asked = [c for c in calls if c[0] == "on_line"]
    assert len(asked) == asks and len({c[1] for c in asked}) == 1  # one locus for the whole ladder
    # one elimination per D_i, right after the first ask of each line only
    seen, want = set(), []
    for c in asked:
        want += [c] + ([("rank",)] * 2 if c not in seen else [])
        seen.add(c)
    assert calls == want


def test_the_oracle_and_the_locus_take_two_ranks_per_projective_point(monkeypatch):
    calls = []
    real = modlinalg.rank
    monkeypatch.setattr(modlinalg, "rank", lambda a, p: calls.append(a.shape) or real(a, p))
    # after variety_of over F_3, c = 3, the locus has read every projective
    # point, and membership reads its kept ranks at all 27 points
    ring = three_var_ring(3)
    module, k = catalog_modules(ring)["R/(x)"], residue_module(ring)
    clear_memo()
    v = variety_of(ring, module)
    assert v.stabilized
    before = len(calls)
    points = list(itertools.product(range(3), repeat=3))
    assert [membership(ring, module, k, a) for a in points] == [variety.vanishes_at(v.ideal, a, ring.field) for a in points]
    assert len(calls) == before
    # membership alone over F_5, c = 2: two ranks for each of the six
    # projective points, the first asked from the table of its f_a alone,
    # and none for the other 18 nonzero points or for zero
    ring = two_var_ring(5)
    module, k = catalog_modules(ring)["cone(chi1*chi2)"], residue_module(ring)
    clear_memo()
    del calls[:]
    points = list(itertools.product(range(5), repeat=2))
    answers = [membership(ring, module, k, a) for a in points]
    assert answers == [a[0] * a[1] == 0 for a in points]
    assert len(calls) == 2 * 6


@pytest.mark.parametrize("moduli", [[(1, 0, 1), (2, 1, 1)], [(2, 1, 1), (1, 0, 1)]])
def test_points_with_one_coordinate_tuple_over_two_fields_are_told_apart(moduli):
    # x u + v = (1, x), its first coordinate one, has the same coordinates
    # over F_3[x]/(x^2 + 1) and over F_3[x]/(x^2 + x + 2), read in either
    # order; only the first x lies on the cone chi1^2 + chi2^2, so the
    # reader keeps each rank with its field
    ring = two_var_ring(3)
    module = realize_cone(ring, ConeSpec([parse_poly(ring.chi_ring(), "chi1^2 + chi2^2")]))
    clear_memo()
    locus = RankLocus(ring, module)
    assert [locus._at_root((0, 1), (1, 0), h) for h in moduli] == [h == (1, 0, 1) for h in moduli]


@pytest.mark.parametrize("u, v", [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 4)), ((1, 2), (0, 1))])
def test_a_point_where_only_d_1_drops_rank_is_on_the_line(u, v):
    # a synthetic table on betti (1, 2, 1): sigma_e1 on G_0 is (1, 0)^T and
    # sigma_e2 on G_1 is (0, 1), so D_0(chi) has rank 1 off chi1 = 0 and
    # D_1(chi) rank 1 off chi2 = 0, and the locus is {chi1 chi2 = 0}: (0, 1)
    # from D_0 alone, (1, 0) from D_1 alone.  On each line one of the two is
    # a root of D_1's pivot alone, or u itself
    betti = (1, 2, 1)
    table = {
        (1, 0): ([(1, 0)], np.array([[1], [0]], dtype=np.int64)),
        (1, 1): ([(0, 1)], np.array([[0], [1]], dtype=np.int64)),
    }
    ring = two_var_ring(5)
    locus = RankLocus(ring, residue_module(ring))  # k: betti (1, 2, 1) too
    locus.module_reader = homology.TorReader(betti, table)
    assert [a for a in [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4)] if locus.contains(a)] == [(1, 0), (0, 1)]
    chi = ring.chi_ring()
    s1, s2 = chi.var_poly(0), chi.var_poly(1)
    # s1 u + s2 v is (1, 0) where its second coordinate vanishes, and (0, 1)
    # where its first does
    want = Ideal(chi, [(s1.scale(u[1]) + s2.scale(v[1])) * (s1.scale(u[0]) + s2.scale(v[0]))])
    assert equal_up_to_radical(locus.on_line(u, v, chi), want)


@pytest.mark.parametrize("name", ["R/(x)", "cone(chi1*chi2)"])
def test_over_an_extension_field_the_locus_reads_tor_ranks_but_no_line(name):
    # a ring over F_9: betti_at gives the Groebner engine's Betti numbers
    # over each section, the first direction from the table of its f_a
    # alone; the line elimination is over F_p only
    ring, f9 = two_var_ring(3), ExtField(3, 2)
    work = base_change_ring(ring, f9)
    module = base_change_module(catalog_modules(ring)[name], work)
    omega = (0, 1)
    clear_memo()
    locus = rank_locus(work, module)
    for a in [(f9.one, omega), (f9.one, f9.zero), (omega, f9.one)]:
        hyper = CIRing(work.ambient, [work.form(a)], validate=False)
        want = minimal_resolution(hyper, restrict_to_ring(module, hyper), 5, engine="groebner").betti[:6]
        assert locus.betti_at(a, range(6)) == want, a
    assert locus.first == (f9.one, omega) and locus.module_reader is not None
    with pytest.raises(ValueError, match="rank loci are computed over prime fields"):
        locus.on_line((1, 0), (0, 1), work.chi_ring())


# ---------------------------------------------------------------------------
# the block split of the generic rank


@st.composite
def permuted_block_stacks(draw):
    """(p, stack): x-coefficient matrices that are block-diagonal up to a
    random permutation of rows and columns.  One to four blocks of 1 x 1 up
    to 4 x 4, 1 x k and k x 1 among them, some rank-deficient (the last row
    a multiple of the first), plus a few zero rows and columns."""
    p = draw(st.sampled_from([2, 3, 5, 101]))
    depth = draw(st.integers(1, 3))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        size = depth * r * c
        b = np.array(draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size)), dtype=np.int64)
        b = b.reshape(depth, r, c)
        if r > 1 and draw(st.booleans()):
            b[:, -1] = b[:, 0] * draw(st.integers(0, p - 1)) % p
        blocks.append(b)
    rows = sum(b.shape[1] for b in blocks) + draw(st.integers(0, 2))
    cols = sum(b.shape[2] for b in blocks) + draw(st.integers(0, 2))
    stack = np.zeros((depth, rows, cols), dtype=np.int64)
    i = j = 0
    for b in blocks:
        stack[:, i : i + b.shape[1], j : j + b.shape[2]] = b
        i, j = i + b.shape[1], j + b.shape[2]
    row_order, col_order = draw(st.permutations(range(rows))), draw(st.permutations(range(cols)))
    return p, stack[:, row_order][:, :, col_order]


def monic(f, p):
    return [x * pow(f[-1], -1, p) % p for x in f]


@settings(max_examples=300, deadline=None)
@given(permuted_block_stacks())
def test_the_block_split_gives_the_rank_and_minor_of_the_whole_elimination(case):
    # the split sums the blocks' ranks and multiplies their minors; the
    # elimination of the whole matrix, in the same pivot order within each
    # block, ends on the same minor up to a scalar
    p, stack = case
    rank, minor = homology._generic_rank(stack, p)
    whole_rank, whole_minor = homology._bareiss(stack, p)
    assert rank == whole_rank
    assert minor and monic(minor, p) == monic(whole_minor, p)
