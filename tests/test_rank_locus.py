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
"""

import itertools

import pytest
from sympy import GF, Poly as SymPoly, symbols
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from cisupport.catalog import catalog_modules, three_var_ring, two_var_ring
from cisupport.cimodule import residue_module
from cisupport.field import ExtField, PrimeField
from cisupport.groebner import Ideal, equal_up_to_radical
from cisupport.homology import RankLocus, section_ranks
from cisupport.poly import parse_poly
from cisupport.realize import ConeSpec, realize_cone
from cisupport.variety import PointK, membership

X = symbols("x")


def chart_divisor(ring, module, u, v):
    """(whole, coefficients low first): on the chart x u + v, whether the
    generic ranks of D_0 and D_1 over GF(p)(x) sum below N, and otherwise
    the product of the gcds of their r-minors."""
    p = ring.field.p
    betti, table = section_ranks(ring, module).table(ring, module)
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


def _cases():
    for make, ps in ((two_var_ring, (2, 3, 5)), (three_var_ring, (2, 3))):
        for p in ps:
            ring = make(p)
            for name, module in catalog_modules(ring).items():
                yield pytest.param(ring, module, id=f"{ring.ambient.n}var_p{p}-{name}")
    yield pytest.param(*repro_above_degree_bound(), id="repro_above_degree_bound")
    ring = three_var_ring(5)
    yield pytest.param(ring, catalog_modules(ring)["K_quadric"], id="repro_degree_bound_one")


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
