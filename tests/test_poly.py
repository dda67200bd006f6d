import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisupport.field import PrimeField
from cisupport.poly import Poly, PolyParseError, PolyRing, mono_mul, parse_poly, render_poly, sum_of_products


F5 = PrimeField(5)


def ring2():
    return PolyRing(["x", "y"], field=F5)


def test_parse_render_round_trip():
    r = PolyRing(["x", "y", "z"], field=F5)
    for text in ("3*x^2*y + z^3", "x", "4", "x*y*z", "x^2 + 4*y^2"):
        q = parse_poly(r, text)
        assert render_poly(parse_poly(r, render_poly(q))) == render_poly(q)


def test_coefficients_reduce_mod_p():
    r = ring2()
    assert render_poly(parse_poly(r, "7*x")) == "2*x"
    assert render_poly(parse_poly(r, "x - 6*x")) == "0"
    assert render_poly(parse_poly(r, "-x")) == "4*x"


def test_parse_errors_carry_positions():
    r = ring2()
    with pytest.raises(PolyParseError) as err:
        parse_poly(r, "x + w")
    assert err.value.pos == 4
    with pytest.raises(PolyParseError):
        parse_poly(r, "x^")
    with pytest.raises(PolyParseError):
        parse_poly(r, "")


def test_grevlex_order_on_standard_example():
    # degree first, then reverse lexicographic on ties
    r = PolyRing(["x", "y", "z"], field=F5)
    q = parse_poly(r, "z^2 + x^2 + y^2 + x*y + x*z + y*z")
    assert render_poly(q) == "x^2 + x*y + y^2 + x*z + y*z + z^2"


def test_arithmetic_keeps_terms_normalized():
    r = ring2()
    a = parse_poly(r, "x + y")
    b = parse_poly(r, "x - y")
    assert render_poly(a * b) == "x^2 + 4*y^2"
    assert render_poly(a + b) == "2*x"
    assert (a - a).is_zero()
    # no duplicate monomials, sorted descending
    q = a * a
    keys = [r.mono_key(m) for m, _ in q.terms]
    assert keys == sorted(keys, reverse=True)
    assert len({m for m, _ in q.terms}) == len(q.terms)


def test_homogeneity_and_degree():
    r = ring2()
    assert parse_poly(r, "x^2 + x*y").is_homogeneous()
    assert not parse_poly(r, "x^2 + x").is_homogeneous()
    assert parse_poly(r, "x^2*y").degree() == 3
    assert r.zero().degree() is None


def test_weighted_degrees():
    r = PolyRing(["x", "y"], field=F5, weights=[1, 2])
    assert parse_poly(r, "y").degree() == 2
    assert parse_poly(r, "x^2 + y").is_homogeneous()
    assert [len(r.monomials_of_degree(d)) for d in range(5)] == [1, 1, 2, 2, 3]


def test_monomials_of_degree_ordered_descending():
    r = PolyRing(["x", "y", "z"], field=F5)
    monos = r.monomials_of_degree(2)
    assert len(monos) == 6
    keys = [r.mono_key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)


def test_a_ring_without_variables_has_one_monomial_of_degree_zero():
    r = PolyRing([], field=F5)
    assert r.monomials_of_degree(0) == [()]
    assert r.monomials_of_degree(1) == r.monomials_of_degree(3) == r.monomials_of_degree(-1) == []


def test_evaluate():
    r = ring2()
    q = parse_poly(r, "x^2 + 2*y")
    assert q.evaluate((2, 3)) == (4 + 6) % 5


# ---------------------------------------------------------------------------
# zero operands take short cuts; the general path is spelled out here


def general_sum(a, b):
    return a.ring.from_terms(a.terms + b.terms)


def general_products(ring, pairs):
    f = ring.field
    return ring.from_terms(
        (mono_mul(m1, m2), f.mul(c1, c2)) for a, b in pairs for m1, c1 in a.terms for m2, c2 in b.terms
    )


def general_scale(a, c):
    f = a.ring.field
    return Poly(a.ring, ()) if c == f.zero else Poly(a.ring, tuple((m, f.mul(cc, c)) for m, cc in a.terms))


@st.composite
def polys(draw, ring):
    if draw(st.booleans()):  # half of them zero
        return ring.zero()
    monos = st.tuples(*[st.integers(0, 3)] * ring.n)
    return ring.from_terms(draw(st.lists(st.tuples(monos, st.integers(0, 4)), max_size=4)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_zero_operands_give_the_terms_and_ring_of_the_general_path(data):
    r = ring2()
    a, b = data.draw(polys(r)), data.draw(polys(r))
    for got, want in ((a + b, general_sum(a, b)), (b + a, general_sum(b, a)), (a * b, general_products(r, [(a, b)]))):
        assert got.terms == want.terms and got.ring is want.ring
    c = data.draw(st.integers(0, 4))
    assert a.scale(c).terms == general_scale(a, c).terms and a.scale(c).ring is r
    pairs = [(data.draw(polys(r)), data.draw(polys(r))) for _ in range(data.draw(st.integers(0, 4)))]
    got, want = sum_of_products(r, pairs), general_products(r, pairs)
    assert got.terms == want.terms and got.ring is want.ring
    nf = data.draw(st.sampled_from([None, lambda q: q.scale(2)]))
    assert sum_of_products(r, pairs, nf).terms == (nf(want) if nf else want).terms


def test_a_sum_with_a_zero_left_operand_keeps_the_left_ring():
    left, right = ring2(), ring2()
    x = parse_poly(right, "x + 2*y")
    assert (left.zero() + x).ring is left and (x + left.zero()).ring is right
    assert (left.zero() + x).terms == x.terms
