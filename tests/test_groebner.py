import itertools
import random

import pytest

from cisupport.field import PrimeField
from cisupport.groebner import (
    Ideal,
    buchberger,
    equal_up_to_radical,
    is_regular_sequence,
    member_witness,
    normal_form,
    radical_member,
)
from cisupport.poly import PolyRing, parse_poly, render_poly


F5 = PrimeField(5)


def R2():
    return PolyRing(["x", "y"], field=F5)


def P(ring, s):
    return parse_poly(ring, s)


# ---------------------------------------------------------------------------
# buchberger


def test_monomial_generators_already_reduced():
    r = R2()
    gb = buchberger([P(r, "x^2"), P(r, "y^2")])
    assert [render_poly(g) for g in gb] == ["y^2", "x^2"]


def test_sum_and_difference_of_squares():
    r = R2()
    gb = buchberger([P(r, "x^2 - y^2"), P(r, "x^2 + y^2")])
    assert [render_poly(g) for g in gb] == ["y^2", "x^2"]


def test_single_generator_is_its_own_basis():
    r = PolyRing(["chi1", "chi2", "chi3"], field=F5)
    gb = buchberger([P(r, "chi1*chi2 - chi3^2")])
    assert [render_poly(g) for g in gb] == ["chi1*chi2 + 4*chi3^2"]


def test_mixed_ring_generators_rejected():
    r1, r2 = R2(), PolyRing(["x", "y"], field=PrimeField(3))
    with pytest.raises(ValueError):
        buchberger([P(r1, "x"), P(r2, "y")])


def test_determinism_under_generator_permutation():
    r = PolyRing(["x", "y", "z"], field=F5)
    gens = [P(r, s) for s in ("x^2 - y*z", "x*y - z^2", "y^2 + 2*x*z")]
    base = [g.terms for g in buchberger(gens)]
    for perm in itertools.permutations(gens):
        assert [g.terms for g in buchberger(list(perm))] == base


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_division_examples():
    r = R2()
    gb = buchberger([P(r, "x^2"), P(r, "y^2")])
    assert render_poly(normal_form(P(r, "x^2 + x*y"), gb)) == "x*y"
    assert normal_form(P(r, "x^2"), gb).is_zero()
    assert render_poly(normal_form(P(r, "x"), gb)) == "x"


def test_normal_form_idempotent_on_random_inputs():
    r = PolyRing(["x", "y", "z"], field=F5)
    gb = buchberger([P(r, "x^2 - y*z"), P(r, "y^3")])
    rng = random.Random(7)
    monos = [m for d in range(5) for m in r.monomials_of_degree(d)]
    for _ in range(40):
        q = r.from_terms(
            (rng.choice(monos), rng.randrange(5)) for _ in range(rng.randrange(1, 6))
        )
        nf = normal_form(q, gb)
        assert normal_form(nf, gb) == nf
        # the difference is in the ideal
        assert normal_form(q - nf, gb).is_zero()


# ---------------------------------------------------------------------------
# member witness


def test_witness_division_trace():
    r = R2()
    gens = [P(r, "x^2"), P(r, "y^2")]
    w = member_witness(P(r, "x^2*y^2"), gens)
    assert [render_poly(c) for c in w] == ["y^2", "0"]
    w2 = member_witness(P(r, "x^2"), gens)
    assert [render_poly(c) for c in w2] == ["1", "0"]
    assert member_witness(P(r, "x"), gens) is None


def test_witness_identity_holds_exactly():
    r = PolyRing(["x", "y", "z"], field=F5)
    gens = [P(r, "x^2 + y^2"), P(r, "y^2 - z^2"), P(r, "z^3")]
    rng = random.Random(3)
    for _ in range(25):
        coeffs = [
            r.from_terms(
                (m, rng.randrange(5))
                for m in r.monomials_of_degree(rng.randrange(0, 3))
            )
            for _ in gens
        ]
        f = r.zero()
        for c, g in zip(coeffs, gens):
            f = f + c * g
        w = member_witness(f, gens)
        assert w is not None
        recombined = r.zero()
        for c, g in zip(w, gens):
            recombined = recombined + c * g
        assert (f - recombined).is_zero()


def test_witness_failure_certified_by_normal_form():
    r = R2()
    gens = [P(r, "x^2"), P(r, "y^2")]
    f = P(r, "x*y")
    assert member_witness(f, gens) is None
    assert not normal_form(f, buchberger(gens)).is_zero()


# ---------------------------------------------------------------------------
# radical membership


def test_radical_membership_examples():
    r = R2()
    assert radical_member(P(r, "x*y"), [P(r, "x^2"), P(r, "y^2")])
    assert not radical_member(P(r, "x + 1"), [P(r, "x^2")])
    assert radical_member(P(r, "x"), [P(r, "x")])


def test_radical_vs_explicit_power():
    r = R2()
    ideal = [P(r, "x^2"), P(r, "y^2")]
    gb = buchberger(ideal)
    f = P(r, "x*y")
    assert normal_form(f * f, gb).is_zero()  # the independent certificate


def test_equal_up_to_radical():
    r = R2()
    assert equal_up_to_radical(Ideal(r, [P(r, "x^2")]), Ideal(r, [P(r, "x")]))
    assert not equal_up_to_radical(Ideal(r, [P(r, "x")]), Ideal(r, [P(r, "y")]))
    prod = Ideal(r, [P(r, "x")]).product(Ideal(r, [P(r, "y")]))
    assert equal_up_to_radical(Ideal(r, [P(r, "x*y")]), prod)


# ---------------------------------------------------------------------------
# krull dimension


def test_dimension_examples():
    r2 = PolyRing(["chi1", "chi2"], field=F5)
    assert Ideal(r2, [P(r2, "chi2")]).dimension() == 1
    r3 = PolyRing(["chi1", "chi2", "chi3"], field=F5)
    assert Ideal(r3, [P(r3, v) for v in ("chi1", "chi2", "chi3")]).dimension() == 0
    assert Ideal(r3, [P(r3, "chi1*chi2 - chi3^2")]).dimension() == 2
    assert Ideal(r3, []).dimension() == 3
    assert Ideal(r3, [P(r3, "1")]).dimension() == -1


def _monomial_count_growth_order(ring, lead_monos, dmax=14):
    """Independent combinatorial oracle: growth order of standard monomials."""
    from cisupport.poly import mono_divides

    counts = []
    for d in range(dmax):
        counts.append(
            sum(
                1
                for m in ring.monomials_of_degree(d)
                if not any(mono_divides(lt, m) for lt in lead_monos)
            )
        )
    order = 0
    seq = counts
    while not all(x == 0 for x in seq[-3:]):
        seq = [b - a for a, b in zip(seq, seq[1:])]
        order += 1
    return order


def test_dimension_matches_standard_monomial_growth():
    r3 = PolyRing(["chi1", "chi2", "chi3"], field=F5)
    for gens in (
        ["chi1*chi2 - chi3^2"],
        ["chi1", "chi2"],
        ["chi1*chi2", "chi2*chi3"],
        ["chi1^2", "chi2^3", "chi3^2"],
    ):
        polys = [P(r3, s) for s in gens]
        gb = buchberger(polys)
        oracle = _monomial_count_growth_order(r3, [g.lm() for g in gb])
        assert Ideal(r3, polys).dimension() == oracle


# ---------------------------------------------------------------------------
# regular sequences


def test_regular_sequence_examples():
    r3 = PolyRing(["x", "y", "z"], field=F5)
    fs = [P(r3, s) for s in ("x^2", "y^2", "z^2")]
    res = is_regular_sequence(fs)
    assert res and res.length == 3 and res.basis == buchberger(fs)
    r2 = R2()
    assert not is_regular_sequence([P(r2, "x"), P(r2, "x*y")])
    r1 = PolyRing(["x"], field=F5)
    assert is_regular_sequence([P(r1, "x^2")])


def test_regular_sequence_rejects_inhomogeneous():
    r2 = R2()
    with pytest.raises(ValueError):
        is_regular_sequence([P(r2, "x^2 + x")])


def test_degree_one_forms_are_rejected():
    r2 = R2()
    assert not is_regular_sequence([P(r2, "x"), P(r2, "y")])


def test_weighted_ring_flagged():
    r = PolyRing(["x", "y"], field=F5, weights=[1, 2])
    res = is_regular_sequence([P(r, "x^2"), P(r, "y^2")], r)
    assert res.ok and res.note


def test_default_prime_is_101():
    r = PolyRing(["x", "y"])
    assert r.field.p == 101
    gb = buchberger([P(r, "x^2 - y^2"), P(r, "x^2 + y^2")])
    assert [render_poly(g) for g in gb] == ["y^2", "x^2"]
