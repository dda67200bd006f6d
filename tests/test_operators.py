import numpy as np
import pytest

from cisupport.cimodule import CIRing, cyclic_module, free_module, residue_module
from cisupport.field import PrimeField
from cisupport.operators import (
    chi_action,
    chi_action_from_family,
    evaluate_chi_class,
    operator_family,
)
from cisupport.poly import PolyRing, parse_poly, render_poly
from cisupport.resolution import minimal_resolution

F5 = PrimeField(5)


def hypersurface_point():
    q = PolyRing(["x"], field=F5)
    return q, CIRing(q, [parse_poly(q, "x^2")])


def quadric_ring(names, p=5):
    q = PolyRing(list(names), field=PrimeField(p))
    return q, CIRing(q, [parse_poly(q, f"{v}^2") for v in names])


def test_lift_returns_reduced_representatives():
    q, r = quadric_ring("xyz")
    res = minimal_resolution(r, residue_module(r), 3)
    # the stored differentials are already the ambient lifts
    lifted = [res.differential(i) for i in range(1, res.length + 1)]
    assert lifted[0].render() == [["x", "y", "z"]]
    # entries already in normal form come back unchanged
    for mat in lifted:
        for row in mat.entries:
            for e in row:
                assert r.nf(e) == e


def test_operator_on_period_one_point():
    q, r = hypersurface_point()
    res = minimal_resolution(r, residue_module(r), 6)
    fam = operator_family(r, res)
    fam.verify_identity()
    fam.verify_chain_property()
    for n in range(2, 7):
        assert fam.t(0, n).render() == [["1"]]


def test_operator_entries_for_periodic_cyclic_module():
    q, r = quadric_ring("xy")
    m = cyclic_module(r, [parse_poly(q, "x")])
    res = minimal_resolution(r, m, 6)
    fam = operator_family(r, res)
    fam.verify_identity()
    fam.verify_chain_property()
    assert fam.t(0, 2).render() == [["1"]]
    assert fam.t(1, 2).render() == [["0"]]


def test_entry_level_witness_decomposition():
    q, r = quadric_ring("xy")
    from cisupport.groebner import member_witness

    w = member_witness(parse_poly(q, "x^2"), list(r.fs))
    assert [render_poly(c) for c in w] == ["1", "0"]


def test_chi_action_examples():
    q, r = quadric_ring("xy")
    # free module: all ext spaces vanish above degree 0
    e_free = chi_action(r, free_module(r), 4)
    assert e_free.dims == [1, 0, 0, 0, 0]
    for n in range(0, 3):
        assert e_free.chi(0, n).size == 0
    # cyclic module: one-dimensional spaces, chi1 iso, chi2 zero
    m = cyclic_module(r, [parse_poly(q, "x")])
    e = chi_action(r, m, 8)
    assert e.dims == [1] * 9
    for n in range(0, 7):
        assert e.chi(0, n).tolist() == [[1]]
        assert e.chi(1, n).tolist() == [[0]]
    e.verify_commutativity()


def test_chi_action_is_isomorphism_for_point_module():
    q, r = hypersurface_point()
    e = chi_action(r, residue_module(r), 8)
    for n in range(0, 7):
        assert e.chi(0, n).tolist() == [[1]]


def test_actions_commute_exactly_on_window():
    q, r = quadric_ring("xyz", p=3)
    for mod in (residue_module(r), cyclic_module(r, [parse_poly(q, "x")])):
        e = chi_action(r, mod, 10)
        e.verify_commutativity()


def test_fast_action_equals_family_action():
    q, r = quadric_ring("xyz", p=3)
    m = residue_module(r)
    res = minimal_resolution(r, m, 8)
    fam = operator_family(r, res)
    fam.verify_identity()
    e1 = chi_action_from_family(fam)
    e2 = chi_action(r, m, 8)
    for i in range(3):
        for n in range(0, 7):
            assert np.array_equal(e1.chi(i, n), e2.chi(i, n))


def test_witness_strategy_does_not_change_the_action():
    q, r = quadric_ring("xyz", p=3)
    m = cyclic_module(r, [parse_poly(q, "x*y")])
    res = minimal_resolution(r, m, 8)
    e_fwd = chi_action_from_family(operator_family(r, res, strategy="forward"))
    e_rev = chi_action_from_family(operator_family(r, res, strategy="reverse"))
    for i in range(3):
        for n in range(0, 7):
            assert np.array_equal(e_fwd.chi(i, n), e_rev.chi(i, n))


def test_evaluate_chi_on_point_module():
    q, r = hypersurface_point()
    chi = r.chi_ring()
    comps = evaluate_chi_class(r, residue_module(r), parse_poly(chi, "chi1"), window=5)
    for n in range(2, 6):
        assert comps[n].render() == [["1"]]


def test_evaluate_chi_induces_the_action_map():
    q, r = quadric_ring("xy", p=3)
    chi = r.chi_ring()
    k = residue_module(r)
    e = chi_action(r, k, 6)
    for var_idx, name in ((0, "chi1"), (1, "chi2")):
        comps = evaluate_chi_class(r, k, parse_poly(chi, name), window=6)
        for n in range(2, 7):
            mat = comps[n]
            scal = np.zeros((mat.nrows, mat.ncols), dtype=np.int64)
            for a in range(mat.nrows):
                for b in range(mat.ncols):
                    if not mat.entries[a][b].is_zero():
                        scal[a, b] = mat.entries[a][b].constant_coeff()
            assert np.array_equal(scal.T % 3, e.chi(var_idx, n - 2))


def test_evaluate_chi_is_a_chain_map():
    q, r = quadric_ring("xy", p=3)
    chi = r.chi_ring()
    k = residue_module(r)
    comps = evaluate_chi_class(r, k, parse_poly(chi, "chi1 + 2*chi2"), window=6)
    res = minimal_resolution(r, k, 6)
    for n in range(3, 7):
        left = res.differential(n - 2).mul(comps[n], reduce=r.nf)
        right = comps[n - 1].mul(res.differential(n), reduce=r.nf)
        for a in range(left.nrows):
            for b in range(left.ncols):
                assert left.entries[a][b] == right.entries[a][b]


def test_evaluate_chi_rejects_degree_zero():
    q, r = hypersurface_point()
    chi = r.chi_ring()
    with pytest.raises(ValueError):
        evaluate_chi_class(r, residue_module(r), parse_poly(chi, "3"), window=4)


def test_quadric_class_on_codim3_example():
    q, r = quadric_ring("xyz")
    chi = r.chi_ring()
    comps = evaluate_chi_class(
        r, residue_module(r), parse_poly(chi, "chi1*chi2 - chi3^2"), window=4
    )
    p4 = comps[4]
    assert (p4.nrows, p4.ncols) == (1, 15)
    nonzero = [e.constant_coeff() for e in p4.entries[0] if not e.is_zero()]
    assert len(nonzero) == 2
    assert sorted(nonzero) == [1, 4]  # +1 and -1 mod 5
