"""The mod-p array path of the annihilator route, against direct references.

Slice matrices are compared with the per-term normal-form construction,
overflow-safe products with exact Python integers, the truncated chi action
with a direct computation at the shorter window, and the monomial-action
recurrence and folded annihilator with the one-matrix-at-a-time versions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisupport import modlinalg, operators
from cisupport.cache import clear_memo
from cisupport.catalog import catalog_modules, three_var_ring, two_var_ring
from cisupport.cimodule import (
    CIRing,
    cyclic_module,
    hilbert_function,
    residue_module,
    slice_matrix,
)
from cisupport.field import PrimeField
from cisupport.groebner import Ideal, buchberger, normal_form
from cisupport.operators import ExtKModule, chi_action
from cisupport.pmatrix import PolyMatrix
from cisupport.poly import PolyRing, parse_poly
from cisupport.resolution import minimal_resolution
from cisupport.variety import annihilator_ideal, monomial_action_layers, variety_of

BIG_P = 2147483647  # the largest prime below 2^31


def make_ring(p, names, rels, weights=None):
    q = PolyRing(list(names), field=PrimeField(p), weights=weights)
    return CIRing(q, [parse_poly(q, s) for s in rels])


NONMONOMIAL = make_ring(101, "xyz", ["x^2 + y^2", "y^2 + 3*z^2", "x*z + 5*y^2"])
WEIGHTED = make_ring(7, "xy", ["x^2 + y^4", "x*y^2"], weights=(2, 1))
NON_ARTINIAN = make_ring(5, "xyz", ["x^2 + y*z"])
FREE = make_ring(3, "xyz", [])

RINGS = {
    "artinian monomial": three_var_ring(5),
    "artinian non-monomial": NONMONOMIAL,
    "weighted": WEIGHTED,
    "non-artinian": NON_ARTINIAN,
    "free": FREE,
}


def piece_basis(ring, twists, d):
    """Basis of the degree-d piece of (+) ring(-t_j): list of (j, monomial)."""
    return [(j, m) for j, t in enumerate(twists) for m in ring.std_monomials(d - t)]


def reference_slice_matrix(ring, matrix, d):
    """One normal form per entry and domain basis monomial, term by term."""
    dom = piece_basis(ring, matrix.col_twists, d)
    cod = piece_basis(ring, matrix.row_twists, d)
    offset = {}
    lookup = {}
    pos = 0
    for i, t in enumerate(matrix.row_twists):
        monos = ring.std_monomials(d - t)
        lookup[i] = {m: k for k, m in enumerate(monos)}
        offset[i] = pos
        pos += len(monos)
    a = np.zeros((len(cod), len(dom)), dtype=np.int64)
    for col, (j, mono) in enumerate(dom):
        for i in range(matrix.nrows):
            e = matrix.entries[i][j]
            if e.is_zero():
                continue
            prod = ring.nf(e * matrix.ring.from_terms([(mono, matrix.ring.field.one)]))
            for m, c in prod.terms:
                a[offset[i] + lookup[i][m], col] = c
    return a


def assert_slices_match(ring, matrix):
    twists = matrix.row_twists + matrix.col_twists
    for d in range(min(twists, default=0) - 1, max(twists, default=0) + 4):
        assert np.array_equal(slice_matrix(ring, matrix, d), reference_slice_matrix(ring, matrix, d))


# ---------------------------------------------------------------------------
# overflow-safe products


def exact(a):
    return a.astype(object)


def test_matmul_is_exact_near_the_prime_limit():
    rng = np.random.default_rng(0)
    for inner in (1, 2, 3, 7, 40):
        a = rng.integers(BIG_P - 50, BIG_P, size=(4, inner), dtype=np.int64)
        b = rng.integers(BIG_P - 50, BIG_P, size=(inner, 5), dtype=np.int64)
        want = (exact(a) @ exact(b)) % BIG_P
        assert np.array_equal(modlinalg.matmul(a, b, BIG_P).astype(object), want)
    # stacked operands broadcast like numpy's matmul
    a = rng.integers(0, BIG_P, size=(3, 9), dtype=np.int64)
    b = rng.integers(0, BIG_P, size=(2, 9, 4), dtype=np.int64)
    got = modlinalg.matmul(a, b, BIG_P)
    for k in range(2):
        assert np.array_equal(got[k].astype(object), (exact(a) @ exact(b[k])) % BIG_P)


def test_matmul_float_path_is_exact_at_its_bound():
    # the largest prime p with 60 * (p - 1)^2 below 2^53 (the next is
    # 12252349): inner dimension 60 still goes through float64
    rng = np.random.default_rng(2)
    p = 12252323
    assert 60 * (p - 1) ** 2 < 2**53 <= 60 * (12252349 - 1) ** 2
    for shape_a, shape_b in (((40, 60), (60, 50)), ((3, 40, 60), (60, 7)), ((2, 3), (3, 2))):
        a = rng.integers(p - 50, p, size=shape_a, dtype=np.int64)
        b = rng.integers(p - 50, p, size=shape_b, dtype=np.int64)
        got = modlinalg.matmul(a, b, p)
        assert got.dtype == np.int64
        assert np.array_equal(got.astype(object), (exact(a) @ exact(b)) % p)
    # small primes, as in the slice and annihilator steps
    for p in (2, 3, 5):
        a = rng.integers(0, p, size=(120, 90), dtype=np.int64)
        b = rng.integers(0, p, size=(90, 110), dtype=np.int64)
        assert np.array_equal(modlinalg.matmul(a, b, p), a @ b % p)


def test_kron_sum_matches_explicit_kronecker_products():
    rng = np.random.default_rng(1)
    for p in (5, BIG_P):
        coeffs = rng.integers(0, p, size=(5, 2, 3), dtype=np.int64)
        mats = rng.integers(0, p, size=(5, 4, 2), dtype=np.int64)
        want = sum(np.kron(exact(c), exact(m)) for c, m in zip(coeffs, mats)) % p
        assert np.array_equal(modlinalg.kron_sum(coeffs, mats, p).astype(object), want)


def test_primes_without_exact_int64_products_are_rejected():
    p = 4294967311
    one = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(ValueError):
        modlinalg.matmul(one, one, p)
    rank_one = np.array([[2, 3], [4, 6]], dtype=np.int64) * ((p - 1) // 2) % p
    with pytest.raises(ValueError):
        modlinalg.rank(rank_one, p)  # int64 row reduction would report rank 2


# ---------------------------------------------------------------------------
# slice matrices from multiplication matrices


@pytest.mark.parametrize("ring", [two_var_ring(3), three_var_ring(3)], ids=["2var", "3var"])
def test_slice_matrix_matches_reference_on_catalog_modules(ring):
    for name, module in catalog_modules(ring).items():
        assert_slices_match(ring, module.presentation)
        res = minimal_resolution(ring, module, 3)
        for i in range(1, 4):
            assert_slices_match(ring, res.differential(i))


@st.composite
def graded_matrices(draw):
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    amb = ring.ambient
    p = amb.field.p
    row_twists = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    col_twists = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    entries = []
    for r in row_twists:
        row = []
        for t in col_twists:
            terms = []
            if t >= r:
                for m in amb.monomials_of_degree(t - r):
                    c = draw(st.sampled_from([0, 0, 1, p - 1, draw(st.integers(0, p - 1))]))
                    terms.append((m, c))
            row.append(amb.from_terms(terms))
        entries.append(row)
    return ring, PolyMatrix(amb, entries, row_twists, col_twists)


@pytest.mark.parametrize("ring", [two_var_ring(3), three_var_ring(3)], ids=["2var", "3var"])
def test_slice_differentials_carry_the_arrays_of_their_entries(ring):
    for name, module in catalog_modules(ring).items():
        res = minimal_resolution(ring, module, 5, engine="slice")
        for i in range(2, 6):
            d = res.differential(i)
            arrays = d.coefficient_arrays()
            rebuilt = PolyMatrix(d.ring, d.entries, d.row_twists, d.col_twists)
            want = rebuilt.coefficient_arrays()
            assert arrays.keys() == want.keys(), name
            assert all(np.array_equal(arrays[m], want[m]) for m in want), name


def test_chi_action_never_builds_slice_differential_entries():
    clear_memo()
    ring = three_var_ring(3)
    k = residue_module(ring)
    chi_action(ring, k, 6)
    res = minimal_resolution(ring, k, 6)
    assert not any("entries" in vars(res.differential(i)) for i in range(2, 7))


@settings(max_examples=60, deadline=None)
@given(graded_matrices())
def test_slice_matrix_matches_reference_on_generated_matrices(case):
    ring, matrix = case
    assert_slices_match(ring, matrix)


def test_hilbert_function_on_non_artinian_and_weighted_rings():
    for ring in (NON_ARTINIAN, WEIGHTED, FREE):
        amb = ring.ambient
        module = cyclic_module(ring, [amb.var_poly(0)])
        p = amb.field.p
        for d, h in enumerate(hilbert_function(module, 6)):
            total = len(piece_basis(ring, module.row_twists, d))
            a = reference_slice_matrix(ring, module.presentation, d)
            assert h == total - (modlinalg.rank(a, p) if total else 0)


# ---------------------------------------------------------------------------
# one chi action per variety


ACTION_CASES = [
    (three_var_ring(3), "k"),
    (three_var_ring(3), "R/(x)"),
    (two_var_ring(5), "cone(chi1*chi2)"),
    (NONMONOMIAL, "k"),
]


def module_of(ring, name):
    if name == "k":
        return residue_module(ring)
    return catalog_modules(ring)[name]


def truncated(ext, window):
    """The same action over the shorter window [0, window]."""
    maps = [{n: m for n, m in cm.items() if n <= window - 2} for cm in ext.chi_maps]
    return ExtKModule(ext.ring, ext.dims[: window + 1], maps, window)


@pytest.mark.parametrize("ring,name", ACTION_CASES)
def test_truncated_chi_action_equals_direct_action(ring, name):
    module = module_of(ring, name)
    w = 8
    direct = chi_action(ring, module, w)
    cut = truncated(chi_action(ring, module, w + 2), w)
    assert cut.window == direct.window == w
    assert cut.dims == direct.dims
    for i in range(ring.c):
        assert sorted(cut.chi_maps[i]) == sorted(direct.chi_maps[i])
        for n, m in direct.chi_maps[i].items():
            assert np.array_equal(cut.chi_maps[i][n], m)


def test_variety_of_computes_one_chi_action(monkeypatch):
    # the degree ladder extends one chi action rung by rung: across the
    # ladder each scalar t_i[n] block is solved once, up to the window used
    solved = []
    real = operators._scalar_t

    def counting(ring, res, n, spans):
        solved.append(n)
        return real(ring, res, n, spans)

    monkeypatch.setattr(operators, "_scalar_t", counting)
    ring = three_var_ring(3)
    for module in (residue_module(ring), catalog_modules(ring)["K_quadric"]):
        solved.clear()
        v = variety_of(ring, module)
        assert v.stabilized
        assert solved == list(range(2, 2 * v.degree_bound + 2 + 1))
    assert v.degree_bound == 2  # K_quadric's quadric needs a second rung


@pytest.mark.parametrize("ring,name", ACTION_CASES)
def test_extended_chi_action_equals_direct_action(ring, name):
    module = module_of(ring, name)
    direct = chi_action(ring, module, 8)
    extended = chi_action(ring, module, 8, chi_action(ring, module, 5))
    assert extended.window == direct.window and extended.dims == direct.dims
    for i in range(ring.c):
        assert sorted(extended.chi_maps[i]) == sorted(direct.chi_maps[i])
        for n, m in direct.chi_maps[i].items():
            assert np.array_equal(extended.chi_maps[i][n], m)


# ---------------------------------------------------------------------------
# monomial actions by recurrence, annihilator by echelon folding


@pytest.mark.parametrize("ring,name", ACTION_CASES)
def test_action_recurrence_equals_monomial_action(ring, name):
    bound = 3
    ext = chi_action(ring, module_of(ring, name), 2 * bound + 4)
    degrees = []
    for d, monos, layer in monomial_action_layers(ext, bound):
        degrees.append(d)
        assert monos == ring.chi_ring().monomials_of_degree(d)
        for alpha, mats in zip(monos, layer):
            assert len(mats) == ext.window - 2 * d + 1
            for n, m in enumerate(mats):
                assert np.array_equal(m, ext.monomial_action(alpha, n))
    assert degrees == [1, 2, 3]


def stacked_annihilator(ext, degree_bound):
    """All blocks of a degree stacked into one matrix before its nullspace."""
    ring = ext.ring
    chi = ring.chi_ring()
    p = ring.field.p
    kept = []
    for d in range(1, degree_bound + 1):
        monos = chi.monomials_of_degree(d)
        rows = []
        for n in range(0, ext.window - 2 * d + 1):
            if ext.dims[n] == 0:
                continue
            mats = [ext.monomial_action(alpha, n) for alpha in monos]
            if mats[0].size:
                rows.append(np.stack([m.reshape(-1) for m in mats], axis=1))
        if rows:
            basis = modlinalg.nullspace(np.concatenate(rows), p)
        else:
            basis = np.eye(len(monos), dtype=np.int64)
        for col in range(basis.shape[1]):
            q = chi.from_terms((monos[t], int(basis[t, col])) for t in range(len(monos)))
            if q.is_zero() or (kept and normal_form(q, buchberger(kept)).is_zero()):
                continue
            kept.append(q.monic())
    return Ideal(chi, kept)


@pytest.mark.parametrize("ring,name", ACTION_CASES)
def test_folded_annihilator_equals_stacked_annihilator(ring, name):
    bound = 3
    ext = chi_action(ring, module_of(ring, name), 2 * bound + 4)
    got = annihilator_ideal(ext, bound)
    want = stacked_annihilator(ext, bound)
    assert [g.terms for g in got.gens] == [g.terms for g in want.gens]
