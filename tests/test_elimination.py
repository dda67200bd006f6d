"""The variety path's eliminations against the implementations they replace.

`rref`, `nullspace` and `solve` are compared with the per-column versions
kept below, the limb products of `matmul` with exact Python integers, the
folded `annihilator_ideal` at each of two windows with the old fold, and the slice step's
choice of new generators in kernel coordinates with `complement_pivots` on
the full kernel vectors.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cisupport import modlinalg, resolution
from cisupport.cache import clear_memo
from cisupport.catalog import catalog_modules, three_var_ring, two_var_ring
from cisupport.cimodule import CIRing, cyclic_module, residue_module
from cisupport.field import PrimeField
from cisupport.operators import ExtKModule, chi_action
from cisupport.poly import PolyRing, parse_poly
from cisupport.groebner import Ideal, IncrementalGB, poly_to_vec
from cisupport.variety import annihilator_ideal, monomial_action_layers

PRIMES = (2, 5, 101, 32003, 2147483647)


def old_rref(a, p):
    """Row reduction touching every column at every pivot."""
    m = a.copy() % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        nzr = np.nonzero(col)[0]
        if nzr.size:
            m[nzr] = (m[nzr] - np.outer(col[nzr], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def old_nullspace(a, p):
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = old_rref(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(r[i, fc])) % p
    return basis


def old_solve(a, b, p):
    """rref of [a | b] per right-hand side."""
    rows, cols = a.shape
    bb = b.reshape(rows, -1) % p
    r, pivots = old_rref(np.concatenate([a % p, bb], axis=1), p)
    if any(pc >= cols for pc in pivots):
        return None
    x = np.zeros((cols, bb.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols:]
    return x if b.ndim > 1 else x[:, 0]


def exact_product(a, b, p):
    return (a.astype(object) @ b.astype(object)) % p


@st.composite
def matrices(draw, primes=PRIMES, min_rows=0):
    """(p, a): entries biased to 0, 1 and p - 1, some of rank below their
    size, with some rows and columns zeroed."""
    p = draw(st.sampled_from(primes))
    rows = draw(st.integers(min_rows, 7))
    cols = draw(st.integers(0, 7))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))

    def block(r, c):
        vals = draw(st.lists(entry, min_size=r * c, max_size=r * c))
        return np.array(vals, dtype=np.int64).reshape(r, c)

    if draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))
        a = exact_product(block(rows, k), block(k, cols), p).astype(np.int64).reshape(rows, cols)
    else:
        a = block(rows, cols)
    if rows:
        a[draw(st.lists(st.integers(0, rows - 1), max_size=2))] = 0
    if cols:
        a[:, draw(st.lists(st.integers(0, cols - 1), max_size=2))] = 0
    return p, a


# ---------------------------------------------------------------------------
# rref, nullspace, solve


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_per_column_reference(case):
    p, a = case
    got, pivots = modlinalg.rref(a, p)
    want, want_pivots = old_rref(a, p)
    assert pivots == want_pivots
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_nullspace_matches_per_column_reference(case):
    p, a = case
    got = modlinalg.nullspace(a, p)
    assert got.shape == old_nullspace(a, p).shape
    assert np.array_equal(got, old_nullspace(a, p))
    assert not exact_product(a, got, p).any()


def draw_residues(data, rows, width, p):
    """A rows x width matrix mod p, or a vector of length rows for width 0."""
    size = rows * max(width, 1)
    vals = data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    return np.array(vals, dtype=np.int64).reshape((rows, width) if width else (rows,))


@settings(max_examples=300, deadline=None)
@given(matrices(min_rows=1), st.data())
def test_solver_matches_rref_of_the_augmented_matrix(case, data):
    p, a = case
    rows, cols = a.shape
    solver = modlinalg.Solver(a, p)
    for _ in range(3):  # one elimination serves every right-hand side
        width = data.draw(st.integers(0, 3))
        if data.draw(st.booleans()):  # consistent
            b = exact_product(a, draw_residues(data, cols, width, p), p).astype(np.int64)
        else:  # inconsistent unless a has full row rank
            b = draw_residues(data, rows, width, p)
        got, want = solver(b), old_solve(a, b, p)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(exact_product(a, got, p), b % p)


def test_solver_reports_inconsistent_systems():
    a = np.array([[1, 2], [2, 4], [0, 0]], dtype=np.int64)
    solver = modlinalg.Solver(a, 5)
    assert solver(np.array([1, 3, 0])) is None
    assert solver(np.array([[1, 1], [2, 2], [0, 1]])) is None
    assert np.array_equal(solver(np.array([1, 2, 0])), [1, 0])
    assert np.array_equal(modlinalg.solve(a, np.array([[3], [1], [0]]), 5), [[3], [0]])


# ---------------------------------------------------------------------------
# limb products near the prime bound


@pytest.mark.parametrize("p", [2147483647, 1000000007])
@pytest.mark.parametrize("inner", [1, 2, 3, 190, 1000])
def test_matmul_limbs_are_exact(p, inner):
    rng = np.random.default_rng(inner)
    top = rng.integers(p - 50, p, size=(4, inner), dtype=np.int64)  # largest residues
    low = rng.integers(0, p, size=(inner, 5), dtype=np.int64)
    for a, b in ((top, low), (top, top.T.copy()), (low.T.copy(), low)):
        assert np.array_equal(modlinalg.matmul(a, b, p).astype(object), exact_product(a, b, p))
    stacked = rng.integers(0, p, size=(3, inner, 2), dtype=np.int64)
    got = modlinalg.matmul(top, stacked, p)
    for k in range(3):
        assert np.array_equal(got[k].astype(object), exact_product(top, stacked[k], p))
    got = modlinalg.matmul(stacked.transpose(0, 2, 1).copy(), low, p)
    for k in range(3):
        assert np.array_equal(got[k].astype(object), exact_product(stacked[k].T, low, p))


# ---------------------------------------------------------------------------
# one annihilator pass for both windows


def nonmonomial_ring():
    q = PolyRing(list("xyz"), field=PrimeField(101))
    return CIRing(q, [parse_poly(q, s) for s in ("x^2 + y^2", "y^2 + 3*z^2", "x*z + 5*y^2")])


def modules_over(label):
    """(ring, modules): the catalog for the monomial rings, k and a cyclic
    module over the non-monomial one.  Built inside the tests, not at
    collection."""
    if label == "2var":
        ring = two_var_ring(5)
        return ring, list(catalog_modules(ring).values())
    if label == "3var":
        ring = three_var_ring(3)
        return ring, list(catalog_modules(ring).values())
    ring = nonmonomial_ring()
    x, y, z = (ring.ambient.var_poly(i) for i in range(3))
    return ring, [residue_module(ring), cyclic_module(ring, [x + y.scale(2), z])]


LABELS = ["2var", "3var", "nonmonomial"]


def old_annihilator_ideal(ext, degree_bound):
    """One fold per window, each ideal filtered by its own basis."""
    chi = ext.ring.chi_ring()
    p = ext.ring.field.p
    kept = []
    kept_gb = IncrementalGB(chi, (0,))
    for d, monos, layer in monomial_action_layers(ext, degree_bound):
        echelon = np.zeros((0, len(monos)), dtype=np.int64)
        for n in range(0, ext.window - 2 * d + 1):
            if ext.dims[n] == 0 or layer[0][n].size == 0:
                continue
            flat = np.stack([mats[n].reshape(-1) for mats in layer], axis=1)
            echelon, pivots = old_rref(np.concatenate([echelon, flat]), p)
            echelon = echelon[: len(pivots)]
        basis = old_nullspace(echelon, p)
        for col in range(basis.shape[1]):
            q = chi.from_terms((monos[t], int(basis[t, col]) % p) for t in range(len(monos)))
            if kept_gb.add(poly_to_vec(q)):
                kept.append(q.monic())
    return Ideal(chi, kept)


def truncated(ext, window):
    """The same action over the shorter window [0, window]."""
    maps = [{n: m for n, m in cm.items() if n <= window - 2} for cm in ext.chi_maps]
    return ExtKModule(ext.ring, ext.dims[: window + 1], maps, window)


def gens_of(ideal):
    return [g.terms for g in ideal.gens]


@pytest.mark.parametrize("label", LABELS)
def test_one_pass_gives_each_window_ideal(label):
    ring, modules = modules_over(label)
    bound, w = 3, 10
    for module in modules:
        ext = chi_action(ring, module, w + 2)
        got = [annihilator_ideal(truncated(ext, w), bound), annihilator_ideal(ext, bound)]
        want = [old_annihilator_ideal(truncated(ext, w), bound), old_annihilator_ideal(ext, bound)]
        assert [gens_of(i) for i in got] == [gens_of(i) for i in want]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_pass_gives_each_window_ideal_on_generated_actions(data):
    """Sparse actions that may switch on late, so the windows can differ."""
    ring = two_var_ring(5)
    bound = data.draw(st.integers(1, 3))
    w = data.draw(st.integers(2 * bound + 2, 2 * bound + 4))
    dims = data.draw(st.lists(st.integers(0, 2), min_size=w + 3, max_size=w + 3))
    entry = st.sampled_from([0, 0, 0, 1, 3])
    maps = [
        {
            n: np.array(
                data.draw(st.lists(entry, min_size=dims[n + 2] * dims[n], max_size=dims[n + 2] * dims[n])),
                dtype=np.int64,
            ).reshape(dims[n + 2], dims[n])
            for n in range(w + 1)
        }
        for _ in range(ring.c)
    ]
    ext = ExtKModule(ring, dims, maps, w + 2)
    got = [annihilator_ideal(truncated(ext, w), bound), annihilator_ideal(ext, bound)]
    want = [old_annihilator_ideal(truncated(ext, w), bound), old_annihilator_ideal(ext, bound)]
    assert [gens_of(i) for i in got] == [gens_of(i) for i in want]


def test_one_pass_rejects_a_window_too_short_for_the_degree_bound():
    ring = two_var_ring(3)
    ext = chi_action(ring, residue_module(ring), 8)
    with pytest.raises(ValueError):
        annihilator_ideal(truncated(ext, 6), 3)  # 6 < 2*3 + 2


# ---------------------------------------------------------------------------
# new generators chosen in kernel coordinates


def free_rows(n_d):
    """Each nullspace column's last nonzero row."""
    return [int(np.flatnonzero(n_d[:, j])[-1]) for j in range(n_d.shape[1])]


def assert_same_choice(base, n_d, p):
    free = free_rows(n_d)
    assert np.array_equal(n_d[free], np.eye(n_d.shape[1], dtype=np.int64))
    assert resolution._kernel_complement(base, n_d, p) == modlinalg.complement_pivots(base, n_d, p)


@pytest.mark.parametrize("label", LABELS)
def test_slice_step_chooses_generators_as_on_full_kernel_vectors(label, monkeypatch):
    ring, modules = modules_over(label)
    seen = []
    real = resolution._kernel_complement

    def spy(base, n_d, p):
        seen.append((base, n_d, p))
        return real(base, n_d, p)

    monkeypatch.setattr(resolution, "_kernel_complement", spy)
    clear_memo()
    try:
        for module in modules:
            resolution.minimal_resolution(ring, module, 4, "slice")
    finally:
        clear_memo()
        monkeypatch.undo()
    assert any(base.shape[1] for base, _, _ in seen)
    for base, n_d, p in seen:
        assert_same_choice(base, n_d, p)


@settings(max_examples=200, deadline=None)
@given(matrices(primes=(5, 101, 32003)), st.data())
def test_kernel_coordinates_choose_as_complement_pivots(case, data):
    p, a = case
    n_d = modlinalg.nullspace(a, p)
    assume(n_d.shape[1] > 0)
    k = n_d.shape[1]
    width = data.draw(st.integers(0, 5))
    coords = np.array(
        data.draw(st.lists(st.sampled_from([0, 1, p - 1, 2]), min_size=k * width, max_size=k * width)),
        dtype=np.int64,
    ).reshape(k, width)
    base = exact_product(n_d, coords, p).astype(np.int64).reshape(n_d.shape[0], width)
    assert_same_choice(base, n_d, p)
