import itertools
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisupport import homology, modlinalg
from cisupport.cache import clear_memo, memo
from cisupport.catalog import catalog_modules, dim2_hypersurface_ring, three_var_ring, two_var_ring
from cisupport.cimodule import (
    CIRing,
    column_to_vec,
    cyclic_module,
    free_module,
    kernel_modulo,
    residue_module,
    restrict_to_ring,
    zero_module,
)
from cisupport.field import ExtField, PrimeField
from cisupport.homology import (
    _ext_vanishes_general,
    ambient_resolution,
    ext_k_dims,
    ext_module_ring_coeffs,
    ext_vanishes,
    hypersurface_betti,
)
from cisupport.pmatrix import PolyMatrix
from cisupport.poly import PolyRing, parse_poly
from cisupport.resolution import minimal_resolution
from cisupport.variety import membership, variety_of
from cisupport.groebner import equal_up_to_radical, module_groebner, vec_to_column
from cisupport.jobspec import parse_input

F5 = PrimeField(5)


def two_var(p=5):
    return PolyRing(["x", "y"], field=PrimeField(p))


def test_finite_projective_dimension_gives_vanishing():
    q = two_var()
    a = CIRing(q, [parse_poly(q, "y^2")])
    m = cyclic_module(a, [parse_poly(q, "x"), parse_poly(q, "y^2")])
    k = residue_module(a)
    assert ext_vanishes(a, m, k, 3)
    assert hypersurface_betti(a, m, 4) == [1, 1, 0, 0, 0]


def test_infinite_projective_dimension_never_vanishes():
    q = two_var()
    a = CIRing(q, [parse_poly(q, "x^2")])
    m = cyclic_module(a, [parse_poly(q, "x"), parse_poly(q, "y^2")])
    k = residue_module(a)
    assert not ext_vanishes(a, m, k, 7)


def test_free_module_ext_vanishes_everywhere_positive():
    q = two_var()
    a = CIRing(q, [parse_poly(q, "x^2")])
    k = residue_module(a)
    assert ext_vanishes(a, free_module(a), k, 1)
    assert ext_vanishes(a, free_module(a), residue_module(a), 5)


def test_hypersurface_ranks_match_direct_resolution():
    q = two_var(3)
    a = CIRing(q, [parse_poly(q, "x^2")])
    cases = [
        cyclic_module(a, [parse_poly(q, "x"), parse_poly(q, "y^2")]),
        residue_module(a),
        cyclic_module(a, [parse_poly(q, "x")]),
    ]
    for m in cases:
        fast = hypersurface_betti(a, m, 6)
        direct = minimal_resolution(a, m, 6, engine="groebner").betti
        assert fast == direct


def test_hypersurface_ranks_in_three_variables():
    q = PolyRing(["x", "y", "z"], field=PrimeField(3))
    a = CIRing(q, [parse_poly(q, "x^2 + y*z")])
    k = residue_module(a)
    fast = hypersurface_betti(a, k, 5)
    direct = minimal_resolution(a, k, 5, engine="groebner").betti
    assert fast == direct


def test_hypersurfaces_through_a_ring_share_the_module_resolution():
    ring = three_var_ring(3)
    q = ring.ambient
    module = cyclic_module(ring, [parse_poly(q, "x + y")])
    shared = ambient_resolution(module)
    for a in itertools.product(range(3), repeat=3):
        if not any(a):
            continue
        f = q.zero()
        for c, fi in zip(a, ring.fs):
            f = f + fi.scale(c)
        hyper = CIRing(q, [f], validate=False)
        got = hypersurface_betti(hyper, module, 6)
        # the module presented over the hypersurface itself: its presentation
        # over Q, and so its resolution there, depends on f
        direct = hypersurface_betti(hyper, restrict_to_ring(module, hyper), 6)
        assert got == direct, a
        assert ReferenceComplex(hyper, module).ambient is shared


def test_membership_builds_one_ambient_resolution_per_module(monkeypatch):
    built = []

    class Counting(homology.AmbientResolution):
        def __init__(self, module):
            built.append(module)
            super().__init__(module)

    monkeypatch.setattr(homology, "AmbientResolution", Counting)
    clear_memo()  # so this module's ambient resolution is built inside the test
    ring = three_var_ring(3)
    module = cyclic_module(ring, [parse_poly(ring.ambient, "x + 2*z")])
    k = residue_module(ring)
    answers = [membership(ring, module, k, a) for a in itertools.product(range(3), repeat=3)]
    assert len(built) == 1
    assert any(answers) and not all(answers)


def test_membership_against_k_never_reaches_the_annihilator_route(monkeypatch):
    # the two variety oracles stay independent: against k, membership reads
    # the Groebner-engine ambient resolution and its homotopies, never the
    # chi action or the slice engine of the annihilator route
    from cisupport import operators, resolution, variety

    ring = three_var_ring(3)
    modules = catalog_modules(ring)  # built first: syz1(k) runs the slice engine
    k = residue_module(ring)

    def forbidden(*args, **kwargs):
        raise AssertionError("membership reached the annihilator route")

    for owner, name in ((operators, "chi_action"), (variety, "chi_action"), (resolution, "_slice_kernel_step")):
        monkeypatch.setattr(owner, name, forbidden)
    clear_memo()
    answers = [membership(ring, module, k, a) for module in modules.values() for a in _points(ring.field, 3)]
    assert len(answers) == 26 * len(modules) and any(answers) and not all(answers)


def test_ext_k_dims_views_a_module_over_a_quotient_over_the_ring():
    q = PolyRing(["x"], field=PrimeField(3))
    ring = CIRing(q, [parse_poly(q, "x^3")])
    hyper = CIRing(q, [parse_poly(q, "x^3")], validate=False)
    m = cyclic_module(ring, [parse_poly(q, "x^2")])
    assert ext_k_dims(hyper, m, 4) == ext_k_dims(hyper, restrict_to_ring(m, hyper), 4) == [1] * 5
    q2 = two_var(3)
    ring2 = CIRing(q2, [parse_poly(q2, "x^2"), parse_poly(q2, "y^2")])
    hyper2 = CIRing(q2, [parse_poly(q2, "x^2 + 2*y^2")], validate=False)
    k = residue_module(ring2)
    assert ext_k_dims(hyper2, k, 4) == ext_k_dims(hyper2, restrict_to_ring(k, hyper2), 4)
    # k[x]/(x^n) is a hypersurface of dimension 0 and reads the homotopies
    # too: its Betti numbers are the Groebner engine's
    for n, p in itertools.product(range(2, 5), (2, 3, 5)):
        q1 = PolyRing(["x"], field=PrimeField(p))
        ring1 = CIRing(q1, [parse_poly(q1, f"x^{n}")])
        for module in (residue_module(ring1), cyclic_module(ring1, [parse_poly(q1, "x^2")]), free_module(ring1)):
            want = minimal_resolution(ring1, module, 6, engine="groebner").betti[:7]
            assert ext_k_dims(ring1, module, 6) == want, (n, p, module)


def test_hypersurface_betti_needs_a_codimension_one_ring():
    ring = two_var_ring(3)
    with pytest.raises(ValueError, match="codimension-1"):
        hypersurface_betti(ring, residue_module(ring), 3)


def apply(mat, column):
    """The matrix times one polynomial column."""
    return mat.mul(PolyMatrix.from_columns(mat.ring, mat.col_twists, [column], (0,))).column(0)


def test_homotopy_system_identities():
    q = two_var(3)
    a = CIRing(q, [parse_poly(q, "x^2")])
    m = cyclic_module(a, [parse_poly(q, "x"), parse_poly(q, "y^2")])
    hc = ReferenceComplex(a, m)
    res = hc.res
    f = hc.f
    # d sigma_1 + sigma_1 d = f * id, degree by degree
    for i in range(0, hc.pd + 1):
        lhs_cols = []
        rank = res.betti[i]
        s_i = hc.sigma.get((1, i))
        for u in range(rank):
            col = [q.zero()] * rank
            if s_i is not None:
                via_up = apply(res.differential(i + 1), s_i.column(u)) if i + 1 <= hc.pd else None
                if via_up is not None:
                    col = via_up
            if i > 0:
                prev = hc.sigma.get((1, i - 1))
                if prev is not None:
                    down = apply(prev, res.differential(i).column(u))
                    col = [c1 + c2 for c1, c2 in zip(col, down)]
            lhs_cols.append(col)
        for u in range(rank):
            for v in range(rank):
                want = f if u == v else q.zero()
                assert (lhs_cols[u][v] - want).is_zero()


def test_ext_field_coefficients_supported():
    f4 = ExtField(2, 2)
    q = PolyRing(["x", "y"], field=f4)
    omega = None
    for a in f4.elements():
        if a not in (f4.zero, f4.one) and a != f4.from_int(1):
            omega = a
            break
    x2 = q.from_terms([((2, 0), f4.one)])
    a_ring = CIRing(q, [x2], validate=False)
    m = cyclic_module(a_ring, [q.from_terms([((1, 0), f4.one)])])
    dims = hypersurface_betti(a_ring, m, 4)
    assert dims == [1, 1, 1, 1, 1]


def test_general_path_agrees_with_fast_path():
    q = two_var(3)
    a = CIRing(q, [parse_poly(q, "x^2")])
    m = cyclic_module(a, [parse_poly(q, "x"), parse_poly(q, "y^2")])
    k = residue_module(a)
    for i in range(0, 5):
        assert ext_vanishes(a, m, k, i) == _ext_vanishes_general(
            a, m.minimalized(), k.minimalized(), i
        )


def test_general_path_with_nontrivial_coefficients():
    q = two_var(3)
    a = CIRing(q, [parse_poly(q, "x^2")])
    m = cyclic_module(a, [parse_poly(q, "x")])
    n = cyclic_module(a, [parse_poly(q, "x")])
    # Ext^i(R/(x), R/(x)) over k[x,y]/(x^2): hom is nonzero, higher exts periodic
    assert not ext_vanishes(a, m, n, 0)
    assert not ext_vanishes(a, m, n, 4)
    free = free_module(a)
    assert ext_vanishes(a, free, n, 2)


def test_hom_dual_preserves_variety_over_artinian_gorenstein():
    q = two_var(3)
    r = CIRing(q, [parse_poly(q, "x^2"), parse_poly(q, "y^2")])
    m = cyclic_module(r, [parse_poly(q, "x")])
    dual = ext_module_ring_coeffs(r, m, 0).minimalized()
    assert dual.ngens == 1
    v1 = variety_of(r, m)
    v2 = variety_of(r, dual)
    assert equal_up_to_radical(v1.ideal, v2.ideal)


def test_ext_module_of_zero_and_free():
    q = two_var(3)
    r = CIRing(q, [parse_poly(q, "x^2"), parse_poly(q, "y^2")])
    assert ext_module_ring_coeffs(r, free_module(r), 1).is_zero()
    hom = ext_module_ring_coeffs(r, free_module(r), 0).minimalized()
    assert hom.ngens == 1 and hom.is_free()


def reference_ext_module_ring_coeffs(ring, module, m):
    """The route ext_module_ring_coeffs took before it read the Hom complex:
    the kernel of the transposed differential by a syzygy computation."""
    from cisupport.cimodule import subquotient_presentation, syzygy_matrix, zero_module

    module = module.minimalized()
    if module.ngens == 0:
        return zero_module(ring)
    res = minimal_resolution(ring, module, m + 1)
    if res.betti[m] == 0:
        return zero_module(ring)
    d_next_t = res.differential(m + 1).transpose()
    ker_cols = syzygy_matrix(ring, d_next_t)[0].columns()
    im_cols = res.differential(m).transpose().columns() if m >= 1 else []
    return subquotient_presentation(ring, d_next_t.col_twists, ker_cols, im_cols)


def _ext_ring_cases():
    r = two_var_ring(3)
    for name, module in (("k", residue_module(r)), ("R/(x)", cyclic_module(r, [r.ambient.var_poly(0)]))):
        for m in range(4):
            yield f"{name}-m{m}", r, module, m
    d2 = dim2_hypersurface_ring(3)
    yield "dim2-k", d2, residue_module(d2), d2.dim


@pytest.mark.parametrize("case", list(_ext_ring_cases()), ids=lambda c: c[0])
def test_ext_into_the_ring_equals_the_transpose_route(case):
    _, ring, module, m = case
    got = ext_module_ring_coeffs(ring, module, m)
    want = reference_ext_module_ring_coeffs(ring, module, m)
    assert got.presentation == want.presentation
    assert got.row_twists == want.row_twists


# ---------------------------------------------------------------------------
# the Shamash differential and the Hom complex as block matrices, against the
# hand-indexed routes they replaced


def field_rank(field, rows) -> int:
    """Rank over any field object by Gaussian elimination in pure python."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    ncols = len(mat[0])
    rk = 0
    for c in range(ncols):
        piv = None
        for i in range(rk, len(mat)):
            if mat[i][c] != field.zero:
                piv = i
                break
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        inv = field.inv(mat[rk][c])
        mat[rk] = [field.mul(x, inv) for x in mat[rk]]
        for i in range(len(mat)):
            if i != rk and mat[i][c] != field.zero:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[rk])]
        rk += 1
        if rk == len(mat):
            break
    return rk


@st.composite
def low_rank_matrices(draw):
    """A matrix over F_5, F_4, F_8 or F_9 drawn as a product of an r x k and a
    k x c matrix, so its rank is at most k and often below min(r, c)."""
    field = draw(st.sampled_from([PrimeField(5), ExtField(2, 2), ExtField(2, 3), ExtField(3, 2)]))
    entry = st.sampled_from(list(field.elements()))
    r, k, c = draw(st.integers(1, 5)), draw(st.integers(0, 4)), draw(st.integers(1, 5))
    left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
    right = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
    rows = []
    for i in range(r):
        row = []
        for j in range(c):
            acc = field.zero
            for u in range(k):
                acc = field.add(acc, field.mul(left[i][u], right[u][j]))
            row.append(acc)
        rows.append(row)
    return field, rows


@settings(max_examples=150, deadline=None)
@given(low_rank_matrices())
def test_regular_representation_rank_is_e_times_the_rank(case):
    field, rows = case
    assert modlinalg.rank(modlinalg.regular_matrix(field, rows), field.p) == field.e * field_rank(field, rows)


class ReferenceComplex:
    """The Shamash complex of a module over one hypersurface A = Q/(f),
    test side: the ambient resolution G, the homotopies of (f,) from
    homotopy_system keyed by (t, i), and the polynomial differential
    F_m -> F_{m-1} over Q, component (i, j) of F_m being G_i twisted by
    j deg f."""

    def __init__(self, ring_a, module):
        self.amb = ring_a.ambient
        self.f = ring_a.fs[0]
        self.ambient = homology.ambient_resolution(module)
        self.pd = self.ambient.pd
        self.res = self.ambient.res
        sigma = homology.homotopy_system(self.ambient, (self.f,))
        self.sigma = {(alpha[0], i): mat for (alpha, i), mat in sigma.items()}

    def maps(self) -> dict:
        """sigma_t on G_i under (t, i), with sigma_0 = d."""
        return {**{(0, i): self.res.differential(i) for i in range(1, self.pd + 1)}, **self.sigma}

    def differential(self, m):
        """d: F_m -> F_{m-1} as one graded block matrix, laid out by
        homology._shamash_layout."""
        fdeg = self.f.degree()
        maps = self.maps()
        src, dst, grid = homology._shamash_layout(m, self.pd)

        def twists(i, j):
            return tuple(t + j * fdeg for t in self.res.twists(i))

        if not src or not dst:
            return PolyMatrix.zero(
                self.amb, [t for c in dst for t in twists(*c)], [t for c in src for t in twists(*c)]
            )

        def part(key, i, j, k, l):
            if key not in maps:
                return PolyMatrix.zero(self.amb, twists(k, l), twists(i, j))
            return maps[key].twisted(l * fdeg)

        return PolyMatrix.block(
            self.amb, [[part(key, *s, *d) for key, s in zip(row, src)] for row, d in zip(grid, dst)]
        )


def reference_betti_over_a(hc, upto):
    """Tor ranks of a ReferenceComplex the way they were read before the
    differential was one block matrix: constant coefficients placed by an
    offset table."""
    field = hc.amb.field

    def components(m):
        return [(m - 2 * j, j) for j in range((m // 2) + 1) if 0 <= m - 2 * j <= hc.pd]

    def rank_of(m):
        return 0 if m < 0 else sum(hc.res.betti[i] for i, _ in components(m))

    def scalar_differential(m):
        src, dst = components(m), components(m - 1)
        dst_offsets = {}
        off = 0
        for comp in dst:
            dst_offsets[comp] = off
            off += hc.res.betti[comp[0]]
        a = [[field.zero] * sum(hc.res.betti[i] for i, _ in src) for _ in range(off)]

        def put(mat, r0, c0):
            for u in range(mat.nrows):
                for v in range(mat.ncols):
                    e = mat.entries[u][v]
                    if not e.is_zero():
                        a[r0 + u][c0 + v] = e.constant_coeff()

        coff = 0
        for i, j in src:
            if i >= 1 and (i - 1, j) in dst_offsets:
                put(hc.res.differential(i), dst_offsets[(i - 1, j)], coff)
            for t in range(1, j + 1):
                mat = hc.sigma.get((t, i))
                if mat is not None and (i + 2 * t - 1, j - t) in dst_offsets:
                    put(mat, dst_offsets[(i + 2 * t - 1, j - t)], coff)
            coff += hc.res.betti[i]
        return a

    def rank(rows):
        if not rows or not rows[0]:
            return 0
        if isinstance(field, PrimeField):
            return modlinalg.rank(np.array(rows, dtype=np.int64), field.p)
        return field_rank(field, rows)

    ranks = [rank(scalar_differential(m)) for m in range(upto + 2)]
    return [rank_of(m) - ranks[m] - ranks[m + 1] for m in range(upto + 1)]


def f_times_shift(hc, m):
    """f times the map F_m -> F_{m-2} that sends component (i, j) to
    (i, j-1) by the identity, laid out by hand: the square of the Shamash
    differential over Q."""

    def offsets(n):
        out, off = {}, 0
        for j in range(n // 2 + 1):
            if n - 2 * j <= hc.pd:
                out[n - 2 * j, j] = off
                off += hc.res.betti[n - 2 * j]
        return out

    src, dst = offsets(m), offsets(m - 2)
    want = PolyMatrix.zero(
        hc.amb, hc.differential(m - 1).row_twists, hc.differential(m).col_twists
    )
    for (i, j), c0 in src.items():
        if (i, j - 1) in dst:
            for u in range(hc.res.betti[i]):
                want.entries[dst[i, j - 1] + u][c0 + u] = hc.f
    return want


def cubic_ring():
    """The p = 101 ring of the member_cubic_* golden jobs."""
    q = PolyRing(["x", "y", "z"], field=PrimeField(101))
    return CIRing(q, [
        parse_poly(q, "x^3 + 64*x*y^2 + 79*y^2*z"),
        parse_poly(q, "38*x^3 + 5*x^2*z + 33*x*z^2 + y^3 + 12*z^3"),
    ])


def _directions(ring):
    p = ring.field.p
    for a in itertools.product(range(p), repeat=ring.c):
        if any(a):
            yield a


def _catalog_complexes():
    for name, ring in (("2var_p3", two_var_ring(3)), ("3var_p3", three_var_ring(3))):
        for mod_name, module in catalog_modules(ring).items():
            yield f"{name}-{mod_name}", ring, module, list(_directions(ring))
    cubic = cubic_ring()
    q = cubic.ambient
    for mod_name, module in (
        ("k", residue_module(cubic)),
        ("M", cyclic_module(cubic, [parse_poly(q, "31*x + 90*y + 41*z")])),
        ("N", cyclic_module(cubic, [parse_poly(q, "x*y + 98*z^2")])),
    ):
        # every point of the projective line over F_101
        yield f"cubic_p101-{mod_name}", cubic, module, [(0, 1)] + [(1, t) for t in range(101)]


@pytest.mark.parametrize("case", list(_catalog_complexes()), ids=lambda c: c[0])
def test_block_differential_tor_ranks_equal_the_offset_table(case):
    _, ring, module, directions = case
    for a in directions:
        hyper = CIRing(ring.ambient, [ring.form(a)], validate=False)
        want = reference_betti_over_a(ReferenceComplex(hyper, module), 6)
        assert hypersurface_betti(hyper, module, 6) == want, a


@pytest.mark.parametrize("case", list(_catalog_complexes()), ids=lambda c: c[0])
def test_tor_ranks_through_the_periodic_tail_equal_every_rank_of_the_reference(case):
    # degree 12 is far past pd G <= 3: the tail's differentials are reused
    _, ring, module, directions = case
    for a in directions:
        hyper = CIRing(ring.ambient, [ring.form(a)], validate=False)
        assert hypersurface_betti(hyper, module, 12) == reference_betti_over_a(ReferenceComplex(hyper, module), 12), a


def _extension_cases():
    f4 = ExtField(2, 2)
    q = PolyRing(["x", "y"], field=f4)
    a_ring = CIRing(q, [q.from_terms([((2, 0), f4.one)])], validate=False)
    yield a_ring, cyclic_module(a_ring, [q.from_terms([((1, 0), f4.one)])]), [1, 1, 1, 1, 1]
    # f = x^2 + t y^2 = (x, y^2) . (x, t): sigma_1 on G_0 has the constant
    # entry t, so the ranks read an element of F_{p^e} outside F_p.  In A,
    # y^2 lies in (x) and x is regular, so Q/(x, y^2) has Tor ranks 1, 1, 0, ...
    for fld in (f4, ExtField(2, 3), ExtField(3, 2)):
        q = PolyRing(["x", "y"], field=fld)
        t = tuple(int(i == 1) for i in range(fld.e))
        a_ring = CIRing(q, [q.from_terms([((2, 0), fld.one), ((0, 2), t)])], validate=False)
        module = cyclic_module(a_ring, [q.from_terms([((1, 0), fld.one)]), q.from_terms([((0, 2), fld.one)])])
        yield a_ring, module, [1, 1, 0, 0, 0]


def test_block_differential_tor_ranks_over_an_extension_field():
    for a_ring, module, want in _extension_cases():
        hc = ReferenceComplex(a_ring, module)
        assert hypersurface_betti(a_ring, module, 4) == reference_betti_over_a(hc, 4) == want, a_ring
        ds = [hc.differential(m).check_homogeneous() for m in range(7)]
        for m in range(1, 7):
            square = ds[m - 1].mul(ds[m])
            assert square.map_entries(a_ring.nf).is_zero() and square == f_times_shift(hc, m)


@pytest.mark.parametrize("case", list(_catalog_complexes()), ids=lambda c: c[0])
def test_block_differential_is_graded_and_squares_to_zero_mod_f(case):
    _, ring, module, directions = case
    for a in directions:
        hyper = CIRing(ring.ambient, [ring.form(a)], validate=False)
        hc = ReferenceComplex(hyper, module)
        ds = [hc.differential(m).check_homogeneous() for m in range(7)]
        for m in range(1, 7):
            square = ds[m - 1].mul(ds[m])
            assert square.map_entries(hyper.nf).is_zero(), (a, m)
            assert square == f_times_shift(hc, m), (a, m)


def reference_hom_complex(ring, res, n_min, i):
    """_hom_complex as it was before Hom was built by Kronecker products:
    relation and map columns placed by hand at index u*g + s."""
    amb = ring.ambient
    g = n_min.ngens
    pres = n_min.presentation

    def spot_data(j):
        fj = res.twists(j)
        twists = tuple(n_min.row_twists[s] - fj[u] for u in range(len(fj)) for s in range(g))
        rel_cols = []
        for u in range(len(fj)):
            for c in range(pres.ncols):
                col = [amb.zero()] * (len(fj) * g)
                for s in range(g):
                    col[u * g + s] = pres.entries[s][c]
                rel_cols.append(col)
        return twists, rel_cols

    def map_columns(j):
        fj, fj1 = res.twists(j), res.twists(j + 1)
        d = res.differential(j + 1)
        cols = []
        for u in range(len(fj)):
            for s in range(g):
                col = [amb.zero()] * (len(fj1) * g)
                for v in range(len(fj1)):
                    col[v * g + s] = d.entries[u][v]
                cols.append(col)
        return cols

    twists, rels = spot_data(i)
    next_twists, next_rels = spot_data(i + 1)
    kernel, _ = kernel_modulo(ring, next_twists, map_columns(i), next_rels)
    image = rels + (map_columns(i - 1) if i >= 1 else [])
    return twists, kernel, image


def _hom_cases():
    r = two_var_ring(3)
    q = r.ambient
    mods = catalog_modules(r)
    for m_name, n_name in (("R/(x)", "R/(x)"), ("k", "R/(y)"), ("syz1(k)", "R/(x)"),
                           ("cone(chi1*chi2)", "syz1(k)"), ("R/(y)", "R")):
        yield f"2var_p3-{m_name}-{n_name}", r, mods[m_name], mods[n_name]
    yield "2var_p3-R/(x)-free", r, mods["R/(x)"], free_module(r)
    d2 = dim2_hypersurface_ring(3)
    yield "dim2-k-free", d2, residue_module(d2), free_module(d2)
    cubic = cubic_ring()
    hyper = CIRing(cubic.ambient, [cubic.form((2, 5))], validate=False)
    m = cyclic_module(cubic, [parse_poly(cubic.ambient, "31*x + 90*y + 41*z")])
    n = cyclic_module(cubic, [parse_poly(cubic.ambient, "x*y + 98*z^2")])
    yield "cubic_p101-M-N", hyper, restrict_to_ring(m, hyper), restrict_to_ring(n, hyper)


@pytest.mark.parametrize("case", list(_hom_cases()), ids=lambda c: c[0])
def test_kronecker_hom_complex_equals_the_hand_placed_columns(case):
    _, ring, module, other = case
    module, n_min = module.minimalized(), other.minimalized()
    res = minimal_resolution(ring, module, 4)
    for i in range(4):
        twists, kernel, image = homology._hom_complex(ring, res, n_min, i)
        want_twists, want_kernel, want_image = reference_hom_complex(ring, res, n_min, i)
        assert twists == want_twists
        assert image == want_image
        assert kernel == want_kernel


# ---------------------------------------------------------------------------
# the ambient resolution: one tracked Buchberger run per differential

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class SeparateBasisAmbient:
    """The ambient resolution as it was built before its kernel steps kept
    their bases: G from minimal_resolution over Q on the Groebner engine, and
    each differential's tracked basis rebuilt by module_groebner on its first
    lift."""

    def __init__(self, module):
        amb = module.ring.ambient
        self.amb = amb
        q = CIRing(amb, ())
        self.module_q = restrict_to_ring(module, q).minimalized()
        res = minimal_resolution(q, self.module_q, amb.n + 1, engine="groebner")
        self.pd = res.projective_dimension()
        assert self.pd is not None
        self.res = res
        self._bases = {}

    def lift(self, i, col):
        d = self.res.differential(i)
        if i not in self._bases:
            vectors = [column_to_vec(c) for c in d.columns()]
            self._bases[i] = module_groebner(self.amb, d.row_twists, vectors, track=True)
        coeffs = self._bases[i].express(column_to_vec(col))
        return None if coeffs is None else vec_to_column(self.amb, d.ncols, coeffs)


def golden_member_cases():
    """(name, ring, module) for every module of the member_* golden jobs."""
    for name in sorted(os.listdir(GOLDEN)):
        if not (name.startswith("member_") and name.endswith(".job")):
            continue
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            job = parse_input(fh.read())
        ring = job.ci_ring()
        for decl in job.modules:
            yield f"{name[:-4]}-{decl.name}", ring, job.build_module(decl.name, ring)


def ambient_cases():
    for ring in (two_var_ring(5), three_var_ring(3)):
        for name, module in catalog_modules(ring).items():
            yield f"{ring.ambient.n}var-{name}", ring, module
    yield from golden_member_cases()


def directions(ring):
    """The coordinate directions and the all-ones direction."""
    c = ring.c
    return [tuple(int(i == j) for i in range(c)) for j in range(c)] + [(1,) * c]


@pytest.mark.parametrize("case", list(ambient_cases()), ids=lambda c: c[0])
def test_kept_bases_lift_and_build_homotopies_as_separate_bases_did(case, monkeypatch):
    _, ring, module = case
    clear_memo()
    new = ambient_resolution(module)
    old = SeparateBasisAmbient(module)
    assert new.pd == old.pd
    assert new.module_q.presentation == old.module_q.presentation
    assert new.diffs == old.res.differentials[: old.pd]
    for i in range(1, new.pd + 1):
        d = new.diffs[i - 1]
        # every column of d_i and every boundary d_i d_{i+1} e_u lifts alike
        probes = d.columns()
        if i < new.pd:
            probes += d.mul(new.diffs[i]).columns()
        for col in probes:
            assert new.lift(i, col) == old.lift(i, col)
    for a in directions(ring):
        hyper = CIRing(ring.ambient, [ring.form(a)], validate=False)
        got, got_betti = ReferenceComplex(hyper, module), hypersurface_betti(hyper, module, 5)
        monkeypatch.setattr(homology, "ambient_resolution", lambda m: old)
        want, want_betti = ReferenceComplex(hyper, module), hypersurface_betti(hyper, module, 5)
        monkeypatch.undo()
        assert got.sigma == want.sigma, a
        assert got_betti == want_betti, a


@pytest.mark.parametrize("ring", [two_var_ring(5), three_var_ring(3)], ids=["2var", "3var"])
def test_each_ambient_differential_gets_one_tracked_buchberger_run(ring, monkeypatch):
    from cisupport import groebner

    modules = catalog_modules(ring)
    runs = []
    real = groebner._grow_and_complete

    def spy(amb, twists, vectors, track):
        if track:  # untracked runs are the hypersurface rings' own bases
            runs.append((tuple(twists), list(vectors)))
        return real(amb, twists, vectors, track)

    for name, module in modules.items():
        clear_memo()
        runs.clear()
        monkeypatch.setattr(groebner, "_grow_and_complete", spy)
        for a in directions(ring):
            hyper = CIRing(ring.ambient, [ring.form(a)], validate=False)
            hypersurface_betti(hyper, module, 5)
        monkeypatch.undo()
        amb_res = ambient_resolution(module)
        want = [
            (d.row_twists, [column_to_vec(c) for c in d.columns()]) for d in amb_res.diffs
        ]
        assert runs == want, name
    assert not hasattr(homology, "module_groebner")
    assert not hasattr(amb_res, "_bases")


def test_ambient_loop_on_the_zero_module_never_runs():
    q = PolyRing(["x", "y", "z"], field=PrimeField(3))
    a = CIRing(q, [parse_poly(q, "x^2 + y*z")])
    zero = zero_module(a)
    amb_res = ambient_resolution(zero)
    assert (amb_res.pd, amb_res.diffs, amb_res.bases) == (0, [], [])
    assert hypersurface_betti(a, zero, 5) == minimal_resolution(a, zero, 5, engine="groebner").betti


def test_ambient_loop_on_a_free_module_stops_after_its_presentation():
    # free over A = Q/(f), so of projective dimension 1 over Q
    q = PolyRing(["x", "y", "z"], field=PrimeField(3))
    a = CIRing(q, [parse_poly(q, "x^2 + y*z")])
    free = free_module(a, (0, 2))
    assert ambient_resolution(free).pd == 1
    assert hypersurface_betti(a, free, 5) == minimal_resolution(a, free, 5, engine="groebner").betti
    assert hypersurface_betti(a, free, 5) == [2, 0, 0, 0, 0, 0]


def test_ambient_loop_reaches_projective_dimension_n_for_k():
    # pd_Q k = n, so the homotopies lift through the basis of the top differential
    q = PolyRing(["x", "y", "z"], field=PrimeField(3))
    a = CIRing(q, [parse_poly(q, "x^2 + y*z")])
    k = residue_module(a)
    amb_res = ambient_resolution(k)
    assert amb_res.pd == len(amb_res.bases) == q.n
    hc = ReferenceComplex(a, k)
    assert any(target == q.n for target in (i + 2 * t - 1 for t, i in hc.sigma))
    assert hypersurface_betti(a, k, 6) == minimal_resolution(a, k, 6, engine="groebner").betti


# ---------------------------------------------------------------------------
# one homotopy recursion: the multi-index system of a sequence, and the Tor
# ranks of each direction specialized from it


class PerDirectionComplex(ReferenceComplex):
    """The hypersurface complex as it was built before one recursion served
    every sequence: the homotopies of f alone by the t-indexed loop of the
    old per-direction build, rerun for every direction."""

    def __init__(self, ring_a, module):
        self.amb = ring_a.ambient
        self.f = ring_a.fs[0]
        self.ambient = ambient_resolution(module)
        self.pd = self.ambient.pd
        self.res = self.ambient.res
        self.sigma = {}
        res, pd = self.res, self.pd
        fdeg = self.f.degree()
        f_times = PolyMatrix(self.amb, [[self.f]], (0,), (fdeg,))
        t = 1
        while t <= pd + 1:
            for i in range(0, pd + 1):
                target = i + 2 * t - 1
                if t == 1:
                    rhs = PolyMatrix.identity(self.amb, res.twists(i)).kron(f_times)
                else:
                    rhs = None
                    for u in range(1, t):
                        left = self.sigma.get((u, i + 2 * (t - u) - 1))
                        right = self.sigma.get((t - u, i))
                        if left is None or right is None:
                            continue
                        term = -left.mul(right)
                        rhs = term if rhs is None else rhs + term
                if i > 0:
                    prev = self.sigma.get((t, i - 1))
                    if prev is not None:
                        corr = -prev.mul(res.differential(i))
                        rhs = corr if rhs is None else rhs + corr
                if rhs is None or rhs.is_zero():
                    continue
                assert target <= pd, "homotopy system inconsistent at the top"
                cols = [self.ambient.lift(target, col) for col in rhs.columns()]
                assert all(col is not None for col in cols)
                self.sigma[(t, i)] = PolyMatrix.from_columns(
                    self.amb, res.twists(target), cols, tuple(tt + t * fdeg for tt in res.twists(i))
                )
            t += 1


def nonmonomial_p3_ring():
    q = PolyRing(list("xyz"), field=PrimeField(3))
    return CIRing(q, [parse_poly(q, s) for s in ("x^2 + y*z", "y^2 + 2*x*z", "z^2 + x*y + y*z")])


def mixed_degree_ring():
    """x^2 and y^3: a direction takes one of them at a time."""
    q = two_var(3)
    return CIRing(q, [parse_poly(q, "x^2"), parse_poly(q, "y^3")])


def _points(field, c):
    """Every nonzero point of field^c."""
    return [a for a in itertools.product(list(field.elements()), repeat=c) if a != (field.zero,) * c]


def _projective_points(field, c):
    """One point of each line of field^c: first nonzero coordinate one."""
    return [a for a in _points(field, c) if next(x for x in a if x != field.zero) == field.one]


def _section_cases():
    from basechange import base_change_module, base_change_ring

    for name, make in (("2var", two_var_ring), ("3var", three_var_ring)):
        for p in (2, 3, 5):
            ring = make(p)
            yield f"{name}_p{p}", ring, catalog_modules(ring), _points(ring.field, ring.c)
    ring = nonmonomial_p3_ring()
    q = ring.ambient
    yield "nonmonomial_p3", ring, {
        "k": residue_module(ring),
        "R/(x+y)": cyclic_module(ring, [parse_poly(q, "x + y")]),
        "R/(x, y+z)": cyclic_module(ring, [parse_poly(q, "x"), parse_poly(q, "y + z")]),
        "syz1(k)": catalog_modules(ring)["syz1(k)"],
    }, _points(ring.field, 3)
    ring = mixed_degree_ring()
    q = ring.ambient
    mods = {"k": residue_module(ring), "R/(x)": cyclic_module(ring, [parse_poly(q, "x")])}
    yield "mixed_degree_p3", ring, mods, [a for a in _points(ring.field, 2) if not all(a)]
    # points over F_4 and F_9, on the catalogs base-changed to those fields
    for name, make, fld, points in (
        ("2var", two_var_ring, ExtField(2, 2), _points),
        ("3var", three_var_ring, ExtField(2, 2), _projective_points),
        ("2var", two_var_ring, ExtField(3, 2), _points),
        ("3var", three_var_ring, ExtField(3, 2), _projective_points),
    ):
        ring = make(fld.p)
        work = base_change_ring(ring, fld)
        mods = {m: base_change_module(mod, work) for m, mod in catalog_modules(ring).items()}
        yield f"{name}_F{fld.size}", work, mods, points(fld, ring.c)


@pytest.mark.parametrize("case", list(_section_cases()), ids=lambda c: c[0])
def test_specialized_tor_ranks_equal_the_per_direction_build(case):
    """Every point is asked in two orders: the first asked of a module and
    its scalar multiples take the single-f build, every other point the
    specialized system, and the two first points lie on different lines, so
    each point takes the specialized system in at least one order."""
    _, ring, modules, points = case
    upto = ring.ambient.n + 2  # the degrees membership reads
    for name, module in modules.items():
        want = {}
        for a in points:
            hc = PerDirectionComplex(CIRing(ring.ambient, [ring.form(a)], validate=False), module)
            want[a] = reference_betti_over_a(hc, upto)
        for order in (points, points[::-1]):
            clear_memo()
            for a in order:
                assert homology.rank_locus(ring, module).betti_at(a, range(upto + 1)) == want[a], (name, a)
            sections = memo("homotopies", (ring.key(), module.content_key()), None)
            assert sections.first == order[0] and sections.module_reader is not None


@pytest.mark.parametrize(
    "make, p, name, want",
    [
        (two_var_ring, 5, "cone(chi1*chi2)", [4, 8, 8, 8, 8, 8, 8]),
        (three_var_ring, 3, "K_quadric", [10, 26, 33, 33, 33, 33, 33]),
    ],
)
def test_the_zero_direction_reads_every_rank_of_the_shamash_complex(make, p, name, want):
    # f_0 = 0, so no homotopy acts and each Tor rank is the rank of F_m, as
    # it was when zero was asked after another direction; asked first, it
    # reads the module's table too (a table of f_0 alone cannot be built),
    # and no normalisation of the point divides by zero
    ring = make(p)
    module = catalog_modules(ring)[name]
    zero, e1 = (0,) * ring.c, (1,) + (0,) * (ring.c - 1)
    for before in ([], [e1], [e1, (2,) * ring.c]):
        clear_memo()
        locus = homology.rank_locus(ring, module)
        for a in before:
            locus.betti_at(a, range(7))
        # coordinates not reduced mod p name the same point
        assert locus.betti_at((p,) * ring.c, range(7)) == want, before
        assert locus.betti_at(zero, range(7)) == want, before
        assert membership(ring, module, residue_module(ring), zero)
        assert locus.betti_at((p + 1,) + e1[1:], range(7)) == locus.betti_at(e1, range(7))


def _one_variable_cases():
    for m in range(2, 5):
        for p in (2, 3, 5):
            q = PolyRing(["x"], field=PrimeField(p))
            ring = CIRing(q, [parse_poly(q, f"x^{m}")])
            modules = {"k": residue_module(ring), "R": free_module(ring)}
            modules.update({f"R/(x^{j})": cyclic_module(ring, [parse_poly(q, f"x^{j}")]) for j in range(1, m)})
            yield pytest.param(ring, modules, id=f"x^{m}_p{p}")


@pytest.mark.parametrize("ring, modules", _one_variable_cases())
def test_one_variable_sections_are_read_off_the_table(ring, modules):
    # Q = k[x] takes the reader like any Q: at a nonzero a the Tor ranks of
    # Q/(a x^m) are the Groebner engine's Betti numbers, and at zero each
    # is the rank of F_m, the G_i with i <= m of the parity of m
    for name, module in modules.items():
        clear_memo()
        for a in range(1, ring.field.p):
            hyper = CIRing(ring.ambient, [ring.form((a,))], validate=False)
            want = minimal_resolution(hyper, restrict_to_ring(module, hyper), 6, engine="groebner").betti[:7]
            assert homology.rank_locus(ring, module).betti_at((a,), range(7)) == want, (name, a)
        betti = ambient_resolution(module).res.betti
        want = [sum(betti[m % 2 : m + 1 : 2]) for m in range(7)]
        assert homology.rank_locus(ring, module).betti_at((0,), range(7)) == want, name


def _identity_cases():
    for name, ring in (
        ("2var_p3", two_var_ring(3)),
        ("3var_p3", three_var_ring(3)),
        ("nonmonomial_p3", nonmonomial_p3_ring()),
        ("mixed_degree_p3", mixed_degree_ring()),
    ):
        q = ring.ambient
        mods = {"k": residue_module(ring), "R/(x+y)": cyclic_module(ring, [parse_poly(q, "x + y")])}
        if ring.c == 3:
            mods["syz1(k)"] = catalog_modules(ring)["syz1(k)"]
        if name == "3var_p3":  # the one whose sigma_alpha with |alpha| = 2 are nonzero
            mods["K_quadric"] = catalog_modules(ring)["K_quadric"]
        for mod_name, module in mods.items():
            yield f"{name}-{mod_name}", ring, module


@pytest.mark.parametrize("case", list(_identity_cases()), ids=lambda c: c[0])
def test_homotopy_system_identities_over_a_sequence(case):
    """With sigma_0 = d: d sigma_{e_j} + sigma_{e_j} d = f_j id, and
    sum_{beta+gamma=alpha} sigma_beta sigma_gamma = 0 for |alpha| >= 2, as
    polynomial-matrix identities on every G_i."""
    _, ring, module = case
    clear_memo()
    amb_res = ambient_resolution(module)
    res, pd, c = amb_res.res, amb_res.pd, ring.c
    sigma = homology.homotopy_system(amb_res, ring.fs)
    assert sigma and all(len(alpha) == c and sum(alpha) >= 1 for alpha, _ in sigma)
    q = ring.ambient

    def sigma_at(beta, i):
        if not any(beta):
            return res.differential(i) if 1 <= i <= pd else None
        return sigma.get((beta, i))

    checked = 0
    for t in range(1, pd + 2):
        for alpha in itertools.product(range(t + 1), repeat=c):
            if sum(alpha) != t:
                continue
            for i in range(pd + 1):
                out = i + 2 * t - 2
                if out > pd:
                    continue
                rows, cols = res.betti[out], res.betti[i]
                lhs = PolyMatrix.zero(q, [0] * rows, [0] * cols)
                for beta in itertools.product(*(range(a + 1) for a in alpha)):
                    gamma = tuple(a - b for a, b in zip(alpha, beta))
                    left, right = sigma_at(beta, i + 2 * sum(gamma) - 1), sigma_at(gamma, i)
                    if left is not None and right is not None:
                        lhs = lhs + left.mul(right)
                want = PolyMatrix.zero(q, [0] * rows, [0] * cols)
                if t == 1:
                    f = ring.fs[alpha.index(1)]
                    want = PolyMatrix.identity(q, [0] * cols).kron(PolyMatrix(q, [[f]], (0,), (0,)))
                assert (lhs + -want).is_zero(), (alpha, i)
                checked += 1
    assert checked >= c * pd
    if case[0] == "3var_p3-K_quadric":
        assert any(sum(alpha) == 2 for alpha, _ in sigma)


def test_one_sequence_recursion_gives_the_single_f_homotopies():
    # homotopy_system on (f,), keyed by (t, i), is the per-direction build
    ring = three_var_ring(3)
    module = catalog_modules(ring)["syz1(k)"]
    for a in ((1, 0, 0), (1, 2, 1)):
        hyper = CIRing(ring.ambient, [ring.form(a)], validate=False)
        assert ReferenceComplex(hyper, module).sigma == PerDirectionComplex(hyper, module).sigma
    assert not hasattr(homology, "HypersurfaceComplex")


def _lift_spy(monkeypatch):
    lifts = []
    real = homology.AmbientResolution.lift

    def spy(self, i, col):
        lifts.append(i)
        return real(self, i, col)

    monkeypatch.setattr(homology.AmbientResolution, "lift", spy)
    return lifts


@pytest.mark.parametrize("job", ["member_cubic_residue", "member_quadric4_pair"])
def test_a_member_job_lifts_as_the_single_f_build_does(job, monkeypatch, capsys):
    from cisupport import cli

    path = os.path.join(GOLDEN, job + ".job")
    with open(path, encoding="utf-8") as fh:
        spec = parse_input(fh.read())
    ring = spec.ci_ring()
    params = spec.command.params
    module = spec.build_module(params["module"], ring)
    a = tuple(int(x) for x in params["point"].split(","))
    monkeypatch.delenv("CISUPPORT_CACHE", raising=False)
    lifts = _lift_spy(monkeypatch)
    clear_memo()
    PerDirectionComplex(CIRing(ring.ambient, [ring.form(a)], validate=False), module)
    want = len(lifts)
    lifts.clear()
    clear_memo()
    assert cli.main(["member", "--input", path]) == 0
    capsys.readouterr()
    assert want > 0 and len(lifts) == want


def test_the_module_system_is_built_once_and_later_directions_lift_nothing(monkeypatch):
    ring = three_var_ring(3)
    module = cyclic_module(ring, [parse_poly(ring.ambient, "x + 2*z")])
    k = residue_module(ring)
    lifts = _lift_spy(monkeypatch)
    systems = []
    real = homology.homotopy_system

    def spy(ambient, fs):
        systems.append(len(fs))
        return real(ambient, fs)

    monkeypatch.setattr(homology, "homotopy_system", spy)
    clear_memo()
    per_direction = []
    lines = _projective_points(ring.field, 3)
    for a in lines + [a for a in _points(ring.field, 3) if a not in lines]:
        before = len(lifts)
        membership(ring, module, k, a)
        per_direction.append(len(lifts) - before)
    # the first direction builds f_a's homotopies, the second (a point of
    # another line) the module's system over f_1, f_2, f_3, and every later
    # one, the multiples of the first included, only specializes it
    assert systems == [1, 3]
    assert per_direction[0] > 0 and per_direction[1] > per_direction[0]
    assert per_direction[2:] == [0] * (len(per_direction) - 2)


def test_a_repeated_first_direction_builds_its_homotopies_once(monkeypatch):
    ring = three_var_ring(3)
    module = catalog_modules(ring)["K_quadric"]
    k = residue_module(ring)
    systems = []
    real = homology.homotopy_system

    def spy(ambient, fs):
        systems.append(len(fs))
        return real(ambient, fs)

    monkeypatch.setattr(homology, "homotopy_system", spy)
    clear_memo()
    answers = {membership(ring, module, k, (1, 1, 0)) for _ in range(3)}
    assert systems == [1] and len(answers) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 101]),
    st.lists(st.lists(st.integers(0, 100), min_size=2, max_size=4), min_size=1, max_size=4),
)
def test_irreducible_factors_match_sympy(p, parts):
    # products of small random polynomials, repeated factors included
    from sympy import GF, Poly as SymPoly, symbols

    x = symbols("x")
    g = [1]
    for part in parts + parts[:1]:
        f = homology._ptrim([c % p for c in part])
        if len(f) > 1:
            g = homology._pmul(g, f, p)
    got = sorted(tuple(h) for h in homology._irreducible_factors(g, p, random.Random(0)))
    want = sorted(
        tuple(homology._pgcd([int(c) % p for c in reversed(f.all_coeffs())], [], p))
        for f, _ in SymPoly(list(reversed(g)), x, modulus=p).factor_list()[1]
    )
    assert got == want
