import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisupport import modlinalg
from cisupport.cimodule import (
    CIRing,
    GradedModule,
    cyclic_module,
    free_blocks,
    free_module,
    hilbert_function,
    is_residue_field,
    quotient_by_element,
    residue_module,
    restrict_to_ring,
    slice_matrix,
    submodule_and_quotient,
    syzygy_matrix,
    tensor_over_base,
    zero_module,
)
from cisupport.field import PrimeField
from cisupport.pmatrix import PolyMatrix
from cisupport.poly import PolyRing, parse_poly, render_poly, sum_of_products

F5 = PrimeField(5)


def ring2(p=5):
    q = PolyRing(["x", "y"], field=PrimeField(p))
    return q, CIRing(q, [parse_poly(q, "x^2"), parse_poly(q, "y^2")])


# ---------------------------------------------------------------------------
# PolyMatrix basics


def test_polymatrix_homogeneity_enforced():
    q, _ = ring2()
    with pytest.raises(ValueError):
        PolyMatrix(q, [[parse_poly(q, "x")]], (0,), (2,)).check_homogeneous()
    PolyMatrix(q, [[parse_poly(q, "x^2")]], (0,), (2,)).check_homogeneous()


def test_polymatrix_block_and_transpose():
    q, _ = ring2()
    a = PolyMatrix(q, [[parse_poly(q, "x")]], (0,), (1,))
    z = PolyMatrix.zero(q, (0,), (1,))
    blk = PolyMatrix.block(q, [[a, z], [z, a]])
    assert (blk.nrows, blk.ncols) == (2, 2)
    t = a.transpose()
    assert t.row_twists == (-1,) and t.col_twists == (0,)


def reference_mul(a, b, reduce=None):
    """The old product loop: acc = acc + x * y, re-sorted after every term."""
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = a.ring.zero()
            for k in range(a.ncols):
                x, y = a.entries[i][k], b.entries[k][j]
                if x.is_zero() or y.is_zero():
                    continue
                acc = acc + x * y
            row.append(reduce(acc) if reduce else acc)
        out.append(row)
    return PolyMatrix(a.ring, out, a.row_twists, b.col_twists)


@st.composite
def product_cases(draw):
    """Two matrices over F_5[x, y] with few monomials, so that products often
    cancel to zero, and an optional reducing map."""
    q, ring = ring2()
    monos = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]

    def entry():
        terms = draw(st.lists(st.tuples(st.sampled_from(monos), st.integers(0, 4)), max_size=3))
        return q.from_terms(terms)

    n, k, m = (draw(st.integers(0, 3)) for _ in range(3))
    a = PolyMatrix(q, [[entry() for _ in range(k)] for _ in range(n)], (0,) * n, (0,) * k)
    b = PolyMatrix(q, [[entry() for _ in range(m)] for _ in range(k)], (0,) * k, (0,) * m)
    reduce = draw(st.sampled_from([None, ring.nf, lambda f: f.scale(2)]))
    return a, b, reduce


@settings(max_examples=100, deadline=None)
@given(product_cases())
def test_polymatrix_mul_and_apply_match_the_old_loop(case):
    a, b, reduce = case
    want = reference_mul(a, b, reduce)
    assert a.mul(b, reduce=reduce) == want
    for j in range(b.ncols):
        column = PolyMatrix.from_columns(b.ring, b.row_twists, [b.column(j)], b.col_twists[j : j + 1])
        assert a.mul(column, reduce=reduce).column(0) == want.column(j)


@st.composite
def kron_cases(draw):
    """Two small matrices over F_5[x, y] with arbitrary twists."""
    q, _ = ring2()
    monos = [(0, 0), (1, 0), (0, 1), (2, 0)]

    def matrix():
        n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        entries = [
            [q.from_terms(draw(st.lists(st.tuples(st.sampled_from(monos), st.integers(0, 4)), max_size=2)))
             for _ in range(m)]
            for _ in range(n)
        ]
        twists = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        return PolyMatrix(q, entries, draw(twists), draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)))

    return matrix(), matrix(), draw(st.integers(-3, 3))


@settings(max_examples=100, deadline=None)
@given(kron_cases())
def test_kron_places_each_product_at_the_paired_index(case):
    a, b, s = case
    k = a.kron(b)
    assert (k.nrows, k.ncols) == (a.nrows * b.nrows, a.ncols * b.ncols)
    for i, j, u, v in itertools.product(range(a.nrows), range(a.ncols), range(b.nrows), range(b.ncols)):
        assert k.entries[i * b.nrows + u][j * b.ncols + v] == a.entries[i][j] * b.entries[u][v]
    assert k.row_twists == tuple(r + t for r in a.row_twists for t in b.row_twists)
    assert k.col_twists == tuple(c + t for c in a.col_twists for t in b.col_twists)
    ident = PolyMatrix.identity(a.ring, a.row_twists)
    assert ident.mul(a) == a and ident.kron(PolyMatrix.identity(b.ring, b.row_twists)) == (
        PolyMatrix.identity(a.ring, k.row_twists)
    )
    shifted = a.twisted(s)
    assert shifted.entries == a.entries
    assert shifted.row_twists == tuple(t + s for t in a.row_twists)
    assert shifted.col_twists == tuple(t + s for t in a.col_twists)


def test_polymatrix_mul_cancels_to_the_zero_polynomial():
    q, _ = ring2()
    x, y = parse_poly(q, "x"), parse_poly(q, "y")
    a = PolyMatrix(q, [[x, y]], (0,), (1, 1))
    b = PolyMatrix(q, [[y], [parse_poly(q, "4*x")]], (1, 1), (2,))
    assert a.mul(b).entries[0][0].terms == ()
    assert a.mul(b).column(0) == [q.zero()]


@st.composite
def sparse_homogeneous_products(draw):
    """Two homogeneous matrices over F_5[x, y], each entry of degree column
    twist - row twist and zero at random, with whole rows and columns of
    zeros on both sides of the product."""
    q, ring = ring2()

    def twists():
        return draw(st.lists(st.integers(0, 3), max_size=4))

    def matrix(row_twists, col_twists):
        zero_rows = draw(st.sets(st.integers(0, 3)))
        zero_cols = draw(st.sets(st.integers(0, 3)))
        entries = []
        for i, r in enumerate(row_twists):
            row = []
            for j, c in enumerate(col_twists):
                monos = q.monomials_of_degree(c - r) if c >= r else []
                terms = []
                if monos and i not in zero_rows and j not in zero_cols and draw(st.booleans()):
                    terms = draw(st.lists(st.tuples(st.sampled_from(monos), st.integers(1, 4)), min_size=1, max_size=2))
                row.append(q.from_terms(terms))
            entries.append(row)
        return PolyMatrix(q, entries, row_twists, col_twists).check_homogeneous()

    inner = twists()
    return ring, matrix(twists(), inner), matrix(inner, twists())


@settings(max_examples=150, deadline=None)
@given(sparse_homogeneous_products())
def test_sparse_polymatrix_mul_equals_the_dense_sums_and_reduces_only_reached_entries(case):
    ring, a, b = case
    q = a.ring
    for reduce in (None, ring.nf):
        want = [[sum_of_products(q, zip(row, col), reduce) for col in b.columns()] for row in a.entries]
        assert a.mul(b, reduce=reduce) == PolyMatrix(q, want, a.row_twists, b.col_twists)
    reached = {
        (i, j)
        for i, k, j in itertools.product(range(a.nrows), range(a.ncols), range(b.ncols))
        if a.entries[i][k].terms and b.entries[k][j].terms
    }
    reduced = []

    def spy(f):
        reduced.append(f)
        return ring.nf(f)

    got = a.mul(b, reduce=spy)
    assert len(reduced) == len(reached)
    for i, j in itertools.product(range(a.nrows), range(b.ncols)):
        if (i, j) not in reached:
            assert got.entries[i][j].terms == ()


# ---------------------------------------------------------------------------
# syzygies


def test_koszul_syzygy_over_free_ring():
    q, _ = ring2()
    m = PolyMatrix(q, [[parse_poly(q, "x"), parse_poly(q, "y")]], (0,), (1, 1))
    s, _ = syzygy_matrix(CIRing(q, ()), m)
    assert s.ncols == 1
    col = s.column(0)
    assert render_poly(col[0]) == "y" and render_poly(col[1]) == "4*x"


def test_regular_element_has_no_syzygies():
    q1 = PolyRing(["x"], field=F5)
    m = PolyMatrix(q1, [[parse_poly(q1, "x")]], (0,), (1,))
    s, _ = syzygy_matrix(CIRing(q1, ()), m)
    assert s.ncols == 0 and s.nrows == 1


def test_syzygies_over_artinian_quotient():
    q, r = ring2()
    m = PolyMatrix(q, [[parse_poly(q, "x"), parse_poly(q, "y")]], (0,), (1, 1))
    s, _ = syzygy_matrix(r, m)
    # product is zero over the quotient, entry-exactly
    prod = m.mul(s, reduce=r.nf)
    assert prod.is_zero()
    # completeness against the brute-force graded kernel, degree by degree
    for d in range(0, 7):
        a = slice_matrix(r, m, d)
        kernel_dim = a.shape[1] - modlinalg.rank(a, 5)
        span = slice_matrix(r, s, d)
        assert modlinalg.rank(span, 5) == kernel_dim


def test_syzygy_columns_of_zero_matrix():
    q, _ = ring2()
    z = PolyMatrix.zero(q, (0,), (1,))
    s, _ = syzygy_matrix(CIRing(q, ()), z)
    assert s.ncols == 1  # the trivial syzygy on a zero column


# ---------------------------------------------------------------------------
# modules, minimal presentations, Hilbert functions


def test_residue_module_minimal_presentation():
    _, r = ring2()
    k = residue_module(r).minimalized()
    assert k.ngens == 1 and k.nrels == 2
    assert is_residue_field(k)
    assert not is_residue_field(cyclic_module(r, [parse_poly(r.ambient, "x")]))


def test_residue_field_test_runs_buchberger_only_on_the_given_relations(monkeypatch):
    from cisupport import cimodule

    q = PolyRing(["x", "y", "z"], field=PrimeField(3), weights=[1, 2, 1])
    r = CIRing(q, [parse_poly(q, "x^2"), parse_poly(q, "y^2 + x*z^3")])
    k = residue_module(r)
    by_hand = cyclic_module(r, [parse_poly(q, s) for s in ("z + x", "y + x^2", "x")])
    real, runs = cimodule.buchberger, []

    def spy(gens):
        runs.append(len(gens))
        return real(gens)

    monkeypatch.setattr(cimodule, "buchberger", spy)
    assert is_residue_field(k)
    assert runs == []  # residue_module builds k, so nothing is left to decide
    assert is_residue_field(by_hand)
    assert len(runs) == 1  # the presentation's relations; the variables' basis is known
    assert not is_residue_field(cyclic_module(r, [parse_poly(q, "x"), parse_poly(q, "y")]))


def test_a_validated_ring_runs_buchberger_once(monkeypatch):
    from cisupport import cimodule, groebner

    q = PolyRing(["x", "y", "z"], field=F5)
    fs = [parse_poly(q, s) for s in ("x^2", "y^2", "z^2")]
    real, runs = groebner.buchberger, []

    def spy(gens):
        runs.append(len(gens))
        return real(gens)

    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(cimodule, "buchberger", spy)
    ring = CIRing(q, fs)
    assert runs == [3]  # the regular-sequence test's run; the ring keeps its basis
    assert ring.gb == real(fs)


def test_zero_module_conventions():
    _, r = ring2()
    z = zero_module(r)
    assert z.is_zero() and z.ngens == 0
    assert hilbert_function(z, 3) == [0, 0, 0, 0]


def test_unit_entries_prune_away():
    q, r = ring2()
    # one generator is redundant: e2 = -x e1 via the unit in the presentation
    pres = PolyMatrix(
        q,
        [[parse_poly(q, "x"), parse_poly(q, "y^2")], [q.one(), parse_poly(q, "y")]],
        (0, 1),
        (1, 2),
    )
    m = GradedModule(r, pres).minimalized()
    assert m.ngens == 1
    for row in m.presentation.entries:
        for e in row:
            assert e.is_zero() or e.degree() >= 1


def test_hilbert_function_of_quotient_ring():
    _, r = ring2()
    assert hilbert_function(free_module(r), 4) == [1, 2, 1, 0, 0]
    assert hilbert_function(residue_module(r), 3) == [1, 0, 0, 0]


def test_free_basis_and_coords():
    _, r = ring2()
    dim, blocks = free_blocks(r, (0, 1), 1)
    assert dim == 3  # x, y on the first generator; 1 on the second
    assert {t: (g.tolist(), pos.tolist()) for t, (g, pos) in blocks.items()} == {
        0: ([0], [[0, 1]]),
        1: ([1], [[2]]),
    }


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_of_cyclic_modules():
    q, _ = ring2()
    free = CIRing(q, ())
    m1 = cyclic_module(free, [parse_poly(q, "x")])
    m2 = cyclic_module(free, [parse_poly(q, "y")])
    t = tensor_over_base(m1, m2, free).minimalized()
    assert t.ngens == 1
    rels = sorted(render_poly(e) for e in t.presentation.entries[0])
    assert rels == ["x", "y"]


def test_tensor_idempotent_for_equal_annihilators():
    q, _ = ring2()
    free = CIRing(q, ())
    m1 = cyclic_module(free, [parse_poly(q, "x")])
    t = tensor_over_base(m1, m1, free).minimalized()
    assert t.ngens == 1
    assert [render_poly(e) for e in t.presentation.entries[0]] == ["x"]


def test_tensor_factors_must_live_over_the_free_ring_of_the_target():
    q, r = ring2()
    free = CIRing(q, ())
    other = CIRing(PolyRing(["x", "y"], field=PrimeField(7)), ())
    m = cyclic_module(free, [parse_poly(q, "x")])
    with pytest.raises(ValueError):
        tensor_over_base(m, cyclic_module(r, [parse_poly(q, "y")]), r)
    with pytest.raises(ValueError):
        tensor_over_base(m, cyclic_module(other, [other.ambient.var_poly(0)]), r)


def reference_tensor_presentation(m1, m2):
    """tensor_over_base's presentation as it was built before Kronecker
    products: each relation column placed by hand at index i*g2 + j."""
    amb = m1.ring.ambient
    g1, g2 = m1.ngens, m2.ngens
    row_twists = [m1.row_twists[i] + m2.row_twists[j] for i in range(g1) for j in range(g2)]
    cols, col_twists = [], []
    p1, p2 = m1.presentation, m2.presentation
    for s in range(m1.nrels):
        for j in range(g2):
            col = [amb.zero()] * (g1 * g2)
            for i in range(g1):
                col[i * g2 + j] = p1.entries[i][s]
            cols.append(col)
            col_twists.append(p1.col_twists[s] + m2.row_twists[j])
    for i in range(g1):
        for t in range(m2.nrels):
            col = [amb.zero()] * (g1 * g2)
            for j in range(g2):
                col[i * g2 + j] = p2.entries[j][t]
            cols.append(col)
            col_twists.append(m1.row_twists[i] + p2.col_twists[t])
    return PolyMatrix.from_columns(amb, row_twists, cols, col_twists)


def _tensor_factors():
    q, _ = ring2()
    free = CIRing(q, ())
    x, y = parse_poly(q, "x"), parse_poly(q, "y")
    return {
        "cyclic": cyclic_module(free, [x, parse_poly(q, "y^2")]),
        "two-gen": GradedModule.from_columns(free, (0, 1), [[x, parse_poly(q, "3")], [y, q.zero()], [q.zero(), x]]),
        "free-twisted": GradedModule.from_columns(free, (0, 2), [], ()),
        "zero": GradedModule.from_columns(free, (), [], ()),
    }


@pytest.mark.parametrize("left", sorted(_tensor_factors()))
@pytest.mark.parametrize("right", sorted(_tensor_factors()))
def test_tensor_presentation_equals_the_hand_placed_columns(left, right):
    factors = _tensor_factors()
    m1, m2 = factors[left], factors[right]
    q = m1.ring
    got = tensor_over_base(m1, m2, q)
    assert got.presentation == GradedModule(q, reference_tensor_presentation(m1, m2)).presentation


def test_tensor_presentation_shape_law():
    q, _ = ring2()
    free = CIRing(q, ())
    m1 = GradedModule.from_columns(
        free, (0, 0), [[parse_poly(q, "x"), parse_poly(q, "y")]]
    )  # 2 gens, 1 rel
    m2 = cyclic_module(free, [parse_poly(q, "x"), parse_poly(q, "y^2")])  # 1 gen, 2 rels
    t = tensor_over_base(m1, m2, free)
    assert t.ngens == 2 * 1
    assert t.nrels == 1 * 1 + 2 * 2


# ---------------------------------------------------------------------------
# quotients by elements, submodules


def test_quotient_by_regular_element():
    q3 = PolyRing(["x", "y", "z"], field=F5)
    r = CIRing(q3, [parse_poly(q3, "x^2")])
    quot, regular = quotient_by_element(free_module(r), parse_poly(q3, "y"))
    assert regular
    m = quot.minimalized()
    assert m.ngens == 1 and [render_poly(e) for e in m.presentation.entries[0]] == ["y"]


def test_nothing_is_regular_on_the_residue_field():
    q, r = ring2()
    k = residue_module(r)
    _, regular = quotient_by_element(k, parse_poly(q, "x"))
    assert not regular


def test_no_regular_elements_on_artinian_rings():
    q, r = ring2()
    for s in ("x", "y", "x + y", "x + 2*y"):
        _, regular = quotient_by_element(free_module(r), parse_poly(q, s))
        assert not regular


def test_submodule_and_quotient_with_hs_additivity():
    q, r = ring2()
    sub, quot, incl = submodule_and_quotient(free_module(r), [[parse_poly(q, "x")]])
    s_min = sub.minimalized()
    assert s_min.ngens == 1
    assert [render_poly(e) for e in s_min.presentation.entries[0]] == ["4*x"]
    q_min = quot.minimalized()
    assert [render_poly(e) for e in q_min.presentation.entries[0]] == ["x"]
    hs = hilbert_function(sub, 5)
    hq = hilbert_function(quot, 5)
    hm = hilbert_function(free_module(r), 5)
    assert [a + b for a, b in zip(hs, hq)] == hm


def test_submodule_trivial_cases():
    q, r = ring2()
    m = free_module(r)
    sub, quot, _ = submodule_and_quotient(m, [[q.one()]])
    assert quot.is_zero()
    sub2, quot2, _ = submodule_and_quotient(m, [[q.zero()]])
    assert sub2.is_zero()
    assert hilbert_function(quot2, 4) == hilbert_function(m, 4)


# ---------------------------------------------------------------------------
# restriction to larger quotients


def test_restrict_to_hypersurface_ring():
    q, r = ring2()
    x2 = parse_poly(q, "x^2")
    hyper = CIRing(q, [x2])
    k = residue_module(r)
    k_h = restrict_to_ring(k, hyper).minimalized()
    assert is_residue_field(k_h)
    m = cyclic_module(r, [parse_poly(q, "x")])
    m_h = restrict_to_ring(m, hyper).minimalized()
    rels = sorted(render_poly(e) for e in m_h.presentation.entries[0])
    assert rels == ["x", "y^2"]


def reference_restrict_to_ring(module, target):
    """The restriction with its h * e_i columns laid out by hand."""
    amb = target.ambient
    pres = module.presentation
    cols = [[target.nf(p) for p in pres.column(j)] for j in range(pres.ncols)]
    twists = list(pres.col_twists)
    for h in module.ring.gb:
        hh = target.nf(h)
        if hh.is_zero():
            continue
        for i in range(module.ngens):
            col = [amb.zero()] * module.ngens
            col[i] = hh
            cols.append(col)
            twists.append(module.row_twists[i] + hh.degree())
    return GradedModule(target, PolyMatrix.from_columns(amb, module.row_twists, cols, twists))


def test_restriction_blocks_equal_the_hand_laid_columns():
    from cisupport.catalog import catalog_modules, three_var_ring

    ring = three_var_ring(3)
    q = ring.ambient
    targets = [CIRing(q, ()), CIRing(q, ring.fs[:1]), CIRing(q, [ring.form((1, 2, 0))], validate=False)]
    for name, module in catalog_modules(ring).items():
        for target in targets:
            got = restrict_to_ring(module, target)
            assert got.content_key() == reference_restrict_to_ring(module, target).content_key(), name
