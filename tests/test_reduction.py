"""The one division loop, the incremental basis and the kernel-modulo-
relations helper.

GroebnerBasis.reduce and normal_form are compared with the plain division
loop that takes max(work) each step, buchberger with sympy's Groebner bases
mod p, module_groebner and module_syzygies with the separate S-pair loop and
the second pass over the finished basis that they replaced, the
degree-truncated IncrementalGB with a basis finished after every vector and
with its own S-pair loop, and kernel_modulo with Groebner containment in the
relation span.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisupport.catalog import catalog_modules, three_var_ring, two_var_ring
from cisupport.cimodule import (
    CIRing,
    column_degree,
    column_to_vec,
    kernel_modulo,
    minimal_generator_indices,
    quotient_columns,
    submodule_igb,
    syzygy_matrix,
)
from cisupport.field import PrimeField
from cisupport.groebner import (
    GroebnerBasis,
    IncrementalGB,
    ModuleCtx,
    buchberger,
    module_groebner,
    module_syzygies,
    normal_form,
    vec_to_column,
    vp_axpy,
)
from cisupport.poly import PolyRing, mono_div, mono_divides, parse_poly

RINGS = [
    PolyRing(["x", "y"], field=PrimeField(5)),
    PolyRing(["x", "y", "z"], field=PrimeField(7)),
    PolyRing(["x", "y", "z"], field=PrimeField(101), weights=(1, 2, 1)),
]


def reference_key(ring, twists, term):
    """The module order as the old loops spelled it: larger key = larger term."""
    comp, mono = term
    return (ring.wdeg(mono) + twists[comp], tuple(-e for e in reversed(mono)), -comp)


def reference_reduce(ring, twists, elements, v):
    """Division of v by monic elements, taking max(work) every step; returns
    (remainder, [(element index, quotient monomial, quotient coefficient)])."""
    field = ring.field
    key = lambda t: reference_key(ring, twists, t)
    leads = [max(g, key=key) for g in elements]
    work, rem, steps = dict(v), {}, []
    while work:
        t = max(work, key=key)
        c = work[t]
        i = next(
            (i for i, (comp, lm) in enumerate(leads) if comp == t[0] and mono_divides(lm, t[1])),
            None,
        )
        if i is None:
            rem[t] = work.pop(t)
            continue
        qm = mono_div(t[1], leads[i][1])
        vp_axpy(field, work, elements[i], qm, field.neg(c))
        steps.append((i, qm, c))
    return rem, steps


def reference_normal_form(f, basis):
    """Division of f by a list of (not necessarily monic) polynomials."""
    ring, field = f.ring, f.ring.field
    work, rem = dict(f.terms), {}
    lookup = [(g.lm(), g.lc(), g) for g in basis if not g.is_zero()]
    while work:
        mono = max(work, key=ring.mono_key)
        c = work[mono]
        hit = next((h for h in lookup if mono_divides(h[0], mono)), None)
        if hit is None:
            rem[mono] = work.pop(mono)
            continue
        lm, lc, g = hit
        qc = field.mul(c, field.inv(lc))
        for m2, c2 in g.terms:
            t = tuple(a + b for a, b in zip(m2, mono_div(mono, lm)))
            nc = field.sub(work.get(t, field.zero), field.mul(c2, qc))
            if nc == field.zero:
                work.pop(t, None)
            else:
                work[t] = nc
    return ring.from_terms(rem.items())


@st.composite
def polys(draw, ring, max_deg=3, max_terms=4):
    p = ring.field.p
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_deg)) for _ in range(ring.n))
        terms.append((mono, draw(st.integers(0, p - 1))))
    return ring.from_terms(terms)


@st.composite
def vectors(draw, ring, ncomp):
    """Component polynomials; often the first one again, so that equal terms
    in different components have to be ordered."""
    first = draw(polys(ring, max_terms=3))
    v = {}
    for comp in range(ncomp):
        f = first if comp == 0 or draw(st.booleans()) else draw(polys(ring, max_terms=3))
        for m, c in f.terms:
            v[(comp, m)] = c
    return v


@st.composite
def module_cases(draw):
    ring = draw(st.sampled_from(RINGS))
    ncomp = draw(st.integers(1, 2))
    twists = tuple(draw(st.integers(0, 2)) for _ in range(ncomp))
    inputs = draw(st.lists(vectors(ring, ncomp), min_size=1, max_size=3))
    targets = draw(st.lists(vectors(ring, ncomp), min_size=1, max_size=3))
    return ring, twists, inputs, targets


@settings(max_examples=60, deadline=None)
@given(module_cases())
def test_reduce_matches_the_max_based_loop_and_tracks_traces(case):
    ring, twists, inputs, targets = case
    field = ring.field
    gb = module_groebner(ring, twists, inputs, track=True)
    key = lambda t: reference_key(ring, twists, t)
    assert gb.leads == [max(g, key=key) for g in gb.elements]
    in_span = inputs + [gb.spair(a, b)[0] for b in range(len(gb.elements)) for a in range(b)]
    assert all(gb.express(v) is not None for v in in_span)
    for v in targets + in_span:
        tr = {}
        rem = gb.reduce(v, tr)
        ref_rem, steps = reference_reduce(ring, twists, gb.elements, v)
        assert list(rem.items()) == sorted(ref_rem.items(), key=lambda kv: key(kv[0]), reverse=True)
        ref_tr = {}
        for i, qm, qc in steps:
            vp_axpy(field, ref_tr, gb.traces[i], qm, field.neg(qc))
        assert tr == ref_tr
        # v = sum_j coeff_j * input_j + remainder, with coeff = -tr
        recombined = dict(rem)
        for (j, m), c in tr.items():
            vp_axpy(field, recombined, inputs[j], m, field.neg(c))
        assert recombined == {t: c for t, c in v.items() if c}
        coeffs = gb.express(v)
        assert (coeffs is None) == bool(rem)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_normal_form_matches_the_max_based_loop(data):
    ring = data.draw(st.sampled_from(RINGS))
    basis = data.draw(st.lists(polys(ring, max_deg=2), max_size=4))
    for f in data.draw(st.lists(polys(ring, max_terms=6), min_size=1, max_size=3)):
        assert normal_form(f, basis) == reference_normal_form(f, basis)
        gb = buchberger(basis)
        assert normal_form(f, gb) == reference_normal_form(f, gb)


# ---------------------------------------------------------------------------
# module bases and syzygies from the one tracked run


def reference_module_groebner(ring, twists, vectors, track=False):
    """module_groebner with its own S-pair loop, as before GroebnerBasis
    owned the queue."""
    field = ring.field
    gb = GroebnerBasis(ModuleCtx(ring, twists), track)
    pairs = []

    def add(v, tr):
        rem = gb.reduce(v, tr)
        if rem:
            b = gb.insert(rem, tr)
            for a in range(b):
                if gb.leads[a][0] == gb.leads[b][0]:
                    heapq.heappush(pairs, (gb.pair_degree(a, b), a, b))

    for j, v in enumerate(vectors):
        if v:
            add(v, {(j, ring.zero_mono): field.one} if track else None)
    while pairs:
        _, a, b = heapq.heappop(pairs)
        add(*gb.spair(a, b))
    return gb


def reference_module_syzygies(ring, twists, vectors):
    """The two-pass construction: a tracked basis, then every input and every
    S-pair of the finished basis reduced again, keeping the nonzero traces."""
    field = ring.field
    gb = reference_module_groebner(ring, twists, vectors, track=True)
    n = len(gb.elements)
    pairs = sorted(
        (gb.pair_degree(a, b), a, b)
        for b in range(n)
        for a in range(b)
        if gb.leads[a][0] == gb.leads[b][0]
    )
    inputs = ((v, {(j, ring.zero_mono): field.one}) for j, v in enumerate(vectors))
    spairs = (gb.spair(a, b) for _, a, b in pairs)
    syzygies = []
    for v, syz in itertools.chain(inputs, spairs):
        assert not gb.reduce(v, syz)
        if syz:
            syzygies.append(syz)
    return syzygies


def is_syzygy(ring, vectors, syz):
    total = {}
    for (j, m), c in syz.items():
        vp_axpy(ring.field, total, vectors[j], m, c)
    return not total


@st.composite
def homogeneous_module_cases(draw):
    """Homogeneous inputs of mixed degrees, often zero, sometimes the sum of
    two earlier ones of the same degree."""
    ring = draw(st.sampled_from(RINGS))
    twists = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=2)))
    degrees, inputs = [], []
    for _ in range(draw(st.integers(1, 5))):
        degree = draw(st.integers(max(twists), max(twists) + 3))
        same = [v for d, v in zip(degrees, inputs) if d == degree]
        if len(same) > 1 and not draw(st.integers(0, 3)):
            v = dict(same[0])
            vp_axpy(ring.field, v, same[-1], ring.zero_mono, ring.field.one)
        else:
            v = draw(homogeneous_vectors(ring, twists, degree))
            vp_axpy(ring.field, v, draw(homogeneous_vectors(ring, twists, degree)),
                    ring.zero_mono, ring.field.one)
        degrees.append(degree)
        inputs.append(v)
    return ring, twists, inputs


@st.composite
def small_module_cases(draw):
    """Small, usually inhomogeneous inputs, with zero vectors mixed in: the
    references apply no criteria and blow up on larger ones."""
    ring = draw(st.sampled_from(RINGS))
    ncomp = draw(st.integers(1, 2))
    twists = tuple(draw(st.integers(0, 2)) for _ in range(ncomp))
    inputs = []
    for _ in range(draw(st.integers(1, 4))):
        inputs.append({
            (comp, m): c
            for comp in range(ncomp)
            for m, c in draw(polys(ring, max_deg=2, max_terms=2)).terms
        })
    return ring, twists, inputs


@settings(max_examples=60, deadline=None)
@given(homogeneous_module_cases())
def test_syzygies_on_homogeneous_input_equal_the_two_pass_list(case):
    ring, twists, inputs = case
    syzygies, basis = module_syzygies(ring, twists, inputs)
    assert syzygies == reference_module_syzygies(ring, twists, inputs)
    assert all(is_syzygy(ring, inputs, syz) for syz in syzygies)
    # the run's basis is the tracked basis of the same inputs
    ref = module_groebner(ring, twists, inputs, track=True)
    assert (basis.elements, basis.leads, basis.traces) == (ref.elements, ref.leads, ref.traces)


def as_multiset(syzygies):
    return sorted(sorted(syz.items()) for syz in syzygies)


@settings(max_examples=60, deadline=None)
@given(small_module_cases())
def test_syzygies_on_inhomogeneous_input_equal_the_two_pass_multiset(case):
    ring, twists, inputs = case
    syzygies, _ = module_syzygies(ring, twists, inputs)
    assert as_multiset(syzygies) == as_multiset(reference_module_syzygies(ring, twists, inputs))
    assert all(is_syzygy(ring, inputs, syz) for syz in syzygies)


def test_a_zero_input_gives_its_unit_syzygy():
    ring = RINGS[0]
    x = {(0, (1, 0)): 1}
    assert module_syzygies(ring, (0,), [x, {}, x])[0] == [
        {(1, (0, 0)): 1},
        {(0, (0, 0)): 4, (2, (0, 0)): 1},
    ]


@settings(max_examples=60, deadline=None)
@given(st.one_of(homogeneous_module_cases(), small_module_cases()), st.booleans())
def test_module_groebner_keeps_elements_leads_and_traces(case, track):
    ring, twists, inputs = case
    inputs = inputs[:1] + [{}] + inputs[1:]  # a zero input still takes an index
    gb = module_groebner(ring, twists, inputs, track=track)
    ref = reference_module_groebner(ring, twists, inputs, track=track)
    assert gb.elements == ref.elements
    assert gb.leads == ref.leads
    assert gb.traces == ref.traces
    assert not gb._pairs


# ---------------------------------------------------------------------------
# the degree-truncated incremental basis


class ReferenceIncrementalGB(GroebnerBasis):
    """The old IncrementalGB: every add finishes the whole basis, taking
    S-vectors from a LIFO stack."""

    def __init__(self, ring, twists):
        super().__init__(ModuleCtx(ring, twists))

    def contains(self, v):
        return not self.reduce(v)

    def add(self, v):
        pending = [v]
        enlarged = False
        while pending:
            w = self.reduce(pending.pop())
            if not w:
                continue
            enlarged = True
            b = self.insert(w)
            for a in range(b):
                if self.leads[a][0] == self.leads[b][0]:
                    s, _ = self.spair(a, b)
                    if s:
                        pending.append(s)
        return enlarged


@st.composite
def homogeneous_vectors(draw, ring, twists, degree):
    """A vector of twisted degree `degree` with at most two terms per
    component (often zero)."""
    p = ring.field.p
    v = {}
    for comp, t in enumerate(twists):
        monos = ring.monomials_of_degree(degree - t)
        if not monos:
            continue
        for _ in range(draw(st.integers(0, 2))):
            v[(comp, draw(st.sampled_from(monos)))] = draw(st.integers(1, p - 1))
    return v


@st.composite
def incremental_cases(draw):
    ring = draw(st.sampled_from(RINGS))
    ncomp = draw(st.integers(1, 2))
    twists = tuple(draw(st.integers(0, 2)) for _ in range(ncomp))
    # small inhomogeneous vectors: the finished reference basis has no
    # criteria and can blow up on larger ones
    small = lambda: {
        (comp, m): c
        for comp in range(ncomp)
        for m, c in draw(polys(ring, max_deg=2, max_terms=2)).terms
    }
    seeds = [small() for _ in range(draw(st.integers(0, 2)))]
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["add", "add", "contains"]))
        if draw(st.integers(0, 5)):
            degree = draw(st.integers(0, 4))  # degrees go up and down
            v = draw(homogeneous_vectors(ring, twists, degree))
        else:
            v = small()  # usually inhomogeneous
        calls.append((op, v))
    return ring, twists, seeds, calls


@settings(max_examples=80, deadline=None)
@given(incremental_cases())
def test_truncated_incremental_basis_matches_the_finished_one(case):
    ring, twists, seeds, calls = case
    igb = IncrementalGB(ring, twists)
    ref = ReferenceIncrementalGB(ring, twists)
    # a seed is a Groebner basis inserted without pairs among its elements
    for g in module_groebner(ring, twists, seeds).elements:
        igb.insert(g)
        ref.add(g)
    for op, v in calls:
        assert getattr(igb, op)(v) == getattr(ref, op)(v)
    # the spans agree in every degree asked about and in every other one
    for g in ref.elements:
        assert igb.contains(g)
    for g in igb.elements:
        assert ref.contains(g)


def test_truncated_basis_leaves_higher_pairs_pending():
    ring = PolyRing(["x", "y", "z"], field=PrimeField(101))
    igb = IncrementalGB(ring, (0,))
    # x*y and y^2 + x*z have an S-pair in degree 3
    assert igb.add({(0, (1, 1, 0)): 1})
    assert igb.add({(0, (0, 2, 0)): 1, (0, (1, 0, 1)): 1})
    assert igb._pairs and igb._pairs[0][0] == 3
    assert not igb.contains({(0, (2, 0, 0)): 1})  # degree 2 leaves it alone
    assert igb._pairs
    # x * (y^2 + x z) - y * (x y) = x^2 z lies in the span
    assert igb.contains({(0, (2, 0, 1)): 1})
    assert not igb._pairs or igb._pairs[0][0] > 3


class ReferenceTruncatedGB(GroebnerBasis):
    """IncrementalGB with its own S-pair heap and loop, as before
    GroebnerBasis owned them."""

    def __init__(self, ring, twists):
        super().__init__(ModuleCtx(ring, twists))
        self.queue = []
        self._homogeneous = True

    def _degree(self, v):
        degrees = {self.ctx.ring.wdeg(m) + self.ctx.twists[comp] for comp, m in v}
        if len(degrees) > 1:
            self._homogeneous = False
            return None
        return degrees.pop()

    def insert(self, v, tr=None):
        self._degree(v)
        return super().insert(v, tr)

    def _complete_to(self, v):
        if not v:
            return
        d = self._degree(v)
        while self.queue and (not self._homogeneous or self.queue[0][0] <= d):
            _, a, b = heapq.heappop(self.queue)
            self._grow(self.spair(a, b)[0])

    def _grow(self, v):
        w = self.reduce(v)
        if not w:
            return False
        b = self.insert(w)
        for _, a in self._by_comp[self.leads[b][0]][:-1]:
            heapq.heappush(self.queue, (self.pair_degree(a, b), a, b))
        return True

    def contains(self, v):
        self._complete_to(v)
        return not self.reduce(v)

    def add(self, v):
        self._complete_to(v)
        return self._grow(v)


@settings(max_examples=80, deadline=None)
@given(incremental_cases())
def test_incremental_basis_grows_as_with_its_own_pair_loop(case):
    ring, twists, seeds, calls = case
    igb = IncrementalGB(ring, twists)
    ref = ReferenceTruncatedGB(ring, twists)
    for g in module_groebner(ring, twists, seeds).elements:
        igb.insert(g)
        ref.insert(g)
    for op, v in calls:
        assert getattr(igb, op)(v) == getattr(ref, op)(v)
        assert igb.elements == ref.elements
        assert sorted(igb._pairs) == sorted(ref.queue)


def reference_minimal_generator_indices(ring, twists, columns):
    """minimal_generator_indices on ReferenceTruncatedGB."""
    degs = [(column_degree(ring, twists, col), j) for j, col in enumerate(columns)]
    ref = ReferenceTruncatedGB(ring.ambient, twists)
    for v in quotient_columns(ring, twists):
        ref.insert(v)
    return [
        j
        for _, j in sorted((d, j) for d, j in degs if d is not None)
        if ref.add(column_to_vec(columns[j]))
    ]


@pytest.mark.parametrize("ring", [two_var_ring(5), three_var_ring(3)], ids=["2var", "3var"])
def test_minimal_generators_are_those_of_the_own_pair_loop(ring):
    for name, module in catalog_modules(ring).items():
        for mat in (module.presentation, syzygy_matrix(ring, module.presentation)[0]):
            twists, cols = mat.row_twists, mat.columns()
            want = reference_minimal_generator_indices(ring, twists, cols)
            assert minimal_generator_indices(ring, twists, cols) == want, name


# ---------------------------------------------------------------------------
# the basis seeded with the quotient relations


def unseeded_minimal_generator_indices(ring, twists, columns):
    """minimal_generator_indices with the quotient relations added one by
    one to an empty IncrementalGB, as before the seed."""
    degs = [(column_degree(ring, twists, col), j) for j, col in enumerate(columns)]
    igb = IncrementalGB(ring.ambient, twists)
    for v in quotient_columns(ring, twists):
        igb.add(v)
    return [
        j
        for _, j in sorted((d, j) for d, j in degs if d is not None)
        if igb.add(column_to_vec(columns[j]))
    ]


@pytest.mark.parametrize("ring", [two_var_ring(5), three_var_ring(3)], ids=["2var", "3var"])
def test_seeded_minimal_generators_on_the_catalog(ring):
    for name, module in catalog_modules(ring).items():
        pres = module.presentation
        syz, _ = syzygy_matrix(ring, pres)
        for twists, cols in (
            (pres.row_twists, pres.columns()),
            (syz.row_twists, syz.columns()),
        ):
            # redundant copies: the sums of neighbouring columns
            cols = cols + [
                [ring.nf(a + b) for a, b in zip(c1, c2)]
                for c1, c2 in zip(cols, cols[1:])
                if column_degree(ring, twists, c1) == column_degree(ring, twists, c2)
            ]
            want = unseeded_minimal_generator_indices(ring, twists, cols)
            assert minimal_generator_indices(ring, twists, cols) == want, name


def _ci(variables, relations, p, weights=None):
    amb = PolyRing(variables, field=PrimeField(p), weights=weights)
    return CIRing(amb, [parse_poly(amb, r) for r in relations])


SEED_RINGS = [
    _ci(["x", "y", "z"], [], 7),  # free
    _ci(["x", "y", "z"], [], 101, weights=(1, 2, 1)),  # weighted, free
    _ci(["x", "y", "z"], ["x^2 + 3*y", "z^4 + x*y*z"], 101, weights=(1, 2, 1)),  # weighted CI
    _ci(["x", "y", "z"], ["x^2 + 58*x*y + 43*y*z", "33*x^2 + 35*x*z + y^2 + 33*z^2"], 101),
    _ci(
        ["x", "y", "z"],
        ["x^3 + 64*x*y^2 + 79*y^2*z", "38*x^3 + 5*x^2*z + 33*x*z^2 + y^3 + 12*z^3"],
        101,
    ),
]


@st.composite
def seed_cases(draw):
    ring = draw(st.sampled_from(SEED_RINGS))
    amb = ring.ambient
    twists = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=2)))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(max(twists), max(twists) + 3))
        v = draw(homogeneous_vectors(amb, twists, degree))
        cols.append([ring.nf(p) for p in vec_to_column(amb, len(twists), v)])
    if draw(st.booleans()) and len(cols) > 1:  # a dependent column
        cols.append([ring.nf(a + b) for a, b in zip(cols[0], cols[-1])])
    return ring, twists, cols


@settings(max_examples=60, deadline=None)
@given(seed_cases())
def test_seeded_minimal_generators_on_generated_columns(case):
    ring, twists, cols = case
    want = unseeded_minimal_generator_indices(ring, twists, cols)
    assert minimal_generator_indices(ring, twists, cols) == want


# ---------------------------------------------------------------------------
# sympy reference

try:
    import sympy
except ImportError:  # the reference is optional
    sympy = None


def to_sympy(f, symbols):
    return sympy.Add(*(
        int(c) * sympy.Mul(*(s**e for s, e in zip(symbols, m))) for m, c in f.terms
    ))


def normalized_sympy_basis(gens, symbols, p):
    """sympy's reduced basis mod p as monic {monomial: residue} dicts."""
    out = []
    for g in sympy.groebner(gens, *symbols, modulus=p, order="grevlex").exprs:
        terms = sympy.Poly(g, *symbols, modulus=p).terms()
        lead = max(terms, key=lambda mc: (sum(mc[0]), tuple(-e for e in reversed(mc[0]))))
        inv = pow(int(lead[1]) % p, -1, p)
        out.append({tuple(m): int(c) * inv % p for m, c in terms})
    return sorted(out, key=lambda d: sorted(d.items()))


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_buchberger_matches_sympy_reduced_basis(data):
    ring = data.draw(st.sampled_from([r for r in RINGS if r._std_weights]))
    p = ring.field.p
    gens = data.draw(st.lists(polys(ring, max_deg=2, max_terms=3), min_size=1, max_size=3))
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    symbols = sympy.symbols(" ".join(ring.variables))
    ours = sorted(
        ({m: c for m, c in g.terms} for g in buchberger(gens)),
        key=lambda d: sorted(d.items()),
    )
    ref = normalized_sympy_basis([to_sympy(g, symbols) for g in gens], symbols, p)
    assert ours == ref


# ---------------------------------------------------------------------------
# kernel modulo relations


@st.composite
def kernel_cases(draw):
    ring = draw(st.sampled_from([two_var_ring(5), three_var_ring(3), CIRing(RINGS[0], ())]))
    amb = ring.ambient
    p = amb.field.p
    twists = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=2)))

    def column(deg):
        col = []
        for t in twists:
            terms = [(m, draw(st.sampled_from([0, 1, draw(st.integers(0, p - 1))])))
                     for m in amb.monomials_of_degree(deg - t)]
            col.append(ring.nf(amb.from_terms(terms)))
        return col

    cols = [column(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
    rels = [column(draw(st.integers(1, 3))) for _ in range(draw(st.integers(0, 2)))]
    return ring, twists, cols, rels


@settings(max_examples=40, deadline=None)
@given(kernel_cases())
def test_kernel_modulo_maps_into_the_relation_span(case):
    ring, twists, cols, rels = case
    amb = ring.ambient
    span = submodule_igb(ring, twists, rels)
    for a in kernel_modulo(ring, twists, cols, rels)[0]:
        assert any(not p.is_zero() for p in a)
        image = [
            ring.nf(sum((a[j] * col[i] for j, col in enumerate(cols)), amb.zero()))
            for i in range(len(twists))
        ]
        assert span.contains(column_to_vec(image))


@settings(max_examples=20, deadline=None)
@given(kernel_cases())
def test_kernel_modulo_of_columns_inside_the_span_is_everything(case):
    ring, twists, cols, rels = case
    amb = ring.ambient
    cols = [col for col in cols if any(not p.is_zero() for p in col)]
    degrees = [column_degree(ring, twists, col) for col in cols]
    kernel = submodule_igb(ring, degrees, kernel_modulo(ring, twists, cols, cols + rels)[0])
    for j in range(len(cols)):
        unit = {(j, amb.zero_mono): amb.field.one}
        assert kernel.contains(unit)


def test_kernel_modulo_uses_the_quotient_relations():
    # the annihilator of x in k[x,y]/(x^2, y^2) is (x), and is 0 over k[x,y]
    ring = two_var_ring(5)
    x = ring.ambient.var_poly(0)
    kernel, _ = kernel_modulo(ring, (0,), [[x]], [])
    assert submodule_igb(ring, (1,), kernel).contains(column_to_vec([x]))
    assert kernel_modulo(CIRing(ring.ambient, ()), (0,), [[x]], [])[0] == []
