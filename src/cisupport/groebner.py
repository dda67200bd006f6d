"""Buchberger engine over free modules with witness tracking.

One engine covers ideals (single component) and column modules of graded
matrices.  Vectors are dicts mapping (component, monomial) to a coefficient;
the module order is degree-first (twisted), then grevlex on the monomial,
then component.  S-pairs are processed in increasing degree (normal
strategy) so runs are deterministic.  Every basis is a GroebnerBasis, and
every normal form, membership test and witness goes through its one
division loop, GroebnerBasis.reduce; every basis grows through its one
S-pair loop, GroebnerBasis.complete.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .poly import Poly, PolyRing, mono_div, mono_divides, mono_lcm, mono_mul


class ModuleCtx:
    """Order data for a free module with given component twists."""

    def __init__(self, ring: PolyRing, twists):
        self.ring = ring
        self.twists = tuple(twists)
        self.field = ring.field

    def order(self, term):
        """Sort key of a term: ascending keys are descending module order."""
        comp, mono = term
        return (-(self.ring.wdeg(mono) + self.twists[comp]), mono[::-1], comp)


def vp_axpy(field, dst: dict, src: dict, mono, coeff):
    """dst += coeff * x^mono * src, in place."""
    zero = field.zero
    for (comp, m), c in src.items():
        t = (comp, mono_mul(m, mono))
        nc = field.add(dst.get(t, zero), field.mul(c, coeff))
        if nc == zero:
            dst.pop(t, None)
        else:
            dst[t] = nc


def vp_scale(field, v: dict, c) -> dict:
    return {t: field.mul(cc, c) for t, cc in v.items()}


def poly_to_vec(poly: Poly) -> dict:
    return {(0, m): c for m, c in poly.terms}


def vec_to_column(ring: PolyRing, nrows: int, v: dict):
    """The vector as a list of nrows polynomials, one per component."""
    rows = [[] for _ in range(nrows)]
    for (i, m), c in v.items():
        rows[i].append((m, c))
    return [ring.from_terms(r) for r in rows]


class GroebnerBasis:
    """Monic module elements with their leads and optional traces.

    traces[i], when kept, is a dict over (input index, monomial) expressing
    elements[i] through the input vectors.  Reducers are tried in insertion
    order.
    """

    def __init__(self, ctx: ModuleCtx, track: bool = False):
        self.ctx = ctx
        self.elements = []
        self.leads = []
        self.traces = [] if track else None
        self._by_comp = {}  # component -> [(lead monomial, index)]
        self._pairs = []  # heap of pending S-pairs (degree, a, b)

    def insert(self, v: dict, tr: dict = None) -> int:
        """Append v (and its trace) scaled to be monic; returns its index."""
        field = self.ctx.field
        lead = min(v, key=self.ctx.order)
        inv = field.inv(v[lead])
        idx = len(self.elements)
        self.elements.append(vp_scale(field, v, inv))
        if self.traces is not None:
            self.traces.append(vp_scale(field, tr, inv))
        self.leads.append(lead)
        self._by_comp.setdefault(lead[0], []).append((lead[1], idx))
        return idx

    def find_reducer(self, term):
        comp, mono = term
        for lm, i in self._by_comp.get(comp, ()):
            if mono_divides(lm, mono):
                return i
        return None

    def pair_degree(self, a: int, b: int) -> int:
        (comp, la), (_, lb) = self.leads[a], self.leads[b]
        return self.ctx.ring.wdeg(mono_lcm(la, lb)) + self.ctx.twists[comp]

    def spair(self, a: int, b: int):
        """S-vector of elements a and b (same lead component) and its trace
        (None when untracked)."""
        field = self.ctx.field
        la, lb = self.leads[a][1], self.leads[b][1]
        lcm = mono_lcm(la, lb)
        ma, mb = mono_div(lcm, la), mono_div(lcm, lb)
        minus = field.neg(field.one)
        s = {}
        vp_axpy(field, s, self.elements[a], ma, field.one)
        vp_axpy(field, s, self.elements[b], mb, minus)
        tr = None
        if self.traces is not None:
            tr = {}
            vp_axpy(field, tr, self.traces[a], ma, field.one)
            vp_axpy(field, tr, self.traces[b], mb, minus)
        return s, tr

    def reduce(self, v: dict, tr: dict = None) -> dict:
        """Full normal form of v; the one division loop of the package.

        Each step takes the largest remaining term and, if a lead divides it,
        subtracts c * x^m * elements[i].  Given a trace dict tr, every step is
        mirrored in place as tr -= c * x^m * traces[i].  The remainder's terms
        come out in descending order.
        """
        field = self.ctx.field
        order = self.ctx.order
        zero = field.zero
        work = dict(v)
        heap = [(order(t), t) for t in work]
        heapq.heapify(heap)
        rem = {}
        while heap:
            t = heapq.heappop(heap)[1]
            c = work.get(t)
            if c is None:  # cancelled, or already handled
                continue
            i = self.find_reducer(t)
            if i is None:
                rem[t] = c
                del work[t]
                continue
            qm = mono_div(t[1], self.leads[i][1])
            qc = field.neg(c)
            for (comp, m), gc in self.elements[i].items():
                s = (comp, mono_mul(m, qm))
                old = work.get(s)
                nc = field.add(zero if old is None else old, field.mul(gc, qc))
                if nc == zero:
                    work.pop(s, None)
                else:
                    work[s] = nc
                    if old is None:
                        heapq.heappush(heap, (order(s), s))
            if tr is not None:
                vp_axpy(field, tr, self.traces[i], qm, qc)
        return rem

    def express(self, v: dict):
        """Coefficients of v over the input vectors, as a dict over (input
        index, monomial), or None when v is not in their span.  Needs traces."""
        tr = {}
        if self.reduce(v, tr):
            return None
        field = self.ctx.field
        return vp_scale(field, tr, field.neg(field.one))

    def grow(self, v: dict, tr: dict = None) -> dict:
        """Reduce v (mirroring on tr); a nonzero remainder joins the basis
        and its S-pairs join the queue.  Returns the remainder, so an empty
        one leaves tr a syzygy of the inputs."""
        rem = self.reduce(v, tr)
        if rem:
            b = self.insert(rem, tr)
            for _, a in self._by_comp[self.leads[b][0]][:-1]:
                heapq.heappush(self._pairs, (self.pair_degree(a, b), a, b))
        return rem

    def complete(self, degree=None) -> list:
        """Grow by the queued S-vectors in (degree, a, b) order, those of
        degree <= degree when it is given; the one S-pair loop.  Returns the
        nonzero traces of the S-vectors that reduced to zero."""
        pairs = self._pairs
        zeros = []
        while pairs and (degree is None or pairs[0][0] <= degree):
            _, a, b = heapq.heappop(pairs)
            s, tr = self.spair(a, b)
            if not self.grow(s, tr) and tr:
                zeros.append(tr)
        return zeros


def _grow_and_complete(ring: PolyRing, twists, vectors, track: bool):
    """Grow a basis by each input in turn, then complete it.

    Returns the basis and the traces (when tracked) of the inputs and
    S-vectors that reduced to zero; a zero input gives its unit vector.
    """
    gb = GroebnerBasis(ModuleCtx(ring, twists), track)
    one = ring.field.one
    zeros = []
    for j, v in enumerate(vectors):
        tr = {(j, ring.zero_mono): one} if track else None
        if not gb.grow(v, tr) and tr:
            zeros.append(tr)
    zeros += gb.complete()
    return gb, zeros


def module_groebner(ring: PolyRing, twists, vectors, track: bool = False) -> GroebnerBasis:
    """Groebner basis of the submodule generated by the given vectors.

    vectors: list of dict {(comp, mono): coeff}; zero vectors are allowed and
    skipped (their indices still count for traces).
    """
    return _grow_and_complete(ring, twists, vectors, track)[0]


def module_syzygies(ring: PolyRing, twists, vectors):
    """Generators of the syzygy module of the given vectors over the free ring,
    and the tracked Groebner basis of the vectors that gave them.

    The syzygies are a list of dicts over components 0..len(vectors)-1
    (coefficients of the input vectors), read off the one tracked Buchberger
    run: the trace of each input and each S-vector that reduces to zero.  By
    Schreyer's theorem these, over all inputs and S-pairs of the finished
    basis, generate the syzygies; an input or S-vector that leaves a
    remainder becomes a basis element instead, and its relation pulls back
    to zero.  The basis is module_groebner(ring, twists, vectors, track=True).
    """
    gb, zeros = _grow_and_complete(ring, twists, vectors, True)
    return zeros, gb


class IncrementalGB(GroebnerBasis):
    """Groebner basis that accepts elements one at a time, without traces.

    Used for greedy minimal-generator selection and membership filters.  The
    basis is finished only as far as a question needs: `add` or `contains`
    of a homogeneous vector of degree d first reduces the pending S-pairs of
    degree <= d (the normal strategy, truncated at d).  For homogeneous
    input every element and S-vector is homogeneous and reduction keeps the
    degree, so that basis decides membership in degree d exactly.  Once an
    inhomogeneous vector is seen, every question first reduces all pending
    pairs.  Elements given to `insert` before the first `add` (a seed that
    is already a Groebner basis) get no pairs among themselves, only with
    the elements added after them.
    """

    def __init__(self, ring: PolyRing, twists):
        super().__init__(ModuleCtx(ring, twists))
        self._homogeneous = True

    def _degree(self, v: dict):
        """Twisted degree of a nonzero v; None (and no more truncation) when
        v is not homogeneous."""
        ring, twists = self.ctx.ring, self.ctx.twists
        degrees = {ring.wdeg(m) + twists[comp] for comp, m in v}
        if len(degrees) > 1:
            self._homogeneous = False
            return None
        return degrees.pop()

    def insert(self, v: dict, tr: dict = None) -> int:
        self._degree(v)
        return super().insert(v, tr)

    def _complete_to(self, v: dict):
        """Reduce the pending S-pairs that the answer for v depends on."""
        if v:
            d = self._degree(v)
            self.complete(d if self._homogeneous else None)

    def contains(self, v: dict) -> bool:
        self._complete_to(v)
        return not self.reduce(v)

    def add(self, v: dict) -> bool:
        """Add a vector; returns True if it enlarged the module."""
        self._complete_to(v)
        return bool(self.grow(v))


# ---------------------------------------------------------------------------
# ideal-level operations


def buchberger(gens) -> list:
    """The unique reduced Groebner basis of the ideal generated by gens.

    All generators must live in one ring; the global grevlex order of that
    ring is used.  Generators are returned monic, sorted by increasing
    leading term.
    """
    gens = [g for g in gens]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring.key() != ring.key():
            raise ValueError("mixed-ring generators")
    vectors = [poly_to_vec(g) for g in gens if not g.is_zero()]
    gb = module_groebner(ring, (0,), vectors)
    polys = [
        ring.from_terms((m, c) for (_, m), c in v.items()) for v in gb.elements
    ]
    return _interreduce(ring, polys)


def _interreduce(ring: PolyRing, polys) -> list:
    polys = [p for p in polys if not p.is_zero()]
    # drop any element whose leading monomial is divisible by another's
    polys.sort(key=lambda q: ring.mono_key(q.lm()))
    kept = []
    for i, p in enumerate(polys):
        lm = p.lm()
        redundant = False
        for j, q in enumerate(polys):
            if i != j and mono_divides(q.lm(), lm):
                if ring.mono_key(q.lm()) != ring.mono_key(lm) or j < i:
                    redundant = True
                    break
        if not redundant:
            kept.append(p)
    # fully reduce each tail against the others
    out = []
    for i, p in enumerate(kept):
        others = [q for j, q in enumerate(kept) if j != i]
        out.append(normal_form(p, others) if others else p.monic())
    out = [p.monic() for p in out if not p.is_zero()]
    out.sort(key=lambda q: ring.mono_key(q.lm()))
    return out


def poly_basis(ring: PolyRing, polys) -> GroebnerBasis:
    """Basis object over the nonzero polynomials (not necessarily a Groebner
    basis), for repeated normal forms; reducers are tried in list order."""
    gb = GroebnerBasis(ModuleCtx(ring, (0,)))
    for g in polys:
        if not g.is_zero():
            gb.insert(poly_to_vec(g))
    return gb


def normal_form(f: Poly, basis) -> Poly:
    """Remainder of multivariate division of f by the basis (full reduction).

    basis: a list of polynomials, or a GroebnerBasis from poly_basis.
    """
    if not isinstance(basis, GroebnerBasis):
        basis = poly_basis(f.ring, basis)
    rem = basis.reduce(poly_to_vec(f))
    return Poly(f.ring, tuple((m, c) for (_, m), c in rem.items()))


def member_witness(f: Poly, gens):
    """Coefficients (c_1, ..., c_r) with f = sum c_i * gens[i], or None.

    The witness is the division-trace one: divide f by the tracked Groebner
    basis of gens and push the quotients back through the traces.  It is
    deterministic for a fixed generator order; permuting gens may give a
    different (equally valid) witness.
    """
    gb = module_groebner(f.ring, (0,), [poly_to_vec(g) for g in gens], track=True)
    coeffs = gb.express(poly_to_vec(f))
    return None if coeffs is None else vec_to_column(f.ring, len(gens), coeffs)


def radical_member(f: Poly, ideal_gens) -> bool:
    """Does f vanish on the zero set of the ideal (over the closure)?

    Decided by the adjoined-variable trick: f is in the radical iff 1 lies in
    ideal + (1 - t*f) after adjoining a fresh variable t.
    """
    if f.is_zero():
        return True
    ring = f.ring
    fresh = "t_"
    while fresh in ring.variables:
        fresh += "_"
    ext = ring.extend([fresh])
    lift = lambda q: ext.from_terms((m + (0,), c) for m, c in q.terms)
    t_poly = ext.var_poly(ext.n - 1)
    one = ext.one()
    gens = [lift(g) for g in ideal_gens if not g.is_zero()]
    gens.append(one - t_poly * lift(f))
    gb = buchberger(gens)
    return any(g.lm() == ext.zero_mono for g in gb)


def leading_term_ideal(gb) -> list:
    return [g.lm() for g in gb if not g.is_zero()]


def krull_dimension_of_gb(ring: PolyRing, gb) -> int:
    """Krull dimension of ring/I from the leading terms of a reduced GB.

    The dimension is the largest number of variables spanning a coordinate
    subspace that meets no leading-term support.  Returns -1 for the unit
    ideal.
    """
    lts = leading_term_ideal(gb)
    if any(m == ring.zero_mono for m in lts):
        return -1
    if not lts:
        return ring.n
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lts]
    best = 0
    for mask in range(1 << ring.n):
        size = bin(mask).count("1")
        if size <= best:
            continue
        subset = {i for i in range(ring.n) if mask >> i & 1}
        if all(not s <= subset for s in supports):
            best = size
    return best


def krull_dimension(ideal_gens, ring: PolyRing = None) -> int:
    gens = [g for g in ideal_gens if not g.is_zero()]
    if ring is None:
        if not gens:
            raise ValueError("need a ring for the empty ideal")
        ring = gens[0].ring
    gb = buchberger(gens) if gens else []
    return krull_dimension_of_gb(ring, gb)


@dataclass
class RegSeqResult:
    ok: bool
    length: int
    basis: list  # reduced Groebner basis of (fs); None when the test stopped before it
    note: str = ""

    def __bool__(self):
        return self.ok


def is_regular_sequence(fs, ring: PolyRing = None) -> RegSeqResult:
    """Check that fs is a regular sequence of forms of degree >= 2.

    Homogeneous f_1, ..., f_c are a regular sequence iff the quotient by them
    has dimension n - c; the degree condition keeps them inside the square of
    the irrelevant ideal.  With non-unit variable weights the degree >= 2
    reading of that condition is flagged in the note rather than silently
    assumed.  The result keeps the reduced Groebner basis the dimension was
    read from, so a caller that goes on to use (fs) need not recompute it.
    """
    fs = list(fs)
    if ring is None:
        if not fs:
            raise ValueError("need a ring for the empty sequence")
        ring = fs[0].ring
    for f in fs:
        if not f.is_homogeneous():
            raise ValueError("regular-sequence candidates must be homogeneous")
    if not fs:
        return RegSeqResult(True, 0, [])
    note = ""
    if not ring._std_weights:
        note = "non-unit weights: degree >= 2 test is a convention here"
    if any(f.is_zero() or f.degree() < 2 for f in fs):
        return RegSeqResult(False, len(fs), None, note)
    c = len(fs)
    if c > ring.n:
        return RegSeqResult(False, c, None, note)
    gb = buchberger(fs)
    return RegSeqResult(krull_dimension_of_gb(ring, gb) == ring.n - c, c, gb, note)


class Ideal:
    """An ideal with a lazily cached reduced Groebner basis."""

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        for g in self.gens:
            if g.ring.key() != ring.key():
                raise ValueError("generator from a different ring")
        self._gb = None

    @property
    def groebner(self):
        if self._gb is None:
            self._gb = buchberger(list(self.gens)) if self.gens else []
        return self._gb

    def contains(self, f: Poly) -> bool:
        return normal_form(f, self.groebner).is_zero()

    def radical_contains(self, f: Poly) -> bool:
        return radical_member(f, list(self.gens))

    def dimension(self) -> int:
        return krull_dimension_of_gb(self.ring, self.groebner)

    def is_zero(self) -> bool:
        return not self.gens

    def sum(self, other: "Ideal") -> "Ideal":
        return Ideal(self.ring, list(self.gens) + list(other.gens))

    def product(self, other: "Ideal") -> "Ideal":
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, [])
        return Ideal(self.ring, [a * b for a in self.gens for b in other.gens])

    def key(self):
        return ("ideal", self.ring.key(), tuple(tuple(g.terms) for g in self.gens))

    def __repr__(self):
        from .poly import render_poly

        return "Ideal(" + ", ".join(render_poly(g) for g in self.gens) + ")"


def equal_up_to_radical(i1: Ideal, i2: Ideal) -> bool:
    """Do the two ideals cut out the same zero set?

    Checked by radical membership of each generator in the other ideal.
    """
    if i1.ring.key() != i2.ring.key():
        raise ValueError("ideals live in different rings")
    for g in i1.gens:
        if not i2.radical_contains(g):
            return False
    for g in i2.gens:
        if not i1.radical_contains(g):
            return False
    return True
