"""Cohomological support varieties, computed two independent ways.

The membership oracle follows the hypersurface-section definition: a nonzero
direction a in k^c determines f = sum a_i f_i, and a lies in the variety of
(M, N) iff Ext over Q/(f) is nonzero in infinitely many degrees.  Over a
hypersurface that is decidable: resolutions are eventually 2-periodic, so two
consecutive vanishing Exts past dim Q/(f) + 2 certify eventual vanishing.

The annihilator route computes the ideal of forms in k[chi] killing the
graded action on Ext(M, k) over a finite window.  It is certified by the
rank locus of the module's own homotopies (homology.RankLocus), which
needs no window: variety_of climbs the degree bound d with window 2d + 2,
extending one chi action, and stops at the first ideal whose zero set the
locus confirms; past a cap the result is flagged unstable with the reason.
A stable result thus means two independent routes agree: the locus shares
the membership oracle's table but nothing with the chi action.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from . import modlinalg
from .cimodule import (
    CIRing,
    GradedModule,
    base_change_module,
    base_change_ring,
    is_residue_field,
    restrict_to_ring,
)
from .field import ExtField, PrimeField, digits
from .groebner import Ideal, IncrementalGB, equal_up_to_radical, member_witness, poly_to_vec
from .homology import RankLocus, _projective, ext_vanishes, section_betti, section_ranks
from .operators import ExtKModule, chi_action
from .poly import Poly, PolyRing


@dataclass
class SupportVariety:
    """A cone in the chi coordinates, with provenance of the computation."""

    ring: CIRing
    ideal: Ideal
    stabilized: bool
    degree_bound: int = 0
    note: str = ""


class Subspace:
    """A full-row-rank r x c matrix over k; row j spans g_j = sum_i A[j][i] f_i."""

    def __init__(self, ring: CIRing, rows):
        self.ring = ring
        self.rows = tuple(tuple(int(x) % ring.field.p for x in row) for row in rows)
        self.r = len(self.rows)
        self.c = ring.c
        for row in self.rows:
            if len(row) != self.c:
                raise ValueError("subspace row length must equal the codimension")
        a = np.array([list(r) for r in self.rows], dtype=np.int64)
        if self.r == 0 or modlinalg.rank(a, ring.field.p) != self.r:
            raise ValueError("subspace matrix must have full row rank")
        for row in self.rows:
            ring.check_direction(row)

    def forms(self):
        """The elements g_j = sum_i A[j][i] f_i of the ambient ring."""
        return [self.ring.form(row) for row in self.rows]

    def intermediate_ring(self) -> CIRing:
        return CIRing(self.ring.ambient, self.forms())


@dataclass
class PointK:
    """A point of k^c (or of a small extension, for sampling)."""

    coords: tuple
    field: object = None


def _as_point(ring: CIRing, a):
    """The coordinates of a and their field; prime-field coordinates are
    reduced mod p, as the CLI and Subspace read them."""
    coords, fld = (a.coords, a.field or ring.field) if isinstance(a, PointK) else (a, ring.field)
    if fld.p != ring.field.p:
        raise ValueError(f"a point over a field of characteristic {fld.p} is not a direction over F_{ring.field.p}")
    if isinstance(fld, PrimeField):
        coords = [fld.from_int(c) for c in coords]
    return tuple(coords), fld


def vanishes_at(ideal: Ideal, coords, fld) -> bool:
    zero = fld.zero
    return all(g.evaluate(coords, fld) == zero for g in ideal.gens)


# ---------------------------------------------------------------------------
# membership oracle (hypersurface sections)


def membership(ring: CIRing, module: GradedModule, other: GradedModule, a) -> bool:
    """Is the direction a in the support variety of the pair (module, other)?

    The zero direction is always inside, answered before any read.
    Otherwise f = sum a_i f_i cuts a hypersurface A = Q/(f); with
    s = dim A + 2, eventual nonvanishing of Ext over A is equivalent to
    Ext^s or Ext^{s+1} being nonzero.  Against k the Exts are Tor ranks, which
    section_betti reads in those two degrees only: the first direction
    asked of a module builds the homotopies of f alone, and later ones
    specialize the module's system of higher homotopies at a; a point over
    F_{p^e} reads that system's F_p table in its field, as the RankLocus
    does, and only a pair is base-changed.  A scalar multiple of a
    direction cuts the same hypersurface, so the table's reader keeps two
    ranks per projective point, shared with the RankLocus of the module: a
    multiple of a point the oracle or the locus has read costs no rank.
    """
    coords, fld = _as_point(ring, a)
    if len(coords) != ring.c:
        raise ValueError("point length must equal the codimension")
    zero = fld.zero
    if all(c == zero for c in coords):
        return True
    ring.check_direction(coords, fld)
    s = ring.ambient.n + 1  # dim A + 2
    if is_residue_field(other):
        # the module over R is one over A: every direction shares its
        # resolution over Q
        if isinstance(fld, ExtField):
            return any(section_ranks(ring, module).reader().read(fld, coords, (s, s + 1)))
        return any(section_betti(ring, module, coords, (s, s + 1)))
    if isinstance(fld, ExtField):
        ring = base_change_ring(ring, fld)
        module, other = base_change_module(module, ring), base_change_module(other, ring)
    hyper = CIRing(ring.ambient, [ring.form(coords)], validate=False)
    m_a = restrict_to_ring(module, hyper)
    n_a = restrict_to_ring(other, hyper)
    van_s = ext_vanishes(hyper, m_a, n_a, s)
    van_s1 = ext_vanishes(hyper, m_a, n_a, s + 1)
    return not (van_s and van_s1)


# ---------------------------------------------------------------------------
# annihilator route


def monomial_action_layers(ext_module: ExtKModule, degree_bound: int):
    """Yield (d, monos, layer) for d = 1..degree_bound, where layer[t][n] is
    the matrix of chi^monos[t] acting from Ext^n, for n in [0, window - 2d].

    Degree d is built from degree d - 1 as chi_{i0} . chi^(alpha - e_{i0}),
    with i0 the first index where alpha is positive; that is the product
    order of ExtKModule.monomial_action.  Only the previous layer is kept.
    """
    ring = ext_module.ring
    chi = ring.chi_ring()
    p = ring.field.p
    window = ext_module.window
    prev = {}
    for d in range(1, degree_bound + 1):
        monos = chi.monomials_of_degree(d)
        top = window - 2 * d
        layer = []
        for alpha in monos:
            i0 = next(i for i, e in enumerate(alpha) if e)
            maps = ext_module.chi_maps[i0]
            if d == 1:
                layer.append([maps[n] for n in range(top + 1)])
                continue
            rest = prev[alpha[:i0] + (alpha[i0] - 1,) + alpha[i0 + 1 :]]
            layer.append(
                [modlinalg.matmul(maps[n + 2 * (d - 1)], rest[n], p) for n in range(top + 1)]
            )
        yield d, monos, layer
        prev = dict(zip(monos, layer))


def annihilator_ideal(ext_module: ExtKModule, degree_bound: int) -> Ideal:
    """Forms of chi-degree <= degree_bound annihilating the windowed action.

    For each degree the annihilating forms are the nullspace of the stacked
    entries of all monomial action matrices; each homological degree's block
    is folded into a running row echelon form, whose nullspace is the same.
    Redundant generators are filtered out degree by degree.
    """
    chi = ext_module.ring.chi_ring()
    p = ext_module.ring.field.p
    if ext_module.window < 2 * degree_bound + 2:
        raise ValueError("window must exceed twice the degree bound plus slack")
    kept = []
    kept_gb = IncrementalGB(chi, (0,))  # keep q iff it enlarges the ideal
    for d, monos, layer in monomial_action_layers(ext_module, degree_bound):
        echelon = np.zeros((0, len(monos)), dtype=np.int64)
        for n in range(0, ext_module.window - 2 * d + 1):
            # a full-rank echelon stays so, and its nullspace is zero
            if ext_module.dims[n] and layer[0][n].size and len(echelon) < len(monos):
                flat = np.stack([mats[n].reshape(-1) for mats in layer], axis=1)
                echelon, pivots = modlinalg.rref(np.concatenate([echelon, flat]), p)
                echelon = echelon[: len(pivots)].copy()  # a view would pin the whole rref
        basis = modlinalg.nullspace(echelon, p)
        for col in range(basis.shape[1]):
            q = chi.from_terms((monos[t], int(basis[t, col]) % p) for t in range(len(monos)))
            if kept_gb.add(poly_to_vec(q)):
                kept.append(q.monic())
    return Ideal(chi, kept)


def _probes(ring: CIRing):
    """The points of F_p^c and the lines (u, v) where the ideal is compared
    with the rank locus.  For c = 2 the one line is all of P^1; for c >= 3,
    every point of P^(c-1)(F_p) when there are at most 31 (p <= 5 at c = 3),
    else 8 distinct ones drawn from the seeded stream of sample_points, and
    two seeded lines.  Each point has first nonzero coordinate one."""
    p, c = ring.field.p, ring.c
    if c == 2:
        return [], [((1, 0), (0, 1))]
    if (p**c - 1) // (p - 1) <= 31:
        points = [a for a in itertools.product(range(p), repeat=c) if any(a) and _projective(ring.field, a) == a]
    else:
        points, rng = [], random.Random(11)
        while len(points) < 8:
            a = _projective(ring.field, digits(rng.randrange(1, p**c), p, c))
            if a not in points:
                points.append(a)
    rng = random.Random(f"lines {p} {c}")
    lines = []
    while len(lines) < 2:
        u, v = (tuple(rng.randrange(p) for _ in range(c)) for _ in range(2))
        if modlinalg.rank(np.array([u, v], dtype=np.int64), p) == 2:
            lines.append((u, v))
    return points, lines


def _disagreement(ring: CIRing, locus: RankLocus, ideal: Ideal) -> str:
    """Where the zero set of the ideal and the rank locus differ, or "" when
    no probe tells them apart.

    For c <= 2 the comparison is exact: c = 1 asks the one point of P^0,
    and c = 2 compares with the whole locus up to radical.  For c >= 3 it
    is exact on each probe line (the restricted ideal against the locus of
    the line, up to radical) and at each probe point; elsewhere the two
    agree only as far as those samples show.
    """
    points, lines = _probes(ring) if ring.c > 1 else ([(1,)], [])
    for a in points:
        if vanishes_at(ideal, a, ring.field) != locus.contains(a):
            return f"the annihilator ideal and the rank locus differ at {a}"
    for u, v in lines:
        ring2 = ring.chi_ring() if ring.c == 2 else ring.s_ring(2)
        on_line = ideal if ring.c == 2 else substitute_linear(ideal, [u, v], ring2)
        if not equal_up_to_radical(on_line, locus.on_line(u, v, ring2)):
            where = "" if ring.c == 2 else f" on the line through {u} and {v}"
            return f"the annihilator ideal and the rank locus differ{where}"
    return ""


def variety_of(ring: CIRing, module: GradedModule, degree_bound: int = None) -> SupportVariety:
    """Support variety of a module via the annihilator of the chi action,
    certified by the rank locus of the module's homotopies.

    The degree bound climbs d, d + 1, ... with window w = 2d + 2, extending
    one chi action, and stops at the first annihilator ideal whose zero set
    the rank locus confirms (see _disagreement).  The climb starts at the
    given degree bound, by default 1, and for c = 2 at no less than the
    degree e of the locus' form on P^1: a nonzero binary form of degree
    below e has fewer than e roots, so no lower rung can confirm.  After
    2(n + c) + 1 rungs the last ideal is returned flagged unstable, with the
    reason in its note, never silently.  The degree bound must be at least
    1: below that no annihilator element is ever looked at.
    """
    if ring.c == 0:
        raise ValueError("the ring has no chi coordinates: its support variety is not defined")
    if degree_bound is not None and degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    locus = RankLocus(ring, module)
    start = degree_bound or 1
    if ring.c == 2:  # the first rung's _disagreement reads the same cached form
        start = max([start] + [g.degree() for g in locus.on_line((1, 0), (0, 1), ring.chi_ring()).gens])
    ext = None
    # the chi action grows with the window, so the climb is capped
    for d in range(start, start + 2 * (ring.ambient.n + ring.c) + 1):
        ext = chi_action(ring, module, 2 * d + 2, ext)
        ideal = annihilator_ideal(ext, d)
        reason = _disagreement(ring, locus, ideal)
        if not reason:
            return SupportVariety(ring, ideal, True, d)
    reason = f"no degree bound up to {d} gives an ideal the rank locus confirms ({reason})"
    return SupportVariety(ring, ideal, False, d, note=reason)


def variety_of_pair(
    ring: CIRing, module: GradedModule, other: GradedModule, degree_bound: int = None
) -> SupportVariety:
    """Support variety of a pair, as the intersection of the two varieties.

    Pairs reduce to single-module varieties (the pair variety is the
    intersection); when the second argument is k or the module itself the
    single variety is returned directly.  Three sampled directions are
    always cross-validated against the membership oracle; a disagreement
    returns the variety flagged unstable, with the point in its note.
    """
    if is_residue_field(other) or other.content_key() == module.content_key():
        v = variety_of(ring, module, degree_bound)
    else:
        v1 = variety_of(ring, module, degree_bound)
        v2 = variety_of(ring, other, degree_bound)
        v = intersection_variety(v1, v2)
    for coords in sample_points(ring, 3):
        if membership(ring, module, other, coords) != vanishes_at(v.ideal, coords, ring.field):
            reason = f"the membership oracle disagrees with the annihilator ideal at {coords}"
            return SupportVariety(ring, v.ideal, False, v.degree_bound, note=reason)
    return v


def sample_points(ring: CIRing, count: int, seed: int = 11):
    """Deterministic sample of directions in k^c (zero point excluded)."""
    p = ring.field.p
    c = ring.c
    out = []
    rng = random.Random(seed)
    seen = set()
    total = p**c - 1
    while len(out) < min(count, total):
        coords = tuple(digits(rng.randrange(1, p**c), p, c))
        if coords in seen:
            continue
        seen.add(coords)
        out.append(coords)
    return out


def _combine(v1: SupportVariety, v2: SupportVariety, op, note: str) -> SupportVariety:
    """The variety of op(v1.ideal, v2.ideal), for two varieties over one ring;
    an unstable input passes its reason on."""
    if v1.ring.key() != v2.ring.key():
        raise ValueError("varieties over different rings")
    reasons = [v.note for v in (v1, v2) if not v.stabilized]
    return SupportVariety(
        v1.ring,
        op(v1.ideal, v2.ideal),
        not reasons,
        max(v1.degree_bound, v2.degree_bound),
        note="; ".join(reasons) or note,
    )


def union_variety(v1: SupportVariety, v2: SupportVariety) -> SupportVariety:
    """Union of zero sets: the product ideal (radical-level construction)."""
    return _combine(v1, v2, Ideal.product, "radical-level union")


def intersection_variety(v1: SupportVariety, v2: SupportVariety) -> SupportVariety:
    """Intersection of zero sets: the ideal sum (radical-level construction)."""
    return _combine(v1, v2, Ideal.sum, "radical-level intersection")


# ---------------------------------------------------------------------------
# restriction to intermediate complete intersections


def restrict_to_subspace(vty: SupportVariety, w: Subspace) -> Ideal:
    """Ideal of the variety's trace on W, in the s-coordinates of W.

    Implemented as the linear substitution chi_i -> sum_j s_j A[j][i]
    applied to every generator.
    """
    ring = vty.ring
    sring = ring.s_ring(w.r)
    return substitute_linear(vty.ideal, w.rows, sring)


def substitute_linear(ideal: Ideal, rows, target_ring: PolyRing) -> Ideal:
    """Apply chi_i -> sum_j rows[j][i] * s_j to every generator."""
    c = len(rows[0]) if rows else 0
    images = []
    for i in range(c):
        lin = target_ring.zero()
        for j, row in enumerate(rows):
            if row[i]:
                lin = lin + target_ring.var_poly(j).scale(row[i])
        images.append(lin)
    gens = []
    for g in ideal.gens:
        acc = target_ring.zero()
        for mono, coeff in g.terms:
            term = target_ring.const(coeff)
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = term * images[i]
            acc = acc + term
        if not acc.is_zero():
            gens.append(acc)
    return Ideal(target_ring, gens)


# ---------------------------------------------------------------------------
# dimension, complexity, irreducibility


def dimension(vty: SupportVariety) -> int:
    return vty.ideal.dimension()


@dataclass
class ComplexityEstimate:
    value: int
    reliable: bool
    note: str = ""

    def __int__(self):
        return self.value


def _stabilization_order(seq, min_zeros: int = 3):
    """Smallest finite-difference order whose sequence ends in zeros."""
    cur = list(seq)
    for j in range(len(seq)):
        tail = cur[-min_zeros:] if len(cur) >= min_zeros else cur
        if tail and all(x == 0 for x in tail) and len(cur) >= min_zeros:
            return j
        if len(cur) < 2:
            return None
        cur = [b - a for a, b in zip(cur, cur[1:])]
    return None


def complexity_estimate(betti) -> ComplexityEstimate:
    """Polynomial growth order of the betti sequence, by finite differences.

    The complexity is the difference order at which the (tail of the)
    sequence stabilizes to zero; an even/odd split is tried before flagging
    the estimate unreliable.
    """
    seq = list(betti)
    if len(seq) < 6:
        raise ValueError("need a betti window of length >= 6")
    drop = min(2, len(seq) - 6)
    tail = seq[drop:]
    j = _stabilization_order(tail)
    if j is not None:
        return ComplexityEstimate(j, True)
    je = _stabilization_order(tail[0::2], min_zeros=2)
    jo = _stabilization_order(tail[1::2], min_zeros=2)
    if je is not None and jo is not None:
        return ComplexityEstimate(max(je, jo), True, "even/odd split fit")
    return ComplexityEstimate(len(tail), False, "no polynomial fit in the window")


@dataclass
class IrreducibleVerdict:
    verdict: str  # "yes" | "no" | "unknown"
    note: str = ""


def _monic_candidates(ring: PolyRing, degree: int):
    """All monic homogeneous polynomials of the given degree, leading first."""
    monos = ring.monomials_of_degree(degree)
    p = ring.field.p
    for lead in range(len(monos)):
        tail_count = len(monos) - lead - 1
        for code in range(p**tail_count):
            coeffs = [0] * lead + [1] + digits(code, p, tail_count)
            yield ring.from_terms(
                (monos[k], coeffs[k]) for k in range(len(monos)) if coeffs[k]
            )


class _Budget:
    def __init__(self, limit):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise _BudgetExceeded()


class _BudgetExceeded(Exception):
    pass


def _distinct_irreducible_factors(f: Poly, budget: _Budget):
    """Count distinct monic irreducible factors of a homogeneous polynomial."""
    work = f.monic()
    found = []
    while work.degree() and work.degree() >= 1:
        hit = None
        for e in range(1, work.degree() // 2 + 1):
            for g in _monic_candidates(work.ring, e):
                budget.spend()
                h = member_witness(work, [g])
                if h is not None:
                    hit = (g, h[0])
                    break
            if hit:
                break
        if hit is None:
            found.append(work)
            break
        g, h = hit
        found.append(g)
        work = h.monic()
        while True:
            h2 = member_witness(work, [g])
            if h2 is None or work.degree() == 0:
                break
            work = h2[0].monic()
    uniq = {tuple(q.terms) for q in found if q.degree() and q.degree() >= 1}
    return len(uniq)


def irreducible_principal(vty: SupportVariety, budget_limit: int = 200_000) -> IrreducibleVerdict:
    """Principal-case irreducibility of the variety over the base field.

    Only the principal case is decided: a single reduced Groebner generator
    is factored by a bounded search for monic divisors.  One irreducible
    factor (possibly powered) gives "yes" over the base field (absolute
    irreducibility is not decided); several distinct factors give "no";
    everything else is "unknown".
    """
    gb = vty.ideal.groebner
    if not gb:
        return IrreducibleVerdict("yes", "zero ideal: the whole space")
    if len(gb) != 1:
        return IrreducibleVerdict("unknown", "radical not presented by one polynomial")
    g = gb[0]
    if g.degree() == 0:
        return IrreducibleVerdict("unknown", "unit ideal")
    try:
        n = _distinct_irreducible_factors(g, _Budget(budget_limit))
    except _BudgetExceeded:
        return IrreducibleVerdict("unknown", "factor search budget exceeded")
    if n <= 1:
        return IrreducibleVerdict("yes", "irreducible over the base field; closure not decided")
    return IrreducibleVerdict("no", f"{n} distinct factors")


def rename_ideal(ideal: Ideal, target_ring: PolyRing) -> Ideal:
    """Transport an ideal along the positional variable identification."""
    if ideal.ring.n != target_ring.n:
        raise ValueError("variable counts differ")
    gens = [target_ring.from_terms(g.terms) for g in ideal.gens]
    return Ideal(target_ring, gens)
