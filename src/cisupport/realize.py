"""Realizing prescribed cones as support varieties via mapping cones.

For a homogeneous class p of chi-degree d the chain map P it induces on a
minimal resolution gives the module K_p = coker [[-d_e, 0], [P_e, d_1]]
(e = 2d), which fits in 0 -> M -> K_p -> (e-1 syzygy of M, twisted) -> 0 and
cuts the variety of M with the zero set of p.  Iterating from the residue
field realizes any cone; quotients by a searched regular sequence reduce the
result to finite length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cimodule import (
    CIRing,
    GradedModule,
    column_to_vec,
    hilbert_function,
    quotient_by_element,
    quotient_columns,
    residue_module,
    submodule_igb,
)
from .field import digits
from .groebner import module_groebner
from .operators import evaluate_chi_class
from .pmatrix import PolyMatrix
from .poly import Poly
from .resolution import minimal_resolution, syzygy_module


@dataclass
class ConeSpec:
    """A cone given by homogeneous chi-polynomials of degree >= 1, each of one
    internal degree."""

    polys: list

    def validate(self, ring: CIRing):
        chi = ring.chi_ring()
        for p in self.polys:
            if p.ring.key() != chi.key():
                raise ValueError("cone generators must live in the chi ring")
            if p.is_zero() or not p.is_homogeneous() or p.degree() < 1:
                raise ValueError("cone generators must be homogeneous of degree >= 1")
            _class_twist_shift(ring, p)
        return self


@dataclass
class MappingCone:
    """The cone module together with the data the certification needs."""

    ring: CIRing
    module: GradedModule          # cokernel of the raw block matrix
    block_matrix: PolyMatrix
    chain_map: PolyMatrix         # P_e: F_e -> F_0
    quotient_part: GradedModule   # isomorphic to the (e-1)-st syzygy, twisted
    base_module: GradedModule
    degree: int                   # cohomological degree e
    twist_shift: int              # internal-degree shift of the chain map

    def minimal_module(self) -> GradedModule:
        return self.module.minimalized()


def _class_twist_shift(ring: CIRing, p_chi: Poly) -> int:
    """Internal degree of the class: sum of form degrees along each monomial."""
    degs = [f.degree() for f in ring.fs]
    shifts = {sum(a * d for a, d in zip(mono, degs)) for mono, _ in p_chi.terms}
    if len(shifts) != 1:
        raise ValueError(
            "class mixes internal degrees; with defining forms of unequal "
            "degrees only pure-internal-degree classes define graded cones"
        )
    return shifts.pop()


def mapping_cone_module(ring: CIRing, module: GradedModule, p_chi: Poly) -> MappingCone:
    """Module with variety = (variety of module) meet Z(p_chi).

    The presentation is the block matrix [[-d_e, 0], [P_e, d_1]] mapping
    F_e (+) F_1 -> F_{e-1} (+) F_0, with the top blocks twisted down by the
    internal degree of the class so the matrix stays graded.
    """
    if p_chi.is_zero() or not p_chi.is_homogeneous() or p_chi.degree() < 1:
        raise ValueError("the class must be homogeneous of chi-degree >= 1")
    d = p_chi.degree()
    e = 2 * d
    res = minimal_resolution(ring, module, e)
    pmap = evaluate_chi_class(ring, module, p_chi, window=e)[e]
    shift = _class_twist_shift(ring, p_chi)
    amb = ring.ambient
    d_1 = res.differential(1)
    top = res.differential(e).twisted(-shift)
    zero_blk = PolyMatrix.zero(amb, top.row_twists, d_1.col_twists)
    p_blk = PolyMatrix(amb, pmap.entries, pmap.row_twists, top.col_twists)
    cone = PolyMatrix.block(amb, [[-top, zero_blk], [p_blk, d_1]])
    km = GradedModule(ring, cone)
    quotient_part = GradedModule(ring, top)
    return MappingCone(
        ring=ring,
        module=km,
        block_matrix=cone,
        chain_map=pmap,
        quotient_part=quotient_part,
        base_module=res.module,
        degree=e,
        twist_shift=shift,
    )


def certify_cone_ses(cone: MappingCone) -> dict:
    """Certify 0 -> M -> K_p -> syzygy part -> 0 on the constructed data.

    Checks, exactly: Hilbert-series additivity degree by degree, injectivity
    of the inclusion of M, and that the quotient's minimal presentation
    matches the twisted syzygy's (shape, twists, Hilbert function).  Hilbert
    functions are compared up to two past the larger of the socle degree
    (6 over a non-artinian ring) and the cone's generator twists.
    """
    ring = cone.ring
    m_min = cone.base_module
    dmax = max([ring.top_socle_degree() if ring.is_artinian else 6] + list(cone.module.row_twists)) + 2
    hf_k = hilbert_function(cone.module, dmax)
    hf_m = hilbert_function(m_min, dmax)
    hf_q = hilbert_function(cone.quotient_part, dmax)
    additive = all(a == b + c for a, b, c in zip(hf_k, hf_m, hf_q))

    # injectivity of M -> K_p: kernel generators are P_e(ker d_e) + im d_1
    e = cone.degree
    res = minimal_resolution(ring, m_min, e + 1)
    d_next = res.differential(e + 1)
    img = submodule_igb(ring, m_min.row_twists, res.differential(1).columns())
    injective = True
    composed = cone.chain_map.mul(d_next, reduce=lambda q: ring.nf(q))
    for j in range(composed.ncols):
        if not img.contains(column_to_vec(composed.column(j))):
            injective = False
            break

    syz = syzygy_module(m_min, e - 1).minimalized()
    quot = cone.quotient_part.minimalized()
    shape_match = (
        quot.ngens == syz.ngens
        and quot.nrels == syz.nrels
        and sorted(t + cone.twist_shift for t in quot.row_twists)
        == sorted(syz.row_twists)
    )
    hf_syz = hilbert_function(syz, dmax + cone.twist_shift)
    hf_quot_shifted = hf_q[: dmax + 1]
    hf_match = all(
        hf_quot_shifted[t] == (hf_syz[t + cone.twist_shift] if t + cone.twist_shift < len(hf_syz) else 0)
        for t in range(dmax + 1)
    )
    return {
        "hilbert_additive": additive,
        "inclusion_injective": injective,
        "quotient_matches_syzygy": shape_match and hf_match,
    }


def realize_cone(ring: CIRing, spec: ConeSpec) -> GradedModule:
    """A module whose support variety is the zero set of the cone generators.

    Starts from the residue field (whole space) and applies one mapping cone
    per generator; the empty cone returns k itself.
    """
    spec.validate(ring)
    current = residue_module(ring)
    for p in spec.polys:
        cone = mapping_cone_module(ring, current, p)
        current = cone.minimal_module()
    return current


# ---------------------------------------------------------------------------
# finite length form


@dataclass
class FiniteLengthResult:
    module: GradedModule
    regular_sequence: list
    complete: bool
    note: str = ""


def is_finite_length(module: GradedModule) -> bool:
    """Krull dimension 0, read off leading terms of the presentation plus
    ring relations: every component's leading-term ideal must contain a pure
    power of every variable."""
    m = module.minimalized()
    if m.ngens == 0:
        return True
    ring = m.ring
    amb = ring.ambient
    cols = [column_to_vec(m.presentation.column(j)) for j in range(m.nrels)]
    cols += quotient_columns(ring, m.row_twists)
    gb = module_groebner(amb, m.row_twists, cols)
    leads = {}
    for comp, mono in gb.leads:
        leads.setdefault(comp, []).append(mono)
    for comp in range(m.ngens):
        lts = leads.get(comp, [])
        for var in range(amb.n):
            if not any(
                all(e == 0 for k, e in enumerate(mono) if k != var) and mono[var] > 0
                for mono in lts
            ):
                return False
    return True


def _candidate_elements(ring: CIRing, degree: int, seed: int):
    """Deterministic candidates: seeded samples first, then all of them if
    there are at most 4096."""
    amb = ring.ambient
    monos = [m for m in amb.monomials_of_degree(degree) if not ring.nf(
        amb.from_terms([(m, amb.field.one)])).is_zero()]
    if not monos:
        return
    p = amb.field.p
    total = p ** len(monos)
    emitted = set()
    state = seed * 2654435761 % (2**31)
    samples = min(64, total)
    for _ in range(samples):
        state = (1103515245 * state + 12345) % (2**31)
        code = state % total
        if code in emitted:
            continue
        emitted.add(code)
        yield _code_to_poly(ring, monos, code)
    if total <= 4096:
        for code in range(total):
            if code not in emitted:
                yield _code_to_poly(ring, monos, code)


def _code_to_poly(ring, monos, code):
    amb = ring.ambient
    coeffs = digits(code, amb.field.p, len(monos))
    return ring.nf(amb.from_terms((m, c) for m, c in zip(monos, coeffs) if c))


def finite_length_form(ring: CIRing, module: GradedModule) -> FiniteLengthResult:
    """Finite-length module with the same variety (syzygy + regular quotients).

    Replaces the module by its (dim R)-th syzygy (depth makes it maximal
    Cohen-Macaulay; free modules are kept as they stand), then divides by a
    maximal regular sequence found by seeded search in degrees 1..3.  If the search fails at
    every degree tried (possible over tiny fields) a flagged partial result
    is returned rather than an unsound one.
    """
    if ring.dim == 0:
        return FiniteLengthResult(module, [], True, "ring is artinian")
    m = module.minimalized()
    if m.ngens == 0:
        return FiniteLengthResult(m, [], True, "zero module")
    if not m.is_free():
        m = syzygy_module(m, ring.dim).minimalized()
        if m.ngens == 0:
            return FiniteLengthResult(m, [], True, "finite projective dimension")
    seq = []
    current = m
    for step in range(ring.dim):
        found = None
        for deg in range(1, 4):
            for x in _candidate_elements(ring, deg, 13 + 31 * step):
                if x.is_zero():
                    continue
                quot, regular = quotient_by_element(current, x)
                if regular:
                    found = (x, quot)
                    break
            if found:
                break
        if found is None:
            return FiniteLengthResult(
                current,
                seq,
                False,
                "no regular element found at searched degrees",
            )
        x, quot = found
        seq.append(x)
        current = quot.minimalized()
    if not is_finite_length(current):
        return FiniteLengthResult(current, seq, False, "length check failed")
    return FiniteLengthResult(current, seq, True)
