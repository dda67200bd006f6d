"""Cohomology operators on resolutions over a complete intersection.

Lifting the differentials of a minimal R-resolution to the ambient ring
leaves a square that decomposes along the defining forms:
d~ . d~ = sum_i f_i t_i.  The degree -2 chain maps t_i induce commuting
degree +2 operators chi_i on Ext(M, k); evaluating a polynomial in the chi
variables as a chain map drives the mapping-cone construction.
"""

from __future__ import annotations

import numpy as np

from . import modlinalg
from .cimodule import CIRing, GradedModule, free_blocks, slice_matrix
from .field import PrimeField
from .groebner import module_groebner, poly_to_vec, vec_to_column
from .pmatrix import PolyMatrix
from .poly import Poly, mono_mul
from .resolution import FreeResolution, minimal_resolution


class OperatorFamily:
    """Chain maps t_i[n]: F_n -> F_{n-2} over the ambient ring.

    ops[i][n] holds t_{i+1} at homological degree n (n >= 2), satisfying
    d~_{n-1} d~_n = sum_i f_i t_i[n] entry-exactly.
    """

    def __init__(self, ring: CIRing, res: FreeResolution, ops):
        self.ring = ring
        self.res = res
        self.ops = ops  # list (per i) of dict {n: PolyMatrix}
        self.window = res.length

    def t(self, i: int, n: int) -> PolyMatrix:
        return self.ops[i][n]

    def scalar_t(self, i: int, n: int):
        """Reduction of t_i[n] modulo the irrelevant ideal, as a k-matrix."""
        m = self.ops[i][n]
        a = m.coefficient_arrays().get(self.ring.ambient.zero_mono)
        return np.zeros((m.nrows, m.ncols), dtype=np.int64) if a is None else a

    def verify_identity(self):
        """d~ d~ = sum f_i t_i, entry-exact over the ambient ring."""
        res = self.res
        for n in range(2, self.window + 1):
            diff = -res.differential(n - 1).mul(res.differential(n))
            for f, ops in zip(self.ring.fs, self.ops):
                diff = diff + ops[n].map_entries(lambda e: f * e)
            if not diff.is_zero():
                raise AssertionError(f"operator identity fails at n={n}")
        return True

    def verify_chain_property(self):
        """d_{n-2} t_i[n] = t_i[n-1] d_n modulo the quotient ideal."""
        ring = self.ring
        res = self.res
        for i in range(ring.c):
            for n in range(3, self.window + 1):
                left = res.differential(n - 2).mul(self.ops[i][n], reduce=ring.nf)
                right = self.ops[i][n - 1].mul(res.differential(n), reduce=ring.nf)
                if not (left + -right).is_zero():
                    raise AssertionError(f"chain property fails for t_{i+1} at n={n}")
        return True


def operator_family(ring: CIRing, res: FreeResolution, strategy: str = "forward") -> OperatorFamily:
    """Solve d~_{n-1} d~_n = sum_i f_i t_i[n] entry-wise for all n in the window.

    strategy chooses the generator order of the tracked Groebner basis the
    witnesses come from ("forward" or "reverse"); any witness works, and the
    induced action on Ext(M, k) does not depend on the choice.
    """
    amb = ring.ambient
    fs = list(ring.fs)
    order = list(range(ring.c))
    if strategy == "reverse":
        order = order[::-1]
    elif strategy != "forward":
        raise ValueError("strategy must be 'forward' or 'reverse'")
    gens = [fs[i] for i in order]
    gb = module_groebner(amb, (0,), [poly_to_vec(g) for g in gens], track=True)
    fdeg = [f.degree() for f in fs]
    ops = [dict() for _ in range(ring.c)]
    for n in range(2, res.length + 1):
        prod = res.differential(n - 1).mul(res.differential(n))
        mats = [
            PolyMatrix.zero(amb, prod.row_twists, tuple(t - fdeg[i] for t in prod.col_twists))
        for i in range(ring.c)
        ]
        for r in range(prod.nrows):
            for c in range(prod.ncols):
                e = prod.entries[r][c]
                if e.is_zero():
                    continue
                wit = gb.express(poly_to_vec(e))
                if wit is None:
                    raise AssertionError(
                        "square of lifted differential not in the defining ideal"
                    )
                wit = vec_to_column(amb, len(gens), wit)
                for pos, i in enumerate(order):
                    mats[i].entries[r][c] = wit[pos]
        for i in range(ring.c):
            ops[i][n] = mats[i]
    return OperatorFamily(ring, res, ops)


class ExtKModule:
    """Graded action of k[chi_1..chi_c] on Ext(M, k) over a window.

    dims[n] = dim Ext^n(M, k); chi_maps[i][n] is the matrix of
    chi_{i+1}: Ext^n -> Ext^{n + deg f_{i+1}} in the standard bases.
    """

    def __init__(self, ring: CIRing, dims, chi_maps, window: int):
        self.ring = ring
        self.dims = dims
        self.chi_maps = chi_maps
        self.window = window

    def chi(self, i: int, n: int) -> np.ndarray:
        return self.chi_maps[i][n]

    def monomial_action(self, expo, n: int) -> np.ndarray:
        """Matrix of chi^expo acting from Ext^n, composing one variable at a time."""
        p = self.ring.field.p
        cur = np.eye(self.dims[n], dtype=np.int64)
        level = n
        for i in range(self.ring.c - 1, -1, -1):
            for _ in range(expo[i]):
                cur = modlinalg.matmul(self.chi_maps[i][level], cur, p)
                level += 2
        return cur

    def verify_commutativity(self):
        p = self.ring.field.p
        c = self.ring.c
        for i in range(c):
            for j in range(i + 1, c):
                di = dj = 2
                for n in range(0, self.window - di - dj + 1):
                    a = modlinalg.matmul(self.chi_maps[j][n + di], self.chi_maps[i][n], p)
                    b = modlinalg.matmul(self.chi_maps[i][n + dj], self.chi_maps[j][n], p)
                    if not np.array_equal(a, b):
                        raise AssertionError(
                            f"chi_{i+1} and chi_{j+1} do not commute at n={n}"
                        )
        return True


def chi_action(ring: CIRing, module: GradedModule, window: int, previous: ExtKModule = None) -> ExtKModule:
    """The k[chi]-action on Ext(M, k) over homological degrees [0, window].

    Works directly with the scalar parts of the operator decomposition: for
    each entry of the squared lifted differential whose twist gap equals
    deg f_i, the coefficient of f_i is a uniquely determined scalar.  All
    entries of one gap degree are solved together, against one elimination
    of that degree's span matrix shared by every homological degree.  The
    span matrix is the degree-gap slice of the row (f_1 .. f_c) over Q; the
    coefficient of f_i is read at the column of f_i * 1.

    previous, the action of the same module over a shorter window, is
    extended: only the t_i[n] with n past its window are solved, as
    minimal_resolution extends its memo entry.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    amb = ring.ambient
    if not isinstance(amb.field, PrimeField):
        raise ValueError("chi actions are computed over prime fields")
    if previous is not None and previous.window > window:
        raise ValueError("can only extend an action over a shorter window")
    p = amb.field.p
    res = minimal_resolution(ring, module, window)
    chi_maps = [dict(m) for m in previous.chi_maps] if previous else [{} for _ in range(ring.c)]
    spans = {}  # gap degree g -> (solver, forms of degree g, columns of f_i * 1)
    for n in range(previous.window + 1 if previous else 2, window + 1):
        # chi_i acts from Ext^(n-2) as the transpose of t_i[n]'s scalar part
        for i, t in enumerate(_scalar_t(ring, res, n, spans)):
            chi_maps[i][n - 2] = t.T % p
    return ExtKModule(ring, list(res.betti[: window + 1]), chi_maps, window)


def _scalar_t(ring: CIRing, res: FreeResolution, n: int, spans: dict) -> list:
    """The scalar parts of t_1[n], ..., t_c[n], each a b_{n-2} x b_n matrix;
    spans keeps each gap degree's solver for the next n."""
    amb = ring.ambient
    p = amb.field.p
    fdeg = [f.degree() for f in ring.fs]
    rows_tw = np.array(res.twists(n - 2), dtype=np.int64)
    cols_tw = np.array(res.twists(n), dtype=np.int64)
    tmats = [np.zeros((len(rows_tw), len(cols_tw)), dtype=np.int64) for _ in range(ring.c)]
    gap = cols_tw[None, :] - rows_tw[:, None]
    gaps = {}
    for g in sorted(set(fdeg)):
        rr, cc = np.nonzero(gap == g)
        if rr.size:
            gaps[g] = (rr, cc)
    if not gaps:
        return tmats
    a_parts = res.differential(n - 1).coefficient_arrays()
    b_parts = res.differential(n).coefficient_arrays()
    prod_coeffs = {}
    for m1, a1 in a_parts.items():
        d1 = amb.wdeg(m1)
        for m2, b2 in b_parts.items():
            if d1 + amb.wdeg(m2) not in gaps:
                continue
            m = mono_mul(m1, m2)
            acc = prod_coeffs.get(m)
            prod = modlinalg.matmul(a1, b2, p)
            prod_coeffs[m] = prod if acc is None else (acc + prod) % p
    for g, (rr, cc) in gaps.items():
        if g not in spans:
            free = CIRing(amb, ())
            forms = PolyMatrix(amb, [list(ring.fs)], (0,), fdeg)
            gens, positions = free_blocks(free, fdeg, g)[1][g]
            spans[g] = (modlinalg.Solver(slice_matrix(free, forms, g), p), gens, positions[:, 0])
        solver, gens, units = spans[g]
        monos_g = amb.monomials_of_degree(g)
        rhs = np.zeros((len(monos_g), rr.size), dtype=np.int64)
        for t, m in enumerate(monos_g):
            cm = prod_coeffs.get(m)
            if cm is not None:
                rhs[t] = cm[rr, cc]
        sol = solver(rhs)
        if sol is None:
            raise AssertionError("square not decomposable along the forms")
        for i, col in zip(gens, units):
            tmats[i][rr, cc] = sol[col]
    return tmats


def chi_action_from_family(family: OperatorFamily) -> ExtKModule:
    """Action induced by an explicitly computed operator family: chi_i acts
    from Ext^n as the transpose of the scalar part of t_i[n + 2]."""
    ring, window = family.ring, family.window
    chi_maps = [
        {n: family.scalar_t(i, n + 2).T % ring.field.p for n in range(window - 1)} for i in range(ring.c)
    ]
    return ExtKModule(ring, list(family.res.betti[: window + 1]), chi_maps, window)


def evaluate_chi_class(ring: CIRing, module: GradedModule, p_chi: Poly, window: int):
    """Chain map over R representing a homogeneous class p(chi_1..chi_c).

    Returns a dict {n: PolyMatrix F_n -> F_{n-e}} for n = e..window, where
    e = 2 * deg(p).  The components commute with the differentials over R.
    """
    chi = ring.chi_ring()
    if p_chi.ring.key() != chi.key():
        raise ValueError("class must live in the chi coordinate ring")
    if p_chi.is_zero() or not p_chi.is_homogeneous():
        raise ValueError("class must be homogeneous and nonzero")
    d = p_chi.degree()
    if d < 1:
        raise ValueError("class must have chi-degree >= 1")
    e = 2 * d
    if window < e:
        raise ValueError("window too short for the class degree")
    res = minimal_resolution(ring, module, window)
    family = operator_family(ring, res)
    amb = ring.ambient
    out = {}
    for n in range(e, window + 1):
        acc = None
        for mono, coeff in p_chi.terms:
            comp = None
            level = n
            for i in range(ring.c - 1, -1, -1):
                for _ in range(mono[i]):
                    step = family.t(i, level)
                    comp = step if comp is None else step.mul(comp)
                    level -= 2
            comp = comp.scale(coeff)
            acc = comp if acc is None else acc + comp
        out[n] = acc.map_entries(lambda q: ring.nf(q))
    return out
