"""Ext vanishing tests and fast Tor ranks over hypersurface quotients.

Over a hypersurface A = Q/(f) the Tor ranks of a module are read off a free
A-resolution assembled from a finite ambient resolution together with a
system of multiplication-by-f homotopies; reducing that complex modulo the
irrelevant ideal leaves finite linear algebra.  The general Ext test applies
Hom(-, N) to a minimal resolution and compares kernel and image by Groebner
containments.
"""

from __future__ import annotations

import numpy as np

from . import modlinalg
from .cache import memo
from .cimodule import (
    CIRing,
    GradedModule,
    ambient_of,
    column_to_vec,
    free_module,
    is_residue_field,
    kernel_modulo,
    restrict_to_ring,
    ring_key,
    submodule_igb,
    subquotient_presentation,
    zero_module,
)
from .field import PrimeField
from .groebner import module_groebner, vec_to_column
from .pmatrix import PolyMatrix
from .resolution import minimal_resolution


# ---------------------------------------------------------------------------
# hypersurface Tor ranks


class AmbientResolution:
    """The finite resolution G over Q of a module viewed over Q, with a
    tracked Groebner basis of each differential's columns for lifting.

    Nothing here depends on a hypersurface, so every hypersurface complex of
    one module shares one (see ambient_resolution).
    """

    def __init__(self, module: GradedModule):
        amb = ambient_of(module.ring)
        self.amb = amb
        self.module_q = restrict_to_ring(module, amb).minimalized()
        res = minimal_resolution(amb, self.module_q, amb.n + 1, engine="groebner")
        pd = res.projective_dimension()
        if pd is None:
            raise AssertionError("ambient resolution did not terminate")
        self.pd = pd
        self.res = res
        self._bases = {}  # i -> tracked Groebner basis of the columns of d_i

    def lift(self, i, col):
        """Coefficients c with d_i c = col, or None when col is not a boundary."""
        d = self.res.differential(i)
        if i not in self._bases:
            vectors = [column_to_vec(c) for c in d.columns()]
            self._bases[i] = module_groebner(self.amb, d.row_twists, vectors, track=True)
        coeffs = self._bases[i].express(column_to_vec(col))
        return None if coeffs is None else vec_to_column(self.amb, d.ncols, coeffs)


def ambient_resolution(module: GradedModule) -> AmbientResolution:
    return memo("ambient", module.content_key(), lambda: AmbientResolution(module))


class HypersurfaceComplex:
    """Free resolution data over A = Q/(f) built from an ambient resolution.

    Stores the finite ambient resolution G of the module together with the
    homotopy system sigma_t (sigma_1 trivializes multiplication by f, the
    higher ones fix up the squares), which determines a free A-resolution
    with underlying modules (+)_j G_{m-2j}.  The module may be given over a
    quotient of A (its ideal containing f): only its presentation over Q is
    read, and a module over R = Q/(f_1..f_c) gives the same G for every f in
    the ideal of R.
    """

    def __init__(self, ring_a: CIRing, module: GradedModule):
        if ring_a.c != 1:
            raise ValueError("hypersurface complex needs a codimension-1 quotient")
        self.ring_a = ring_a
        self.amb = ring_a.ambient
        self.f = ring_a.fs[0]
        self.ambient = ambient_resolution(module)
        self.pd = self.ambient.pd
        self.res = self.ambient.res
        self.sigma = {}  # (t, i) -> PolyMatrix G_i -> G_{i+2t-1}
        self._build_homotopies()

    def _identity_times_f(self, twists):
        m = PolyMatrix.zero(self.amb, twists, tuple(t + self.f.degree() for t in twists))
        for i in range(len(twists)):
            m.entries[i][i] = self.f
        return m

    def _build_homotopies(self):
        res, pd = self.res, self.pd
        fdeg = self.f.degree()
        t = 1
        while t <= pd + 1:
            for i in range(0, pd + 1):
                target = i + 2 * t - 1
                # rhs: G_i -> G_{i + 2t - 2}
                if t == 1:
                    rhs = self._identity_times_f(res.twists(i))
                else:
                    rhs = None
                    for u in range(1, t):
                        left = self.sigma.get((u, i + 2 * (t - u) - 1))
                        right = self.sigma.get((t - u, i))
                        if left is None or right is None:
                            continue
                        term = left.mul(right).scale(
                            self.amb.field.neg(self.amb.field.one)
                        )
                        rhs = term if rhs is None else rhs + term
                if i > 0:
                    prev = self.sigma.get((t, i - 1))
                    if prev is not None:
                        corr = prev.mul(res.differential(i)).scale(
                            self.amb.field.neg(self.amb.field.one)
                        )
                        rhs = corr if rhs is None else rhs + corr
                if rhs is None or rhs.is_zero():
                    continue
                if target > pd:
                    raise AssertionError("homotopy system inconsistent at the top")
                cols = [self.ambient.lift(target, col) for col in rhs.columns()]
                if any(col is None for col in cols):
                    raise AssertionError("homotopy right-hand side is not a boundary")
                self.sigma[(t, i)] = PolyMatrix.from_columns(
                    self.amb,
                    res.twists(target),
                    cols,
                    tuple(tt + t * fdeg for tt in res.twists(i)),
                )
            t += 1

    def rank_of(self, m: int) -> int:
        if m < 0:
            return 0
        return sum(
            self.res.betti[m - 2 * j]
            for j in range((m // 2) + 1)
            if m - 2 * j <= self.pd
        )

    def _components(self, m: int):
        return [
            (m - 2 * j, j)
            for j in range((m // 2) + 1)
            if 0 <= m - 2 * j <= self.pd
        ]

    def scalar_differential(self, m: int):
        """Mod-irrelevant-ideal matrix of d: F_m -> F_{m-1} (field elements)."""
        field = self.amb.field
        src = self._components(m)
        dst = self._components(m - 1)
        dst_offsets = {}
        off = 0
        for comp in dst:
            dst_offsets[comp] = off
            off += self.res.betti[comp[0]]
        rows = off
        cols = sum(self.res.betti[i] for i, _ in src)
        a = [[field.zero] * cols for _ in range(rows)]

        def put(mat: PolyMatrix, r0: int, c0: int):
            for u in range(mat.nrows):
                row = mat.entries[u]
                for v in range(mat.ncols):
                    e = row[v]
                    if not e.is_zero():
                        a[r0 + u][c0 + v] = e.constant_coeff()

        coff = 0
        for i, j in src:
            w = self.res.betti[i]
            # t = 0 block: the ambient differential
            if i >= 1 and (i - 1, j) in dst_offsets:
                put(self.res.differential(i), dst_offsets[(i - 1, j)], coff)
            for t in range(1, j + 1):
                mat = self.sigma.get((t, i))
                if mat is None:
                    continue
                key = (i + 2 * t - 1, j - t)
                if key in dst_offsets:
                    put(mat, dst_offsets[key], coff)
            coff += w
        return a

    def _rank(self, rows) -> int:
        field = self.amb.field
        if not rows or not rows[0]:
            return 0
        if isinstance(field, PrimeField):
            return modlinalg.rank(np.array(rows, dtype=np.int64), field.p)
        return modlinalg.field_rank(field, rows)

    def betti_over_a(self, upto: int):
        """Tor ranks of the module over A for homological degrees 0..upto."""
        out = []
        ranks = {m: self._rank(self.scalar_differential(m)) for m in range(upto + 2)}
        for m in range(upto + 1):
            out.append(self.rank_of(m) - ranks[m] - ranks[m + 1])
        return out


def hypersurface_betti(ring_a: CIRing, module: GradedModule, upto: int):
    return HypersurfaceComplex(ring_a, module).betti_over_a(upto)


def ext_k_dims(ring, module: GradedModule, upto: int):
    """dim_k Ext^i(M, k) for i = 0..upto (the betti numbers of M over ring).

    The module may be given over a quotient of ring (its ideal containing
    that of ring); it is then viewed over ring.
    """
    if isinstance(ring, CIRing) and ring.c == 1 and ring.dim >= 1:
        return hypersurface_betti(ring, module, upto)
    if ring_key(module.ring) != ring_key(ring):
        module = restrict_to_ring(module, ring)
    return minimal_resolution(ring, module, upto).betti[: upto + 1]


# ---------------------------------------------------------------------------
# general Ext vanishing via the Hom complex


def _hom_spot_data(ring, res, n_min: GradedModule, j: int):
    """Twists of Hom(F_j, A^g) and the relation columns at that spot."""
    amb = ambient_of(ring)
    g = n_min.ngens
    tN = n_min.row_twists
    fj = res.twists(j)
    twists = tuple(tN[s] - fj[u] for u in range(len(fj)) for s in range(g))
    rel_cols = []
    pres = n_min.presentation
    for u in range(len(fj)):
        for c in range(pres.ncols):
            col = [amb.zero()] * (len(fj) * g)
            for s in range(g):
                col[u * g + s] = pres.entries[s][c]
            rel_cols.append(col)
    return twists, rel_cols


def _hom_map_columns(ring, res, n_min: GradedModule, j: int):
    """Columns of Hom(d_{j+1}, N): Hom(F_j, A^g) -> Hom(F_{j+1}, A^g)."""
    amb = ambient_of(ring)
    g = n_min.ngens
    fj = res.twists(j)
    fj1 = res.twists(j + 1)
    d = res.differential(j + 1)
    cols = []
    for u in range(len(fj)):
        for s in range(g):
            col = [amb.zero()] * (len(fj1) * g)
            for v in range(len(fj1)):
                col[v * g + s] = d.entries[u][v]
            cols.append(col)
    return cols


def _hom_complex(ring, res, n_min: GradedModule, i: int):
    """Hom(F, N) at spot i, with N presented by A^g / (relations).

    Returns the twists of Hom(F_i, A^g), generators of the kernel of
    Hom(d_{i+1}, N) (the vectors mapped into the relations at spot i + 1)
    and the columns spanning the image: the relations at spot i together
    with the columns of Hom(d_i, A^g).  Ext^i(M, N) is kernel / image.
    """
    twists, rels = _hom_spot_data(ring, res, n_min, i)
    next_twists, next_rels = _hom_spot_data(ring, res, n_min, i + 1)
    kernel = kernel_modulo(ring, next_twists, _hom_map_columns(ring, res, n_min, i), next_rels)
    image = rels + (_hom_map_columns(ring, res, n_min, i - 1) if i >= 1 else [])
    return twists, kernel, image


def ext_vanishes(ring, module: GradedModule, other: GradedModule, i: int) -> bool:
    """True iff Ext^i over the ring of (module, other) vanishes.

    For other = k this is the vanishing of the i-th betti number; in general
    Hom(-, other) is applied to the minimal resolution of the module and
    exactness at spot i is decided by two Groebner containments.
    """
    if i < 0:
        raise ValueError("Ext index must be >= 0")
    module = module.minimalized()
    if module.ngens == 0:
        return True
    if is_residue_field(other):
        dims = ext_k_dims(ring, module, i)
        return dims[i] == 0
    return _ext_vanishes_general(ring, module, other.minimalized(), i)


def _ext_vanishes_general(ring, module, n_min, i) -> bool:
    res = minimal_resolution(ring, module, i + 1)
    if res.betti[i] == 0 or n_min.ngens == 0:
        return True
    twists, kernel, image = _hom_complex(ring, res, n_min, i)
    igb = submodule_igb(ring, twists, image)
    return all(igb.contains(column_to_vec(col)) for col in kernel)


def ext_module_ring_coeffs(ring, module: GradedModule, m: int) -> GradedModule:
    """Ext^m(M, ring) as a graded module: the Hom complex into the free
    module of rank one at spot m; m = 0 gives Hom(M, ring)."""
    module = module.minimalized()
    if module.ngens == 0:
        return zero_module(ring)
    res = minimal_resolution(ring, module, m + 1)
    if res.betti[m] == 0:
        return zero_module(ring)
    return subquotient_presentation(ring, *_hom_complex(ring, res, free_module(ring), m))
