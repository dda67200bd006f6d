"""Ext vanishing tests and fast Tor ranks over hypersurface quotients.

Over a hypersurface A = Q/(f) the Tor ranks of a module are read off a free
A-resolution assembled from a finite ambient resolution together with a
system of multiplication-by-f homotopies; reducing that complex modulo the
irrelevant ideal leaves finite linear algebra.  The general Ext test applies
Hom(-, N) to a minimal resolution and compares kernel and image by Groebner
containments.
"""

from __future__ import annotations

from . import modlinalg
from .cache import memo
from .cimodule import (
    CIRing,
    GradedModule,
    column_to_vec,
    free_module,
    is_residue_field,
    kernel_modulo,
    restrict_to_ring,
    submodule_igb,
    subquotient_presentation,
    zero_module,
)
from .groebner import vec_to_column
from .pmatrix import PolyMatrix
from .resolution import FreeResolution, groebner_kernel_step, minimal_resolution


# ---------------------------------------------------------------------------
# hypersurface Tor ranks


class AmbientResolution:
    """The finite minimal resolution G over Q of a module viewed over Q,
    with the tracked Groebner basis of each differential's columns.

    One tracked Buchberger run per differential: the run on the columns of
    d_i yields d_{i+1} (its zero reductions) and the basis that lift reads.
    Nothing here depends on a hypersurface, so every hypersurface complex of
    one module shares one (see ambient_resolution).
    """

    def __init__(self, module: GradedModule):
        amb = module.ring.ambient
        q = CIRing(amb, ())
        self.amb = amb
        self.module_q = restrict_to_ring(module, q).minimalized()
        self.diffs = []  # d_1, ..., d_pd
        self.bases = []  # bases[i - 1]: tracked basis of the columns of d_i
        d = self.module_q.presentation
        while d.ncols:
            if len(self.diffs) == amb.n:  # pd <= n by Hilbert's syzygy theorem
                raise AssertionError("ambient resolution did not terminate")
            self.diffs.append(d)
            d, basis = groebner_kernel_step(q, d)
            self.bases.append(basis)
        self.pd = len(self.diffs)
        self.res = FreeResolution(q, self.module_q, self.diffs)

    def lift(self, i, col):
        """Coefficients c with d_i c = col, or None when col is not a boundary."""
        coeffs = self.bases[i - 1].express(column_to_vec(col))
        return None if coeffs is None else vec_to_column(self.amb, self.diffs[i - 1].ncols, coeffs)


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
        self.amb = ring_a.ambient
        self.f = ring_a.fs[0]
        self.ambient = ambient_resolution(module)
        self.pd = self.ambient.pd
        self.res = self.ambient.res
        self.sigma = {}  # (t, i) -> PolyMatrix G_i -> G_{i+2t-1}
        self._build_homotopies()

    def _build_homotopies(self):
        res, pd = self.res, self.pd
        fdeg = self.f.degree()
        f_times = PolyMatrix(self.amb, [[self.f]], (0,), (fdeg,))
        t = 1
        while t <= pd + 1:
            for i in range(0, pd + 1):
                target = i + 2 * t - 1
                # rhs: G_i -> G_{i + 2t - 2}
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

    def differential(self, m: int) -> PolyMatrix:
        """d: F_m -> F_{m-1} over Q as one graded block matrix.

        Component (i, j) of F_m is G_i twisted by j deg f, for j = 0, 1, ...
        in turn; d_i maps it to (i-1, j) and sigma_t to (i+2t-1, j-t).
        """
        fdeg = self.f.degree()

        def components(n):
            return [(n - 2 * j, j) for j in range(n // 2 + 1) if n - 2 * j <= self.pd]

        def twists(i, j):
            return tuple(t + j * fdeg for t in self.res.twists(i))

        def part(i, j, k, l):
            t = j - l
            mat = None
            if t == 0 and k == i - 1:
                mat = self.res.differential(i)
            elif t >= 1 and k == i + 2 * t - 1:
                mat = self.sigma.get((t, i))
            if mat is None:
                return PolyMatrix.zero(self.amb, twists(k, l), twists(i, j))
            return mat.twisted(l * fdeg)

        src, dst = components(m), components(m - 1)
        if not src or not dst:
            return PolyMatrix.zero(
                self.amb,
                [t for c in dst for t in twists(*c)],
                [t for c in src for t in twists(*c)],
            )
        return PolyMatrix.block(self.amb, [[part(*s, *d) for s in src] for d in dst])

    def betti_over_a(self, upto: int):
        """Tor ranks of the module over A for homological degrees 0..upto:
        the ranks of F_m less those of the differentials mod the irrelevant
        ideal.  Over F_{p^e} a differential's rank is that of its regular
        representation over F_p, divided by e."""
        field = self.amb.field
        ds = [self.differential(m) for m in range(upto + 2)]
        ranks = []
        for d in ds:
            if not d.nrows or not d.ncols:
                ranks.append(0)
                continue
            rows = [[e.constant_coeff() if e.terms else field.zero for e in row] for row in d.entries]
            ranks.append(modlinalg.rank(modlinalg.regular_matrix(field, rows), field.p) // field.e)
        return [ds[m].ncols - ranks[m] - ranks[m + 1] for m in range(upto + 1)]


def hypersurface_betti(ring_a: CIRing, module: GradedModule, upto: int):
    return HypersurfaceComplex(ring_a, module).betti_over_a(upto)


def ext_k_dims(ring, module: GradedModule, upto: int):
    """dim_k Ext^i(M, k) for i = 0..upto (the betti numbers of M over ring).

    The module may be given over a quotient of ring (its ideal containing
    that of ring); it is then viewed over ring.
    """
    if ring.c == 1 and ring.dim >= 1:
        return hypersurface_betti(ring, module, upto)
    if module.ring != ring:
        module = restrict_to_ring(module, ring)
    return minimal_resolution(ring, module, upto).betti[: upto + 1]


# ---------------------------------------------------------------------------
# general Ext vanishing via the Hom complex


def _hom_complex(ring, res, n_min: GradedModule, i: int):
    """Hom(F, N) at spot i, with N presented by A^g / (relations P).

    Hom(F_j, A^g) is A^g per basis vector of F_j, so its relations are
    id (x) P, and Hom(d_j, A^g) is d_j^T (x) id.  Returns the twists of
    Hom(F_i, A^g), generators of the kernel of Hom(d_{i+1}, N) (the vectors
    mapped into the relations at spot i + 1) and the columns spanning the
    image: the relations at spot i together with the columns of
    Hom(d_i, A^g).  Ext^i(M, N) is kernel / image.
    """
    amb = ring.ambient
    ident = PolyMatrix.identity(amb, n_min.row_twists)

    def relations(j):
        dual = PolyMatrix.identity(amb, tuple(-t for t in res.twists(j)))
        return dual.kron(n_min.presentation)

    def hom_map(j):
        return res.differential(j).transpose().kron(ident)

    rels, next_rels = relations(i), relations(i + 1)
    kernel, _ = kernel_modulo(ring, next_rels.row_twists, hom_map(i + 1).columns(), next_rels.columns())
    image = rels.columns() + (hom_map(i).columns() if i >= 1 else [])
    return rels.row_twists, kernel, image


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
