"""Ext vanishing tests and fast Tor ranks over hypersurface quotients.

Over a hypersurface A = Q/(f) the Tor ranks of a module are read off a free
A-resolution assembled from a finite ambient resolution G over Q together
with a system of higher homotopies (Shamash); reducing that complex modulo
the irrelevant ideal leaves finite linear algebra on constant parts.  One
recursion, homotopy_system, builds Eisenbud's homotopies sigma_alpha of a
whole sequence f_1..f_c, one per multi-index alpha.  Those of f_a =
sum a_i f_i are sigma_t(a) = sum_{|alpha|=t} a^alpha sigma_alpha, so one
table of constant parts, homotopy_constants, serves every direction, and
one routine, _tor_ranks, reads it at a point: hypersurface_betti reads the
table of (f,) at a = (1,), and section_betti the table of f_1..f_c at each
direction after the first.  The general Ext test applies Hom(-, N) to a
minimal resolution and compares kernel and image by Groebner containments.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

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
    Nothing here depends on a hypersurface, so every hypersurface section of
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


def _multi_indices(c: int, t: int):
    """The exponent vectors alpha in N^c with |alpha| = t."""
    for combo in itertools.combinations_with_replacement(range(c), t):
        yield tuple(combo.count(j) for j in range(c))


def homotopy_system(ambient: AmbientResolution, fs) -> dict:
    """Eisenbud's system of higher homotopies on G for the sequence fs.

    Returns {(alpha, i): sigma_alpha on G_i} over the multi-indices
    alpha != 0, where sigma_alpha maps G_i to G_{i+2|alpha|-1} with degree
    sum alpha_j deg f_j; maps that come out zero are left out.  With
    sigma_0 = d the system satisfies sum_{beta+gamma=alpha} sigma_beta
    sigma_gamma = f_j id when alpha = e_j, and 0 when |alpha| >= 2.  Each
    sigma_alpha on G_i is read off that relation by one lift through
    d_{i+2|alpha|-1}, once sigma_alpha on G_{i-1} and every sigma_beta with
    beta < alpha are known.  The homotopies of f_a = sum a_j f_j are then
    sigma_t(a) = sum_{|alpha|=t} a^alpha sigma_alpha (Eisenbud, Trans. AMS 260
    (1980), section 7).
    """
    amb, res, pd = ambient.amb, ambient.res, ambient.pd
    sigma = {}
    for t in range(1, pd + 2):
        for alpha in _multi_indices(len(fs), t):
            shift = sum(e * f.degree() for e, f in zip(alpha, fs))
            # the splittings alpha = beta + gamma into two nonzero parts
            splits = [
                (beta, tuple(a - b for a, b in zip(alpha, beta)))
                for beta in itertools.product(*(range(a + 1) for a in alpha))
                if 0 < sum(beta) < t
            ]
            for i in range(0, pd + 1):
                target = i + 2 * t - 1
                # rhs: G_i -> G_{i + 2t - 2}
                if t == 1:
                    f = fs[alpha.index(1)]
                    f_times = PolyMatrix(amb, [[f]], (0,), (f.degree(),))
                    rhs = PolyMatrix.identity(amb, res.twists(i)).kron(f_times)
                else:
                    rhs = None
                    for beta, gamma in splits:
                        left = sigma.get((beta, i + 2 * sum(gamma) - 1))
                        right = sigma.get((gamma, i))
                        if left is None or right is None:
                            continue
                        term = -left.mul(right)
                        rhs = term if rhs is None else rhs + term
                if i > 0:
                    prev = sigma.get((alpha, i - 1))
                    if prev is not None:
                        corr = -prev.mul(res.differential(i))
                        rhs = corr if rhs is None else rhs + corr
                if rhs is None or rhs.is_zero():
                    continue
                if target > pd:
                    raise AssertionError("homotopy system inconsistent at the top")
                cols = [ambient.lift(target, col) for col in rhs.columns()]
                if any(col is None for col in cols):
                    raise AssertionError("homotopy right-hand side is not a boundary")
                sigma[(alpha, i)] = PolyMatrix.from_columns(
                    amb, res.twists(target), cols, tuple(tt + shift for tt in res.twists(i))
                )
    return sigma


def _shamash_layout(m: int, pd: int):
    """Where the maps sit in the Shamash differential F_m -> F_{m-1}.

    Component (i, j) of F_n is G_i twisted by j deg f, for j = 0, 1, ... in
    turn; sigma_t maps (i, j) to (i+2t-1, j-t), with sigma_0 = d.  Returns
    the components of F_m and of F_{m-1}, and for each (row, column) pair of
    them the (t, i) of the map placed there, or None.
    """

    def components(n):
        return [(n - 2 * j, j) for j in range(n // 2 + 1) if n - 2 * j <= pd]

    src, dst = components(m), components(m - 1)
    grid = [
        [(j - l, i) if j >= l and k == i + 2 * (j - l) - 1 else None for i, j in src]
        for k, l in dst
    ]
    return src, dst, grid


def _constant_part(mat: PolyMatrix, field) -> np.ndarray:
    """The constant coefficients of mat as an (nrows, ncols, e) array over F_p."""
    out = np.zeros((mat.nrows, mat.ncols, field.e), dtype=np.int64)
    for r, row in enumerate(mat.entries):
        for c, entry in enumerate(row):
            if entry.terms:
                out[r, c] = entry.constant_coeff()
    return out


def homotopy_constants(ambient: AmbientResolution, fs, field) -> dict:
    """The constant parts of the homotopies sigma_alpha of fs on G, with
    sigma_0 = d, grouped as {(t, i): (alphas, stacked)}: the alpha with
    |alpha| = t whose map on G_i has a nonzero constant part, and those
    constant parts side by side, one (rows * cols, e) block each."""
    maps = {((0,) * len(fs), i): ambient.res.differential(i) for i in range(1, ambient.pd + 1)}
    maps.update(homotopy_system(ambient, fs))
    groups = {}
    for (alpha, i), mat in maps.items():
        const = _constant_part(mat, field)
        if const.any():
            groups.setdefault((sum(alpha), i), []).append((alpha, const.reshape(-1, field.e)))
    return {
        key: ([alpha for alpha, _ in parts], np.concatenate([c for _, c in parts], axis=1))
        for key, parts in groups.items()
    }


def _tor_ranks(field, betti, table, a, upto: int):
    """Tor ranks over Q/(f_a) for homological degrees 0..upto, from the
    homotopy_constants table of f_1..f_c read at the direction a: the ranks
    of F_m less those of the Shamash differentials mod the irrelevant ideal.

    The constant part of sigma_t(a) on G_i is sum_{|alpha|=t} a^alpha
    const(sigma_alpha); a key missing from the table is a zero block.  Over
    F_{p^e} a differential's rank is that of its regular representation
    over F_p, divided by e.
    """

    def power(alpha):  # a^alpha
        return functools.reduce(field.mul, [c for c, e in zip(a, alpha) for _ in range(e)], field.one)

    blocks = {}
    for (t, i), (alphas, stacked) in table.items():
        # block alpha of scale is the transposed matrix of multiplication
        # by a^alpha, so row x of the product is sum_alpha a^alpha C_alpha[x]
        scale = modlinalg.regular_matrix(field, [[power(alpha) for alpha in alphas]]).T
        shape = (betti[i + 2 * t - 1], betti[i], field.e)
        blocks[(t, i)] = modlinalg.matmul(stacked, scale, field.p).reshape(shape)
    sizes, ranks = [], []
    for m in range(upto + 2):
        src, dst, grid = _shamash_layout(m, len(betti) - 1)
        col_at = np.cumsum([0] + [betti[i] for i, _ in src])
        row_at = np.cumsum([0] + [betti[k] for k, _ in dst])
        d = np.zeros((row_at[-1], col_at[-1], field.e), dtype=np.int64)
        for r, row in enumerate(grid):
            for c, key in enumerate(row):
                if key in blocks:
                    d[row_at[r] : row_at[r + 1], col_at[c] : col_at[c + 1]] = blocks[key]
        sizes.append(d.shape[1])
        ranks.append(modlinalg.rank(modlinalg.regular_matrix(field, d), field.p) // field.e if d.size else 0)
    return [sizes[m] - ranks[m] - ranks[m + 1] for m in range(upto + 1)]


def hypersurface_betti(ring_a: CIRing, module: GradedModule, upto: int):
    """Tor ranks over the hypersurface ring_a = Q/(f) for homological
    degrees 0..upto: the table of (f,) read at a = (1,).  The module may be
    given over a quotient of ring_a; only its presentation over Q is read."""
    if ring_a.c != 1:
        raise ValueError("hypersurface Tor ranks need a codimension-1 quotient")
    ambient = ambient_resolution(module)
    table = homotopy_constants(ambient, ring_a.fs, ring_a.field)
    return _tor_ranks(ring_a.field, ambient.res.betti, table, (ring_a.field.one,), upto)


class SectionRanks:
    """Tor ranks of one module over R = Q/(f_1..f_c) over the hypersurfaces
    Q/(f_a), one direction a at a time.

    The first direction asked reads the table of f_a alone: a process that
    asks about one direction (a `member` job) pays for nothing more.  From
    the second direction on, the table of f_1..f_c is built once and read
    at each direction.
    """

    def __init__(self):
        self.first = None  # the first direction asked
        self.betti = None  # ranks of G_0, ..., G_pd, once consts is built
        self.consts = None  # homotopy_constants of f_1..f_c

    def betti_at(self, ring: CIRing, module: GradedModule, a, upto: int):
        if self.consts is None and self.first in (None, a):
            self.first = a
            return hypersurface_betti(CIRing(ring.ambient, [ring.form(a)], validate=False), module, upto)
        if self.consts is None:
            ambient = ambient_resolution(module)
            self.betti = ambient.res.betti
            self.consts = homotopy_constants(ambient, ring.fs, ring.field)
        return _tor_ranks(ring.field, self.betti, self.consts, a, upto)


def section_betti(ring: CIRing, module: GradedModule, a, upto: int):
    """Tor ranks over Q/(f_a), f_a = sum a_i f_i, of a module over
    ring = Q/(f_1..f_c), for homological degrees 0..upto.

    The directions asked of one module share a SectionRanks in the memo
    table `homotopies`; an artinian Q/(f_a) is resolved over directly.
    """
    if ring.ambient.n < 2:
        return ext_k_dims(CIRing(ring.ambient, [ring.form(a)], validate=False), module, upto)
    sections = memo("homotopies", (ring.key(), module.content_key()), SectionRanks)
    return sections.betti_at(ring, module, tuple(a), upto)


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
