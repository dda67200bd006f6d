"""Ext vanishing tests and fast Tor ranks over hypersurface quotients.

Over a hypersurface A = Q/(f) the Tor ranks of a module are read off a free
A-resolution assembled from a finite ambient resolution G over Q together
with a system of higher homotopies (Shamash); reducing that complex modulo
the irrelevant ideal leaves finite linear algebra on constant parts.  One
recursion, homotopy_system, builds Eisenbud's homotopies sigma_alpha of a
whole sequence f_1..f_c, one per multi-index alpha.  Those of f_a =
sum a_i f_i are sigma_t(a) = sum_{|alpha|=t} a^alpha sigma_alpha, so one
table of constant parts, homotopy_constants, serves every direction, and
one TorReader per table answers every Tor-rank question about it, in
whatever field the point lies.  One RankLocus per (ring, module) holds a
module's readers and answers every question about its hypersurface
sections: hypersurface_betti reads it at a = (1,) over Q/(f), and
membership (against k, and for each module of a pair) and the certificate
of variety_of read it at points of F_p^c and of its extensions (Q = k[x]
included).  Past pd G the Shamash resolution is 2-periodic, so a reader
builds only the differentials the asked degrees need, and two ranks, kept
per projective point, decide eventual vanishing.  RankLocus also reads the tail
differentials along a line, as polynomial matrices in x: the support
variety is where their constant parts fail to be exact, with no window
and no degree bound, which certifies the annihilator route's ideal.  The
general Ext test applies Hom(-, N) to a minimal resolution and compares
kernel and image by Groebner containments, and ext_k_dims reads the Betti
numbers of a minimal resolution; no command reads them for membership,
and they are the reference that membership is checked against.
"""

from __future__ import annotations

import functools
import itertools
import random

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
from .field import ExtField, PrimeField, _pdivmod, _pmul, _ppowmod, _ptrim
from .groebner import Ideal, vec_to_column
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


def _projective(field, a) -> tuple:
    """The point a scaled so that its first nonzero coordinate is one; the
    zero vector as it is.  Q/(f_{lambda a}) = Q/(f_a), so every Tor rank
    over it depends on this point only."""
    a = [field.mul(field.one, x) for x in a]  # reduced: p is zero over F_p
    lead = next((x for x in a if x != field.zero), field.one)
    if lead == field.one:
        return tuple(a)
    inv = field.inv(lead)
    return tuple(field.mul(inv, x) for x in a)


class TorReader:
    """Tor ranks over Q/(f_a) read off one homotopy_constants table of
    f_1..f_c at directions a: the rank of F_m less those of the Shamash
    differentials d_m and d_{m+1} mod the irrelevant ideal.

    The constant part of sigma_t(a) on G_i is sum_{|alpha|=t} a^alpha
    const(sigma_alpha); a key missing from the table is a zero block.  So
    each d_m is one matrix over F_p times the column of monomials a^alpha,
    built the first time a degree asks for it.  Past pd G every F_m holds
    all of G_i of one parity, so d_{m+2} = d_m for m > pd (the 2-periodic
    tail), and the degrees s, s + 1 with s > pd take two ranks.  A rank is
    kept per projective point (see _projective) and period, so the scalar
    multiples of a point read its ranks.  Over F_{p^e} a differential's
    rank is that of its regular representation over F_p, divided by e; the
    table may be over F_p or over F_{p^e}.  line() reads d_m of a table over
    F_p along a line x u + v: a^alpha becomes the polynomial (x u + v)^alpha.
    """

    def __init__(self, betti, table):
        self.betti = betti  # ranks of G_0, ..., G_pd
        self.table = table
        self.pd = len(betti) - 1
        self._maps = {}  # period m: d_m as (shape, alphas, matrix)
        self._ranks = {}  # (field, projective point, period m): rank of d_m there

    def period(self, m: int) -> int:
        """The m' <= pd + 2 with d_m' = d_m."""
        pd = self.pd
        return m if m <= pd + 2 else pd + 1 + (m - pd - 1) % 2

    def _map(self, m: int):
        """d_m as (shape, alphas, matrix): its (rows, cols) entries, read
        row by row, are matrix times the column of monomials a^alpha, alpha
        in alphas (e coefficients each when the table is over F_{p^e})."""
        if m not in self._maps:
            betti = self.betti
            src, dst, grid = _shamash_layout(m, self.pd)
            col_at = np.cumsum([0] + [betti[i] for i, _ in src])
            row_at = np.cumsum([0] + [betti[k] for k, _ in dst])
            blocks = [
                (r, c, self.table[key]) for r, row in enumerate(grid) for c, key in enumerate(row) if key in self.table
            ]
            column = {}  # alpha: its column of the matrix (its e columns over F_{p^e})
            for *_, (alphas, _) in blocks:
                for alpha in alphas:
                    column.setdefault(alpha, len(column))
            e = blocks[0][2][1].shape[1] // len(blocks[0][2][0]) if blocks else 1
            matrix = np.zeros((row_at[-1], col_at[-1], len(column) * e), dtype=np.int64)
            for r, c, (alphas, stacked) in blocks:
                place = matrix[row_at[r] : row_at[r + 1], col_at[c] : col_at[c + 1]]
                block = stacked.reshape(place.shape[:2] + (len(alphas) * e,))
                for n, alpha in enumerate(alphas):
                    j = column[alpha]
                    place[..., j * e : (j + 1) * e] = block[..., n * e : (n + 1) * e]
            shape = (int(row_at[-1]), int(col_at[-1]))
            self._maps[m] = (shape, list(column), matrix.reshape(shape[0] * shape[1], len(column) * e))
        return self._maps[m]

    def _rank(self, field, a, m: int) -> int:
        shape, alphas, matrix = self._map(m)
        if not alphas:
            return 0
        powers = [  # a^alpha
            functools.reduce(field.mul, [c for c, e in zip(a, alpha) for _ in range(e)], field.one) for alpha in alphas
        ]
        # block alpha of scale is the transposed matrix of multiplication
        # by a^alpha, so row x of the product is sum_alpha a^alpha C_alpha[x];
        # for a table over F_p only row 0 of each block, a^alpha, is read
        scale = modlinalg.regular_matrix(field, [powers]).T
        if matrix.shape[1] == len(alphas):
            scale = scale[:: field.e]
        d = modlinalg.matmul(matrix, scale, field.p).reshape(shape + (field.e,))
        return modlinalg.rank(modlinalg.regular_matrix(field, d), field.p) // field.e

    def read(self, field, a, degrees) -> list:
        """The Tor ranks over Q/(f_a) in the given degrees, in their order,
        for a point a over field."""
        a = _projective(field, a)

        def rank(m):
            key = (field, a, m)
            if key not in self._ranks:
                self._ranks[key] = self._rank(field, a, m)
            return self._ranks[key]

        out = []
        for m in degrees:
            m0, m1 = self.period(m), self.period(m + 1)
            out.append(self._map(m0)[0][1] - rank(m0) - rank(m1))
        return out

    def line(self, field, u, v, m: int) -> np.ndarray:
        """d_m along the line x u + v, for a table over the prime field: the
        stack of its coefficient matrices of x^0, ..., x^top, top the
        largest |alpha| of the table, so every degree's stack is as deep."""
        shape, alphas, matrix = self._map(self.period(m))
        top = max((t for t, _ in self.table), default=0)
        powers = np.zeros((len(alphas), top + 1), dtype=np.int64)  # (x u + v)^alpha
        for row, alpha in zip(powers, alphas):
            f = functools.reduce(
                lambda g, j: _pmul(g, [v[j], u[j]], field.p), [j for j, e in enumerate(alpha) for _ in range(e)], [1]
            )
            row[: len(f)] = f
        stack = modlinalg.matmul(matrix, powers, field.p).reshape(shape + (top + 1,))
        return np.moveaxis(stack, 2, 0)


def hypersurface_betti(ring_a: CIRing, module: GradedModule, upto: int):
    """Tor ranks over the hypersurface ring_a = Q/(f) for homological
    degrees 0..upto: the module's RankLocus over ring_a read at a = (1,),
    which builds the table of f alone.  The module may be given over a
    quotient of ring_a; only its presentation over Q is read."""
    if ring_a.c != 1:
        raise ValueError("hypersurface Tor ranks need a codimension-1 quotient")
    return rank_locus(ring_a, module).betti_at((ring_a.field.one,), range(upto + 1))


def ext_k_dims(ring, module: GradedModule, upto: int):
    """dim_k Ext^i(M, k) for i = 0..upto (the betti numbers of M over ring).

    The module may be given over a quotient of ring (its ideal containing
    that of ring); it is then viewed over ring.  It reads the minimal
    resolution for every ring, a hypersurface included, and so shares no
    code with the rank locus it is a reference for.
    """
    if module.ring != ring:
        module = restrict_to_ring(module, ring)
    return minimal_resolution(ring, module, upto).betti[: upto + 1]


# ---------------------------------------------------------------------------
# the rank locus of the homotopies


def _psub(a, b, p: int) -> list:
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _ptrim([(x - y) % p for x, y in zip(a, b)])


def _pgcd(a, b, p: int) -> list:
    """The monic gcd (the zero list when both are zero)."""
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    inv = pow(a[-1], -1, p) if a else 0
    return [x * inv % p for x in a]


def _irreducible_factors(g, p: int, rng) -> list:
    """The distinct monic irreducible factors of a nonzero g over F_p.

    Distinct-degree factorization: gcd(g, x^(p^e) - x) collects the factors
    of degree e once the lower ones are divided out.  Each such product is
    split by Cantor-Zassenhaus; the random choices change only the running
    time, never the factors.
    """
    rest, out, xq, e = _pgcd(g, [], p), [], [0, 1], 0
    while len(rest) > 1:
        e += 1
        xq = _ppowmod(xq, p, rest, p)  # x^(p^e) mod rest
        part = _pgcd(rest, _psub(xq, [0, 1], p), p)
        if len(part) > 1:
            out += _split_equal_degree(part, e, p, rng)
            while len(common := _pgcd(rest, part, p)) > 1:
                rest = _pdivmod(rest, common, p)[0]
            xq = _pdivmod(xq, rest, p)[1]
    return out


def _split_equal_degree(f, e: int, p: int, rng) -> list:
    """The irreducible factors of f, a product of distinct ones of degree e."""
    if len(f) - 1 == e:
        return [f]
    while True:
        a = _ptrim([rng.randrange(p) for _ in range(len(f) - 1)])
        if p == 2:  # the trace a + a^2 + ... + a^(2^(e-1)) is 0 or 1 at each root
            b = t = a
            for _ in range(e - 1):
                t = _pdivmod(_pmul(t, t, p), f, p)[1]
                b = _psub(b, t, p)  # b + t in characteristic 2
        else:  # a^((p^e - 1)/2) is 1 or -1 at each root where a is nonzero
            b = _psub(_ppowmod(a, (p**e - 1) // 2, f, p), [1], p)
        d = _pgcd(f, b, p)
        if 1 < len(d) < len(f):
            return _split_equal_degree(d, e, p, rng) + _split_equal_degree(_pdivmod(f, d, p)[0], e, p, rng)


def _exact_quotient(num: np.ndarray, d: np.ndarray, p: int) -> np.ndarray:
    """num / d for polynomial entries (coefficients on the last axis) that d
    divides exactly, trimmed to the highest nonzero coefficient."""
    dd = len(d) - 1
    inv = pow(int(d[-1]), -1, p)
    num = num.copy()
    q = np.zeros(num.shape[:-1] + (max(num.shape[-1] - dd, 1),), dtype=np.int64)
    for k in range(num.shape[-1] - 1 - dd, -1, -1):
        c = q[..., k] = num[..., k + dd] * inv % p
        if dd:
            num[..., k : k + dd] = (num[..., k : k + dd] - c[..., None] * d[:dd]) % p
    top = np.flatnonzero(q.reshape(-1, q.shape[-1]).any(axis=0))
    return q[..., : top[-1] + 1 if top.size else 1]


def _blocks(support: np.ndarray):
    """The connected components of the bipartite row/column graph of a
    boolean matrix, as (rows, columns) index arrays; a zero row or column
    lies in none of them."""
    out, left = [], support.any(axis=1)
    while left.any():
        rows = np.zeros_like(left)
        rows[np.argmax(left)] = True
        while True:
            cols = support[rows].any(axis=0)
            grown = support[:, cols].any(axis=1)
            if (grown == rows).all():
                break
            rows = grown
        left &= ~rows
        out.append((np.flatnonzero(rows), np.flatnonzero(cols)))
    return out


def _generic_rank(stack: np.ndarray, p: int):
    """Rank over F_p(x) of the polynomial matrix sum_k x^k stack[k], and one
    nonzero minor of that size.

    The union of the supports of the stack[k] splits into the connected
    components of its row/column graph; up to a permutation of rows and
    columns the matrix is block-diagonal at every x, so its rank is the sum
    of the blocks' ranks and the product of their minors is a nonzero minor
    of that size.  Each block is eliminated on its own by _bareiss: the
    Shamash pencils are sparse, and their blocks are small."""
    stack = stack % p
    rank, minor = 0, [1]
    for rows, cols in _blocks(stack.any(axis=0)):
        r, m = _bareiss(stack[:, rows][:, :, cols], p)
        rank, minor = rank + r, _pmul(minor, m, p)
    return rank, minor


def _bareiss(stack: np.ndarray, p: int):
    """_generic_rank by fraction-free (Bareiss) elimination of the whole
    matrix, where each step's entries are minors of the matrix and the last
    pivot is the minor returned."""
    a = np.moveaxis(stack % p, 0, -1)
    prev, rank = np.ones(1, dtype=np.int64), 0
    while a.shape[0] and a.shape[1] and a.any():
        k = a.shape[2]
        # the pivot of least degree keeps the entries small
        deg = np.where(a.any(axis=2), k - 1 - np.argmax(a[..., ::-1] != 0, axis=2), k)
        i, j = np.unravel_index(np.argmin(deg), deg.shape)
        a = a[[i] + [r for r in range(a.shape[0]) if r != i]][:, [j] + [c for c in range(a.shape[1]) if c != j]]
        piv = a[0, 0, : deg[i, j] + 1]
        col, row, rest = a[1:, 0], a[0, 1:], a[1:, 1:]
        new = np.zeros(rest.shape[:2] + (k + max(len(piv), k) - 1,), dtype=np.int64)
        for u, c in enumerate(piv):  # piv * rest - col (x) row
            if c:
                new[..., u : u + k] = (new[..., u : u + k] + int(c) * rest) % p
        for u in range(k):
            if col[:, u].any():
                new[..., u : u + k] = (new[..., u : u + k] - col[:, u, None, None] * row[None]) % p
        a, prev, rank = _exact_quotient(new, prev, p), piv, rank + 1
    return rank, _ptrim(prev)


class RankLocus:
    """The support variety V(M) of one module over R = Q/(f_1..f_c), read
    from the module's own homotopies: Tor ranks over each hypersurface
    Q/(f_a), the test "is a in V(M)?" at a point, and the exact locus on a
    line.  One per (ring, module), in the memo table `homotopies` (see
    rank_locus).  The module must live over the ring or a quotient of it
    (the same Q, with every f_i zero there), else f_1..f_c have no
    homotopies on its resolution: any other module raises ValueError.

    betti_at(a, degrees) reads Tor over Q/(f_a) with a TorReader.  The
    first direction asked reads the table of f_a alone, kept with its
    reader for when it or a scalar multiple is asked again: a process that
    asks about one direction (a `member` job) pays for nothing more.  From
    the next projective point on, and at any point over an extension
    field, the table of f_1..f_c is built once and its reader serves every
    direction.

    Let G = E + O be the ambient resolution split into its even and odd
    parts, and D(chi) = sum_alpha chi^alpha const(sigma_alpha) (the table
    of f_1..f_c, with sigma_0 = d) as maps D_0(chi): E -> O and D_1(chi):
    O -> E.  Reduced mod the irrelevant ideal, the Shamash resolution over
    Q/(f_a) is, past pd G, the Z/2-graded complex D(a); so Tor over Q/(f_a)
    is eventually zero exactly when D(a) is exact, and since M is torsion
    over Q, dim E = dim O = N and
        V(M) = {a : rank D_0(a) + rank D_1(a) < N}
    with no window and no degree bound (Eisenbud, Trans. AMS 260 (1980),
    section 7; Avramov-Buchweitz, Invent. Math. 142 (2000)).  It is a cone:
    the block of sigma_alpha on G_i has chi-degree |alpha|.

    D_0 and D_1 are, up to block order, the Shamash differentials in the
    tail degrees pd + 1, pd + 2, so contains(a) is betti_at in those two
    degrees: two ranks per projective point, whether the membership oracle
    or the locus asks.  on_line(u, v), over a prime field only, is the
    locus on the line {s1 u + s2 v}, exact: it is the whole line when
    the generic ranks r_0, r_1 of the pencil D(x u + v) over F_p(x) sum to
    less than N, and otherwise the finitely many points where one of them
    drops.  The support of D_i(x u + v) splits into independent blocks
    (_generic_rank); the product of the last pivots of their fraction-free
    eliminations is a nonzero r_i-minor of D_i, so each such point is a
    root of one of those two products; every irreducible factor h of their
    product, read as the point x u + v over F_p[x]/(h), and the point
    x = infinity (u itself) are kept or dropped by contains there.  The
    only randomness left is Cantor-Zassenhaus in the factoring, which
    changes the running time, never the answer.  For c = 2 the line
    through (1, 0) and (0, 1) is all of P^1, so its ideal is V(M) itself,
    up to radical.  The reader keeps each point's ranks; a line's answer
    is kept by its caller (variety_of reads each probe line once).
    Nothing here reads the chi action.
    """

    def __init__(self, ring: CIRing, module: GradedModule):
        if module.ring.ambient != ring.ambient or any(not module.ring.nf(f).is_zero() for f in ring.fs):
            raise ValueError(f"the module is over {module.ring!r}, which is neither {ring!r} nor a quotient of it")
        self.ring, self.module = ring, module
        self.first = None  # the first direction asked
        self.first_reader = None  # reader of the table of f_first alone
        self.module_reader = None  # reader of the table of f_1..f_c

    @functools.cached_property
    def tail(self) -> tuple:
        """pd + 1, pd + 2: the ambient resolution is built at the first read."""
        pd = ambient_resolution(self.module).pd
        return pd + 1, pd + 2

    def reader(self) -> TorReader:
        """The reader of the homotopy_constants table of f_1..f_c."""
        if self.module_reader is None:
            ring, ambient = self.ring, ambient_resolution(self.module)
            self.module_reader = TorReader(ambient.res.betti, homotopy_constants(ambient, ring.fs, ring.field))
        return self.module_reader

    @property
    def n(self) -> int:
        """N = dim E = dim O."""
        betti = ambient_resolution(self.module).res.betti
        if sum(betti[0::2]) != sum(betti[1::2]):
            raise AssertionError("the ambient resolution of a torsion module has dim E = dim O")
        return sum(betti[0::2])

    def betti_at(self, a, degrees, field=None) -> list:
        """The Tor ranks over Q/(f_a) in the given degrees, in their order,
        for a point a over field, by default the ring's."""
        field = field or self.ring.field
        if field != self.ring.field:  # a point over an extension has no f_a over the ring
            return self.reader().read(field, a, degrees)
        point = _projective(field, a)
        # f_0 = 0 has no homotopies: the zero direction reads the module's table
        single = self.module_reader is None and any(x != field.zero for x in point)
        if single and self.first is None:
            ambient = ambient_resolution(self.module)
            self.first = a
            self.first_reader = TorReader(ambient.res.betti, homotopy_constants(ambient, [self.ring.form(a)], field))
        if single and point == _projective(field, self.first):
            return self.first_reader.read(field, (field.one,), degrees)
        return self.reader().read(field, a, degrees)

    def contains(self, a, field=None) -> bool:
        """Is the point a over field, by default the ring's, in V(M)?"""
        return any(self.betti_at(a, self.tail, field))

    def _pencil(self, u, v):
        """D_0 and D_1, in some order, at x u + v as stacks of coefficient
        matrices of x^0, x^1, ... over F_p."""
        return [self.reader().line(self.ring.field, u, v, m) for m in self.tail]

    def _at_root(self, u, v, modulus) -> bool:
        """Is x u + v in the locus, for x the root of the monic irreducible
        modulus in the field F_p[x]/(modulus)?"""
        p, e = self.ring.field.p, len(modulus) - 1
        if e == 1:
            x = -modulus[0] % p
            return self.contains(tuple((x * a + b) % p for a, b in zip(u, v)))
        fld = ExtField(p, e, modulus)
        x = tuple(int(k == 1) for k in range(e))
        return self.contains(tuple(fld.add(fld.mul(fld.from_int(s), x), fld.from_int(t)) for s, t in zip(u, v)), fld)

    def on_line(self, u, v) -> Ideal:
        """The locus on the line {s1 u + s2 v}, as an ideal of
        ring.s_ring(2) = k[s1, s2] whose zero set it is."""
        if not isinstance(self.ring.field, PrimeField):
            raise ValueError("rank loci are computed over prime fields")
        p, ring2 = self.ring.field.p, self.ring.s_ring(2)
        ranks, pivots = zip(*(_generic_rank(m, p) for m in self._pencil(u, v)))
        if sum(ranks) < self.n:
            return Ideal(ring2, [])
        s1, s2 = ring2.var_poly(0), ring2.var_poly(1)
        points = [
            ring2.from_terms(((k, len(h) - 1 - k), c) for k, c in enumerate(h))
            for h in _irreducible_factors(_pmul(*pivots, p), p, random.Random(repr((u, v))))
            if self._at_root(u, v, h)
        ]
        if self.contains(u):  # x = infinity
            points.append(s2)
        if not points:
            return Ideal(ring2, [s1, s2])
        return Ideal(ring2, [functools.reduce(lambda f, g: f * g, points)])


def rank_locus(ring: CIRing, module: GradedModule) -> RankLocus:
    """The RankLocus of one module over one ring, in the memo table
    `homotopies`: the homotopies depend on the forms as well as the module."""
    return memo("homotopies", (ring.key(), module.content_key()), lambda: RankLocus(ring, module))


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
