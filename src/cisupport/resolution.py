"""Minimal graded free resolutions over a complete intersection (or Q itself).

Two engines produce the same contract:

* "slice": for artinian quotients every graded piece is a finite-dimensional
  vector space, so each kernel is found degree by degree with exact mod-p
  linear algebra, and new generators are the kernel vectors not reachable
  from lower degrees.
* "groebner": a syzygy computation in the ambient ring (adjoining quotient
  relations) followed by minimal-generator selection.

Every differential has entries in the irrelevant ideal by construction, so
the resolutions are minimal; betti numbers are the ranks.
"""

from __future__ import annotations

import numpy as np

from . import modlinalg
from .cache import memo
from .cimodule import (
    CIRing,
    GradedModule,
    free_blocks,
    minimal_generator_indices,
    slice_matrix,
    syzygy_matrix,
    var_mult_matrix,
)
from .field import PrimeField
from .pmatrix import PolyMatrix


class FreeResolution:
    """A window F_L -> ... -> F_1 -> F_0 of a minimal graded resolution."""

    def __init__(self, ring, module, differentials):
        self.ring = ring
        self.module = module
        self.differentials = differentials  # [d_1, ..., d_length]
        self.length = len(differentials)

    @property
    def betti(self):
        out = [self.module.ngens]
        for d in self.differentials:
            out.append(d.ncols)
        return out

    def twists(self, i):
        if i == 0:
            return self.module.row_twists
        return self.differentials[i - 1].col_twists

    def differential(self, i) -> PolyMatrix:
        """The map F_i -> F_{i-1}, 1-based."""
        return self.differentials[i - 1]

    def betti_by_degree(self):
        return [dict(_count(self.twists(i))) for i in range(self.length + 1)]

    def projective_dimension(self):
        """Finite pd if visible inside the window, else None."""
        b = self.betti
        for i in range(1, len(b)):
            if b[i] == 0:
                return i - 1
        return None


def _count(twists):
    out = {}
    for t in twists:
        out[t] = out.get(t, 0) + 1
    return out


# ---------------------------------------------------------------------------
# slice engine (artinian quotient rings)


def _free_mult(ring, twists, var: int, d: int, vecs: np.ndarray, p: int) -> np.ndarray:
    """Multiply the columns of vecs, coordinates in the degree-d piece of
    (+) ring(-t_j), by a variable; generators of one twist share one
    variable multiplication matrix."""
    w = ring.ambient.weights[var]
    _, src = free_blocks(ring, twists, d)
    dim, dst = free_blocks(ring, twists, d + w)
    k = vecs.shape[1]
    out = np.zeros((dim, k), dtype=np.int64)
    for t, (gens, pos) in src.items():
        if t not in dst:
            continue
        block = vecs[pos.reshape(-1)].reshape(len(gens), pos.shape[1], k)
        prod = modlinalg.matmul(var_mult_matrix(ring, var, d - t), block, p)
        out[dst[t][1].reshape(-1)] = prod.reshape(-1, k)
    return out


def _coords_to_arrays(ring, twists, chunks, ncols):
    """Coefficient arrays {monomial: C_m} of the matrix whose columns are the
    chunks' coordinate vectors, taken in order; all-zero arrays are left out."""
    arrays = {}
    c0 = 0
    for d, vecs in chunks:
        k = vecs.shape[1]
        _, blocks = free_blocks(ring, twists, d)
        for t, (gens, pos) in blocks.items():
            for s, m in enumerate(ring.std_monomials(d - t)):
                a = arrays.get(m)
                if a is None:
                    a = arrays[m] = np.zeros((len(twists), ncols), dtype=np.int64)
                a[gens, c0 : c0 + k] = vecs[pos[:, s]]
        c0 += k
    return {m: a for m, a in arrays.items() if a.any()}


def _kernel_complement(base: np.ndarray, n_d: np.ndarray, p: int):
    """Indices of the columns of n_d that extend the span of base, as
    complement_pivots(base, n_d, p) chooses them.

    n_d is a nullspace basis and the columns of base lie in its span.  n_d is
    the identity at its free rows (column j's free row is its last nonzero
    row), so base[free] holds their coordinates in that basis; the same
    pivots come out with one row per kernel vector, not one per coordinate.

    Unit vector e_j is chosen iff no vector in the span of those coordinates
    has its last nonzero entry at j.  Those last positions, read from the
    end, are the pivot columns of the rref of the reversed coordinates as
    rows, so one elimination of that (base columns x kernel dim) matrix
    replaces the one of [coordinates | identity].
    """
    free = n_d.shape[0] - 1 - (n_d[::-1] != 0).argmax(axis=0)
    k = n_d.shape[1]
    if base.shape[1] == 0:
        return list(range(k))
    _, pivots = modlinalg.rref(base[free][::-1].T, p)
    last = {k - 1 - c for c in pivots}
    return [j for j in range(k) if j not in last]


def _slice_kernel_step(ring: CIRing, mat: PolyMatrix) -> PolyMatrix:
    """Next differential: minimal generators of ker(mat) over an artinian ring."""
    p = ring.field.p
    twists = mat.col_twists
    amb = ring.ambient
    if len(twists) == 0:
        return PolyMatrix(amb, [], (), ())
    top = max(twists) + ring.top_socle_degree()
    lo = min(twists)
    kernels = {}
    chunks = []  # (degree, coordinates of the new generators of that degree)
    new_twists = []
    for d in range(lo, top + 1):
        n_d = modlinalg.nullspace(slice_matrix(ring, mat, d), p)  # (0, 0) for an empty piece
        kernels[d] = n_d
        if n_d.shape[1] == 0:
            continue
        spans = []
        for v in range(amb.n):
            w = amb.weights[v]
            prev = kernels.get(d - w)
            if prev is None or prev.shape[1] == 0:
                continue
            spans.append(_free_mult(ring, twists, v, d - w, prev, p))
        base = (
            np.concatenate(spans, axis=1)
            if spans
            else np.zeros((n_d.shape[0], 0), dtype=np.int64)
        )
        chosen = _kernel_complement(base, n_d, p)
        if chosen:
            chunks.append((d, n_d[:, chosen] % p))
            new_twists.extend([d] * len(chosen))

    arrays = _coords_to_arrays(ring, twists, chunks, len(new_twists))
    return PolyMatrix.from_arrays(amb, twists, new_twists, arrays)


# ---------------------------------------------------------------------------
# groebner engine


def groebner_kernel_step(ring: CIRing, mat: PolyMatrix):
    """Next differential: minimal generators of ker(mat), and the tracked
    Groebner basis of mat's columns (then the quotient relations) that the
    one syzygy run built; the basis is None when mat has no columns."""
    amb = ring.ambient
    if mat.ncols == 0:
        return PolyMatrix(amb, [], (), ()), None
    syz, basis = syzygy_matrix(ring, mat)
    cols = syz.columns()
    kept = minimal_generator_indices(ring, syz.row_twists, cols)
    kept_cols = [cols[j] for j in kept]
    kept_twists = [syz.col_twists[j] for j in kept]
    return PolyMatrix.from_columns(amb, mat.col_twists, kept_cols, tuple(kept_twists)), basis


def ring_key(ring: CIRing):
    """The ring's part of the memo key of minimal_resolution."""
    return ring.key()


def resolve_engine(ring: CIRing, engine: str = "auto") -> str:
    if engine != "auto":
        return engine
    if ring.is_artinian and isinstance(ring.field, PrimeField):
        return "slice"
    return "groebner"


def minimal_resolution(ring: CIRing, module: GradedModule, length: int, engine: str = "auto") -> FreeResolution:
    """Minimal graded free resolution of the module to the given length.

    Results are memoized per (ring, module, engine) and extended in place, so
    asking for a longer window continues the previous computation.  The
    engine is picked from the ring (resolve_engine) unless "slice" or
    "groebner" is forced.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    eng = resolve_engine(ring, engine)
    key = (ring_key(ring), module.content_key(), eng)
    min_module, diffs = memo("resolution", key, lambda: (module.minimalized(), []))
    while len(diffs) < length:
        if not diffs:
            # minimal_generator_indices leaves the relations in (degree,
            # position) order
            diffs.append(min_module.presentation)
        elif eng == "slice":
            diffs.append(_slice_kernel_step(ring, diffs[-1]))
        else:
            diffs.append(groebner_kernel_step(ring, diffs[-1])[0])
    return FreeResolution(ring, min_module, diffs[:length])


def syzygy_module(module: GradedModule, n: int) -> GradedModule:
    """The n-th syzygy of the module (0th syzygy is the module itself)."""
    if n < 0:
        raise ValueError("syzygy index must be >= 0")
    if n == 0:
        return module
    ring = module.ring
    res = minimal_resolution(ring, module, n + 1)
    if res.betti[n] == 0:
        from .cimodule import zero_module

        return zero_module(ring)
    return GradedModule(ring, res.differential(n + 1), normalize=False)


# ---------------------------------------------------------------------------
# validation helpers (used heavily by the test suite)


def check_complex(res: FreeResolution):
    """d_i . d_{i+1} = 0 over the ring, entry-exact."""
    ring = res.ring
    for i in range(1, res.length):
        prod = res.differential(i).mul(res.differential(i + 1), reduce=ring.nf)
        if not prod.is_zero():
            raise AssertionError(f"complex identity fails at step {i}")
    return True


def check_minimal(res: FreeResolution):
    for i in range(1, res.length + 1):
        mat = res.differential(i)
        for row in mat.entries:
            for e in row:
                if not e.is_zero() and e.degree() == 0:
                    raise AssertionError(f"unit entry in differential {i}")
    return True


def check_exactness(res: FreeResolution, spots=None):
    """Kernel = image at interior spots, each containment checked separately."""
    from .cimodule import submodule_igb, column_to_vec

    ring = res.ring
    spots = spots if spots is not None else range(1, res.length)
    for i in spots:
        d_i = res.differential(i)
        d_next = res.differential(i + 1)
        image_igb = submodule_igb(ring, d_i.col_twists, d_next.columns())
        syz, _ = syzygy_matrix(ring, d_i)
        for col in syz.columns():
            if not image_igb.contains(column_to_vec(col)):
                raise AssertionError(f"kernel not covered by image at spot {i}")
        kernel_igb = submodule_igb(ring, d_i.col_twists, syz.columns())
        for col in d_next.columns():
            if not kernel_igb.contains(column_to_vec(col)):
                raise AssertionError(f"image not inside kernel at spot {i}")
    return True
