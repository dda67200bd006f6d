"""Exact dense linear algebra mod p, vectorized with numpy int64 arrays.

Row reduction uses the first nonzero entry as pivot, so results are
deterministic.  Matrices over an extension field F_{p^e} come here through
their regular representation over F_p (regular_matrix).
"""

from __future__ import annotations

import numpy as np


# Largest value an int64 accumulator may reach.
_INT64_MAX = 2**63 - 1

# Job files accept primes below this bound: residue products then fit in int64.
PRIME_LIMIT = 2**31

# float64 holds every integer below this bound exactly.
_FLOAT_EXACT = 2**53
# Fewest multiply-adds (rows x inner x columns) a product needs before it is
# worth converting to float64; below it the int64 product is as fast.
_FLOAT_MIN_WORK = 10_000


def _safe_terms(p: int) -> int:
    """How many products of residues mod p one int64 sum can hold."""
    k = _INT64_MAX // (p - 1) ** 2
    if k == 0:
        raise ValueError(f"p={p} is too large for exact int64 products")
    return k


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries in [0, p), exact in int64.

    Products with inner * (p - 1)^2 below 2^53 are exact in float64, where
    numpy multiplies through BLAS; int64 products have no BLAS path, so
    larger ones go through float64.  When inner * (p - 1)^2 could reach 2^63,
    a is split into base-2^bits limbs small enough that inner * (p - 1) *
    2^bits stays below 2^63; the limb products are recombined by Horner
    steps mod p.  Stacked (3-d) operands broadcast as in numpy's matmul.
    """
    step = _safe_terms(p)
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 < _FLOAT_EXACT and a.size * b.shape[-1] >= _FLOAT_MIN_WORK:
        return (a.astype(np.float64) @ b.astype(np.float64) % p).astype(np.int64)
    if inner <= step:
        return a @ b % p
    bits = ((1 << 63) // (inner * (p - 1))).bit_length() - 1
    if bits < 1:
        raise ValueError(f"inner dimension {inner} is too large for exact int64 products")
    shift = ((p - 1).bit_length() - 1) // bits * bits
    out = (a >> shift) @ b % p
    mask = (1 << bits) - 1
    for s in range(shift - bits, -1, -bits):
        out = (out * (1 << bits) % p + ((a >> s) & mask) @ b % p) % p
    return out


def kron_sum(coeffs: np.ndarray, mats: np.ndarray, p: int) -> np.ndarray:
    """sum_k kron(coeffs[k], mats[k]) mod p, exact in int64.

    coeffs has shape (K, r, c) and mats (K, s, t); the result is the
    (r*s) x (c*t) block matrix whose (i, j) block is sum_k coeffs[k, i, j] *
    mats[k].  The sum over k is one exact matmul.
    """
    n, r, c = coeffs.shape
    _, s, t = mats.shape
    flat = matmul(coeffs.reshape(n, r * c).T, mats.reshape(n, s * t), p)
    return flat.reshape(r, c, s, t).transpose(0, 2, 1, 3).reshape(r * s, c * t)


def rref(a: np.ndarray, p: int):
    """Reduced row echelon form mod p; returns (matrix, pivot column list).

    When column c is reached, every row from the current pivot row down is
    zero left of c, so scaling and elimination touch only columns c onward.
    """
    _safe_terms(p)  # raises unless a product of two residues fits in int64
    m = a % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr], c:] = m[[pr, r], c:]
        row = m[r, c:] * pow(int(m[r, c]), p - 2, p) % p
        m[r, c:] = row
        col = m[:, c].copy()
        col[r] = 0
        nzr = col.nonzero()[0]
        if nzr.size:
            m[nzr, c:] = (m[nzr, c:] - np.outer(col[nzr], row)) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of {x : a @ x = 0 mod p}; shape (cols, dim)."""
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref(a, p)
    is_free = np.ones(cols, dtype=bool)  # a mask: np.isin would import numpy.ma
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -r[: len(pivots), free] % p
    return basis


class Solver:
    """Solves a @ x = b mod p for many right-hand sides with one elimination.

    rref([a | I]) = [R | E] with E invertible and E a = R, so a @ x = b iff
    R @ x = E @ b: the system is consistent iff the rows of E @ b past the
    rank vanish, and the solution that is zero at the free columns has E @ b
    at the pivots -- by uniqueness of the RREF, the one rref([a | b]) gives.
    """

    def __init__(self, a: np.ndarray, p: int):
        rows, cols = a.shape
        r, pivots = rref(np.concatenate([a % p, np.eye(rows, dtype=np.int64)], axis=1), p)
        self.p = p
        self.cols = cols
        self.pivots = [c for c in pivots if c < cols]
        self.ops = r[:, cols:]

    def __call__(self, b: np.ndarray):
        """One solution x of a @ x = b mod p, or None; b may be a matrix."""
        y = matmul(self.ops, (b if b.ndim > 1 else b[:, None]) % self.p, self.p)
        rank = len(self.pivots)
        if y[rank:].any():
            return None  # inconsistent system
        x = np.zeros((self.cols, y.shape[1]), dtype=np.int64)
        x[self.pivots] = y[:rank]
        return x if b.ndim > 1 else x[:, 0]


def solve(a: np.ndarray, b: np.ndarray, p: int):
    """One solution x of a @ x = b mod p, or None; b may be a matrix."""
    return Solver(a, p)(b)


def complement_pivots(base: np.ndarray, cand: np.ndarray, p: int):
    """Indices of candidate columns extending the span of the base columns.

    Greedy from the left; returned indices are into cand's columns.
    """
    if cand.shape[1] == 0:
        return []
    stacked = np.concatenate([base, cand], axis=1) if base.shape[1] else cand
    _, pivots = rref(stacked, p)
    nb = base.shape[1]
    return [c - nb for c in pivots if c >= nb]


def regular_matrix(field, rows) -> np.ndarray:
    """The matrix over F_p of the F_p-linear map that rows, a matrix over
    field = F_{p^e}, defines: entry a becomes the e x e block of
    multiplication by a in the basis 1, t, ..., t^(e-1).  Its rank over F_p
    is e times the rank of rows over the field; for F_p itself (e = 1) it is
    rows as an array.  rows is a nonempty nested list of field elements or
    an array of shape (nrows, ncols) or (nrows, ncols, e) of their
    coefficients."""
    e = field.e
    coeffs = np.asarray(rows, dtype=np.int64)
    nrows, ncols = coeffs.shape[:2]
    coeffs = coeffs.reshape(nrows * ncols, e)  # a = sum_i a_i t^i
    blocks = matmul(coeffs, np.array(field.mult_tables, dtype=np.int64), field.p)  # sum_i a_i (t^i times)
    return blocks.reshape(nrows, ncols, e, e).transpose(0, 2, 1, 3).reshape(nrows * e, ncols * e)
