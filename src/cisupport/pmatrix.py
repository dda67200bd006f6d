"""Degree-homogeneous polynomial matrices with row/column twists.

A matrix represents a graded map of free modules  (+)A(-c_j) -> (+)A(-r_i);
every nonzero entry at (i, j) must be homogeneous of degree c_j - r_i.
Empty matrices carry explicit row/column counts so rank bookkeeping stays
unambiguous.
"""

from __future__ import annotations

import numpy as np

from .poly import Poly, PolyRing, render_poly, sum_of_products


class PolyMatrix:
    def __init__(self, ring: PolyRing, entries, row_twists, col_twists):
        self.ring = ring
        self.entries = [list(row) for row in entries]
        self.row_twists = tuple(row_twists)
        self.col_twists = tuple(col_twists)
        self.nrows = len(self.row_twists)
        self.ncols = len(self.col_twists)
        if len(self.entries) != self.nrows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValueError("column count mismatch")

    @classmethod
    def from_arrays(cls, ring, row_twists, col_twists, arrays):
        """The matrix sum_m m * C_m given by prime-field arrays {m: C_m}.

        coefficient_arrays returns the arrays as given; the polynomial
        entries are built on first use, so a matrix that is only read
        through its arrays never builds them.  Not to be mutated.
        """
        m = cls.__new__(cls)
        m.ring = ring
        m.row_twists = tuple(row_twists)
        m.col_twists = tuple(col_twists)
        m.nrows = len(m.row_twists)
        m.ncols = len(m.col_twists)
        m._arrays = arrays
        return m

    def __getattr__(self, name):
        # only reached when normal lookup fails: entries of a from_arrays
        # matrix.  Monomials are visited in descending order, the order Poly
        # keeps its terms in, so no entry needs sorting.
        if name != "entries" or "_arrays" not in self.__dict__:
            raise AttributeError(name)
        terms = [[[] for _ in range(self.ncols)] for _ in range(self.nrows)]
        for m in sorted(self._arrays, key=self.ring.mono_key, reverse=True):
            a = self._arrays[m]
            rows, cols = np.nonzero(a)
            for r, c, v in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()):
                terms[r][c].append((m, v))
        self.entries = [[Poly(self.ring, tuple(t)) for t in row] for row in terms]
        return self.entries

    @classmethod
    def zero(cls, ring, row_twists, col_twists):
        z = ring.zero()  # polynomials are immutable, so one zero serves every entry
        return cls(ring, [[z] * len(col_twists) for _ in row_twists], row_twists, col_twists)

    @classmethod
    def identity(cls, ring, twists):
        m = cls.zero(ring, twists, twists)
        one = ring.one()
        for i in range(m.nrows):
            m.entries[i][i] = one
        return m

    @classmethod
    def from_columns(cls, ring, row_twists, columns, col_twists):
        entries = [[col[i] for col in columns] for i in range(len(row_twists))]
        return cls(ring, entries, row_twists, col_twists)

    def check_homogeneous(self):
        """Verify the twist/degree invariant on every nonzero entry."""
        for i in range(self.nrows):
            for j in range(self.ncols):
                e = self.entries[i][j]
                if e.is_zero():
                    continue
                want = self.col_twists[j] - self.row_twists[i]
                if not e.is_homogeneous() or e.degree() != want:
                    raise ValueError(
                        f"entry ({i},{j}) is not homogeneous of degree {want}"
                    )
        return self

    def column(self, j):
        return [self.entries[i][j] for i in range(self.nrows)]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        return PolyMatrix(
            self.ring,
            [[self.entries[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            tuple(-t for t in self.col_twists),
            tuple(-t for t in self.row_twists),
        )

    def twisted(self, s):
        """The same entries with every row and column twist shifted by s."""
        return PolyMatrix(
            self.ring,
            self.entries,
            tuple(t + s for t in self.row_twists),
            tuple(t + s for t in self.col_twists),
        )

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product: entry (i*other.nrows + k, j*other.ncols + l) is
        self[i][j] * other[k][l], and the twists of each pair add."""
        z = self.ring.zero()
        entries = [
            [
                a * b if not (a.is_zero() or b.is_zero()) else z
                for a in row
                for b in other_row
            ]
            for row in self.entries
            for other_row in other.entries
        ]
        return PolyMatrix(
            self.ring,
            entries,
            [r + s for r in self.row_twists for s in other.row_twists],
            [c + s for c in self.col_twists for s in other.col_twists],
        )

    def scale(self, c):
        return PolyMatrix(
            self.ring,
            [[e.scale(c) for e in row] for row in self.entries],
            self.row_twists,
            self.col_twists,
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        entries = [
            [a + b for a, b in zip(row, other_row)]
            for row, other_row in zip(self.entries, other.entries)
        ]
        return PolyMatrix(self.ring, entries, self.row_twists, self.col_twists)

    def __neg__(self):
        return self.scale(self.ring.field.neg(self.ring.field.one))

    def mul(self, other: "PolyMatrix", reduce=None) -> "PolyMatrix":
        """Matrix product, optionally reducing entries with the given map.

        Each nonzero entry (r, k) is paired only with the nonzero entries of
        row k of other, so the work follows the nonzero structure.  An
        output entry that no pair reaches is the ring's zero, shared and
        never passed to reduce."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        z = self.ring.zero()
        other_rows = [[(j, b) for j, b in enumerate(row) if b.terms] for row in other.entries]
        out = []
        for row in self.entries:
            pairs = {}
            for a, other_row in zip(row, other_rows):
                if a.terms:
                    for j, b in other_row:
                        pairs.setdefault(j, []).append((a, b))
            new = [z] * other.ncols
            for j, ab in pairs.items():
                new[j] = sum_of_products(self.ring, ab, reduce)
            out.append(new)
        return PolyMatrix(self.ring, out, self.row_twists, other.col_twists)

    def coefficient_arrays(self):
        """The matrix as sum_m m * C_m: {monomial: int64 array C_m}.

        Prime-field coefficients only.
        """
        if "_arrays" in self.__dict__:
            return self._arrays
        pos = {}
        for r, row in enumerate(self.entries):
            for c, e in enumerate(row):
                for m, cc in e.terms:
                    pos.setdefault(m, []).append((r, c, cc))
        out = {}
        for m, trip in pos.items():
            rr, cc, vv = zip(*trip)
            a = np.zeros((self.nrows, self.ncols), dtype=np.int64)
            a[list(rr), list(cc)] = vv
            out[m] = a
        return out

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def map_entries(self, func) -> "PolyMatrix":
        return PolyMatrix(
            self.ring,
            [[func(e) for e in row] for row in self.entries],
            self.row_twists,
            self.col_twists,
        )

    @classmethod
    def block(cls, ring, rows_of_blocks):
        """Assemble from a 2D grid of PolyMatrix blocks (all explicit)."""
        grid = rows_of_blocks
        row_twists = []
        for band in grid:
            row_twists.extend(band[0].row_twists)
        col_twists = []
        for b in grid[0]:
            col_twists.extend(b.col_twists)
        entries = []
        for band in grid:
            for i in range(band[0].nrows):
                row = []
                for b in band:
                    row.extend(b.entries[i])
                entries.append(row)
        return cls(ring, entries, row_twists, col_twists)

    def render(self):
        return [[render_poly(e) for e in row] for row in self.entries]

    def content_key(self):
        return (
            self.ring.key(),
            self.row_twists,
            self.col_twists,
            tuple(tuple(e.terms for e in row) for row in self.entries),
        )

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and other.content_key() == self.content_key()

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols})"
