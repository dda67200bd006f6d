"""Complete-intersection rings and finitely generated graded modules.

Every module lives over a CIRing: a graded polynomial ring Q modulo a
regular sequence of forms of degree >= 2, with Q itself as CIRing(Q, ()).
Modules are given by graded presentation matrices; entries are kept in
normal form modulo the quotient.
"""

from __future__ import annotations

import numpy as np

from . import modlinalg
from .groebner import (
    IncrementalGB,
    buchberger,
    is_regular_sequence,
    module_syzygies,
    normal_form,
    poly_basis,
    vec_to_column,
)
from .poly import Poly, PolyRing, mono_divides, mono_mul
from .pmatrix import PolyMatrix


class CIRing:
    """Quotient of a graded polynomial ring by a regular sequence f_1..f_c.

    The empty sequence is regular: CIRing(Q, ()) is the free ring Q.  Fixes
    the coordinates of the degree-one slice of the defining ideal: the
    i-th coordinate corresponds to f_i, in order.
    """

    def __init__(self, ambient: PolyRing, fs, validate: bool = True):
        self.ambient = ambient
        self.fs = tuple(fs)
        self.note = ""
        if validate:
            res = is_regular_sequence(self.fs, ambient)
            if not res:
                raise ValueError("defining forms are not a regular sequence of degree >= 2")
            self.note = res.note
            self.gb = res.basis
        else:
            self.gb = buchberger(list(self.fs)) if self.fs else []
        self.c = len(self.fs)
        self._reducer = poly_basis(ambient, self.gb)
        self.dim = ambient.n - self.c
        self._std_cache = {}
        self._mult_cache = {}  # (variable, degree) -> var_mult_matrix
        self._key = (
            "ciring",
            ambient.key(),
            tuple(tuple(f.terms) for f in self.fs),
        )

    @property
    def field(self):
        return self.ambient.field

    @property
    def is_artinian(self):
        return self.dim == 0

    def nf(self, poly: Poly) -> Poly:
        return normal_form(poly, self._reducer) if self.gb else poly

    def std_monomials(self, d: int):
        """Monomial basis of the degree-d piece of the quotient ring."""
        if d < 0:
            return []
        if d not in self._std_cache:
            lts = [g.lm() for g in self.gb]
            self._std_cache[d] = [
                m
                for m in self.ambient.monomials_of_degree(d)
                if not any(mono_divides(lt, m) for lt in lts)
            ]
        return self._std_cache[d]

    def top_socle_degree(self) -> int:
        """Largest degree with a nonzero piece; only valid when artinian.

        The Hilbert series prod(1 - t^deg f_i) / prod(1 - t^w_j) of an
        artinian complete intersection is a polynomial with leading
        coefficient 1, of degree sum deg f_i - sum w_j.
        """
        if not self.is_artinian:
            raise ValueError("socle degree only defined for artinian quotients")
        return sum(f.degree() for f in self.fs) - sum(self.ambient.weights)

    def check_direction(self, a, field=None):
        """Raise ValueError when the nonzero coordinates of a pick defining
        forms of different degrees: f_a is then not homogeneous.  The
        coordinates lie in the given field, by default the ring's."""
        zero = (field or self.field).zero
        if len({f.degree() for c, f in zip(a, self.fs) if c != zero}) > 1:
            raise ValueError(
                "mixed-degree directions are outside the graded model; "
                "combine forms of one degree at a time"
            )

    def form(self, a) -> Poly:
        """f_a = sum_i a_i f_i for coefficients a_i in the ring's field."""
        f = self.ambient.zero()
        for c, fi in zip(a, self.fs):
            if c != self.field.zero:
                f = f + fi.scale(c)
        return f

    def chi_ring(self) -> PolyRing:
        """Coordinate ring of the space of defining forms: k[chi1..chic]."""
        return PolyRing([f"chi{i + 1}" for i in range(self.c)], field=self.field)

    def s_ring(self, r: int) -> PolyRing:
        """Coordinate ring for a rank-r subspace restriction: k[s1..sr]."""
        return PolyRing([f"s{i + 1}" for i in range(r)], field=self.field)

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, CIRing) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        from .poly import render_poly

        rel = ", ".join(render_poly(f) for f in self.fs)
        return f"CIRing({self.ambient.variables} / ({rel}))"


# ---------------------------------------------------------------------------
# columns as vectors


def column_to_vec(col) -> dict:
    v = {}
    for i, p in enumerate(col):
        for m, c in p.terms:
            v[(i, m)] = c
    return v


def column_degree(ring, twists, col):
    """Degree of a homogeneous column vector; None if zero."""
    for i, p in enumerate(col):
        if not p.is_zero():
            return p.degree() + twists[i]
    return None


def quotient_columns(ring, twists):
    """Vectors h * e_i for the quotient relations h; empty for free rings."""
    cols = []
    for i in range(len(twists)):
        for h in ring.gb:
            cols.append({(i, m): c for m, c in h.terms})
    return cols


def quotient_igb(ring, twists) -> IncrementalGB:
    """Incremental basis seeded with the quotient relations h * e_i.

    ring.gb is a reduced Groebner basis, so the relations need no S-pairs
    among themselves and are inserted as they are.
    """
    igb = IncrementalGB(ring.ambient, twists)
    for v in quotient_columns(ring, twists):
        igb.insert(v)
    return igb


def submodule_igb(ring, twists, columns) -> IncrementalGB:
    """Incremental basis of the span of the columns over the given ring."""
    igb = quotient_igb(ring, twists)
    for col in columns:
        igb.add(column_to_vec(col))
    return igb


def kernel_modulo(ring, twists, cols, rel_cols):
    """Generators of {a : sum_j a_j cols_j lies in span(rel_cols)} over the ring,
    and the tracked Groebner basis their syzygy run built.

    cols and rel_cols are columns of the free module with the given twists.
    The kernel comes from the syzygies of [cols | rel_cols | quotient
    relations] in the ambient ring, projected onto the cols block: the
    nonzero normal forms of those projections (columns of length len(cols)).
    The basis is that of the same vectors, in that order.
    """
    amb = ring.ambient
    vectors = [column_to_vec(col) for col in list(cols) + list(rel_cols)]
    vectors += quotient_columns(ring, twists)
    n = len(cols)
    out = []
    syzygies, basis = module_syzygies(amb, twists, vectors)
    for s in syzygies:
        proj = {(j, m): c for (j, m), c in s.items() if j < n}
        col = [ring.nf(p) for p in vec_to_column(amb, n, proj)]
        if any(not p.is_zero() for p in col):
            out.append(col)
    return out, basis


def syzygy_matrix(ring, matrix: PolyMatrix):
    """Generators of the kernel of the graded map defined by the matrix, and
    the tracked Groebner basis of its columns (and, over a quotient, of the
    quotient relations after them) that the one syzygy run built."""
    cols, basis = kernel_modulo(ring, matrix.row_twists, matrix.columns(), [])
    twists = [column_degree(ring, matrix.col_twists, col) for col in cols]
    return PolyMatrix.from_columns(ring.ambient, matrix.col_twists, cols, twists), basis


def minimal_generator_indices(ring, twists, columns):
    """Indices of a minimal generating subset of the given columns.

    Columns are considered in increasing degree (ties by position), which by
    the graded Nakayama lemma yields a minimal generating set.
    """
    degs = [(column_degree(ring, twists, col), j) for j, col in enumerate(columns)]
    order = sorted((d, j) for d, j in degs if d is not None)
    igb = quotient_igb(ring, twists)
    kept = []
    for _, j in order:
        if igb.add(column_to_vec(columns[j])):
            kept.append(j)
    return kept


# ---------------------------------------------------------------------------
# graded modules


class GradedModule:
    """Finitely generated graded module given by a presentation matrix.

    Rows index generators (with their twists), columns index relations.  The
    zero module is the case of zero generators.
    """

    def __init__(self, ring: CIRing, presentation: PolyMatrix, normalize: bool = True):
        self.ring = ring
        if normalize:
            presentation = presentation.map_entries(ring.nf)
        presentation.check_homogeneous()
        self.presentation = presentation
        self.row_twists = presentation.row_twists
        self.ngens = presentation.nrows
        self.nrels = presentation.ncols
        self._minimal = None
        self._key = None
        self._residue = None  # is_residue_field, once asked

    @classmethod
    def from_columns(cls, ring, row_twists, columns, col_twists=None):
        amb = ring.ambient
        if col_twists is None:
            col_twists = []
            for col in columns:
                d = column_degree(ring, row_twists, col)
                if d is None:
                    raise ValueError("zero relation column needs an explicit twist")
                col_twists.append(d)
        return cls(ring, PolyMatrix.from_columns(amb, row_twists, columns, col_twists))

    def content_key(self):
        if self._key is None:
            self._key = ("module", self.ring.key(), self.presentation.content_key())
        return self._key

    def column(self, j):
        return self.presentation.column(j)

    def minimalized(self) -> "GradedModule":
        """Equivalent module with a minimal presentation (pruned units,
        minimal relation set)."""
        if self._minimal is None:
            self._minimal = _minimalize(self)
        return self._minimal

    def is_zero(self) -> bool:
        return self.minimalized().ngens == 0

    def is_free(self) -> bool:
        return self.minimalized().nrels == 0

    def __repr__(self):
        return f"GradedModule({self.ngens} gens, {self.nrels} rels)"


def _minimalize(module: GradedModule) -> GradedModule:
    ring = module.ring
    amb = ring.ambient
    field = amb.field
    entries = [row[:] for row in module.presentation.entries]
    row_twists = list(module.row_twists)
    col_twists = list(module.presentation.col_twists)

    def find_unit():
        for i in range(len(row_twists)):
            for j in range(len(col_twists)):
                e = entries[i][j]
                if not e.is_zero() and e.degree() == 0:
                    return i, j
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        i, j = hit
        u_inv = field.inv(entries[i][j].constant_coeff())
        pivot_col = [entries[r][j] for r in range(len(row_twists))]
        for j2 in range(len(col_twists)):
            if j2 == j:
                continue
            c = entries[i][j2]
            if c.is_zero():
                continue
            factor = c.scale(u_inv)
            for r in range(len(row_twists)):
                prod = pivot_col[r] * factor
                entries[r][j2] = ring.nf(entries[r][j2] - prod)
        del entries[i]
        del row_twists[i]
        for row in entries:
            del row[j]
        del col_twists[j]

    mat = PolyMatrix(amb, entries, row_twists, col_twists)
    cols = mat.columns()
    kept = minimal_generator_indices(ring, tuple(row_twists), cols)
    kept_cols = [cols[j] for j in kept]
    kept_twists = [col_twists[j] for j in kept]
    out = GradedModule(
        ring,
        PolyMatrix.from_columns(amb, row_twists, kept_cols, kept_twists),
        normalize=False,
    )
    out._minimal = out
    return out


def zero_module(ring) -> GradedModule:
    return GradedModule(ring, PolyMatrix(ring.ambient, [], (), ()))


def free_module(ring, twists=(0,)) -> GradedModule:
    return GradedModule(ring, PolyMatrix(ring.ambient, [[] for _ in twists], twists, ()))


def residue_module(ring) -> GradedModule:
    """The residue field k presented by the variables."""
    amb = ring.ambient
    k = GradedModule.from_columns(ring, (0,), [[amb.var_poly(i)] for i in range(amb.n)])
    k._residue = True
    return k


def cyclic_module(ring, relation_polys) -> GradedModule:
    """ring/(relations) as a module with one generator."""
    return GradedModule.from_columns(ring, (0,), [[p] for p in relation_polys])


def is_residue_field(module: GradedModule) -> bool:
    if module._residue is None:
        module._residue = _is_residue_field(module)
    return module._residue


def _is_residue_field(module: GradedModule) -> bool:
    m = module.minimalized()
    if m.ngens != 1:
        return False
    amb = m.ring.ambient
    rel = [m.presentation.entries[0][j] for j in range(m.nrels)]
    # the ring's relations lie in the maximal ideal, so the reduced basis of
    # (variables) + (relations) is the variables, in buchberger's order
    maximal = sorted((amb.var_poly(i) for i in range(amb.n)), key=lambda v: amb.mono_key(v.lm()))
    return buchberger(rel + m.ring.gb) == maximal


# ---------------------------------------------------------------------------
# graded pieces and Hilbert functions


def free_blocks(ring, twists, d: int):
    """The degree-d piece of (+) ring(-t_j), grouped by twist.

    The piece has the basis (j, m) for each generator j in order and each
    standard monomial m of degree d - t_j, in std_monomials order.  Returns
    (dimension, {t: (generators, positions)}): the generators j with t_j = t,
    and the basis positions of their blocks as an array of shape
    (len(generators), block size).  Empty blocks are left out.
    """
    sizes = [len(ring.std_monomials(d - t)) for t in twists]
    offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]).astype(np.int64)
    groups = {}
    for j, t in enumerate(twists):
        if sizes[j]:
            groups.setdefault(t, []).append(j)
    blocks = {}
    for t, gens in groups.items():
        gens = np.array(gens, dtype=np.int64)
        blocks[t] = (gens, offsets[gens][:, None] + np.arange(sizes[gens[0]]))
    return int(offsets[-1]), blocks


def var_mult_matrix(ring, var: int, d: int) -> np.ndarray:
    """Multiplication by a variable from the degree-d piece of the ring to the
    degree d + weight piece, in standard-monomial bases; cached on the ring."""
    cache = ring._mult_cache
    key = (var, d)
    if key not in cache:
        amb = ring.ambient
        src = ring.std_monomials(d)
        dst = ring.std_monomials(d + amb.weights[var])
        idx = {m: i for i, m in enumerate(dst)}
        a = np.zeros((len(dst), len(src)), dtype=np.int64)
        vm = amb.var_mono(var)
        one = amb.field.one
        for j, m in enumerate(src):
            prod = ring.nf(amb.from_terms([(mono_mul(m, vm), one)]))
            for mm, c in prod.terms:
                a[idx[mm], j] = c
        cache[key] = a
    return cache[key]


def slice_matrix(ring, matrix: PolyMatrix, d: int) -> np.ndarray:
    """Degree-d piece of the graded map as an integer matrix mod p.

    Entry (i, j) = sum_m c_m m maps the degree d - t_j piece of the ring to
    the degree d - r_i piece by sum_m c_m M_m, where M_m, multiplication by
    the monomial m, is a product of variable multiplication matrices.  Rows
    (columns) of equal twist have equal block sizes, so every band of one row
    twist and one column twist is a single Kronecker sum over the monomials.
    """
    amb = ring.ambient
    p = amb.field.p
    nrows, row_blocks = free_blocks(ring, matrix.row_twists, d)
    ncols, col_blocks = free_blocks(ring, matrix.col_twists, d)
    a = np.zeros((nrows, ncols), dtype=np.int64)
    if a.size == 0:
        return a
    by_degree = {}
    coeffs = matrix.coefficient_arrays()
    for m in coeffs:
        by_degree.setdefault(amb.wdeg(m), []).append(m)
    products = {}  # (monomial, source degree) -> M_m, for this call only

    def mono_matrix(m, s):
        if (m, s) not in products:
            v = next((i for i, e in enumerate(m) if e), None)
            if v is None:
                out = np.eye(len(ring.std_monomials(s)), dtype=np.int64)
            else:
                rest = m[:v] + (m[v] - 1,) + m[v + 1 :]
                step = var_mult_matrix(ring, v, s + amb.wdeg(rest))
                out = step if not any(rest) else modlinalg.matmul(step, mono_matrix(rest, s), p)
            products[(m, s)] = out
        return products[(m, s)]

    for t, (cols, col_pos) in col_blocks.items():
        for r, (rows, row_pos) in row_blocks.items():
            monos = by_degree.get(t - r)
            if not monos:
                continue
            sub = np.ix_(rows, cols)
            a[np.ix_(row_pos.reshape(-1), col_pos.reshape(-1))] = modlinalg.kron_sum(
                np.stack([coeffs[m][sub] for m in monos]),
                np.stack([mono_matrix(m, d - t) for m in monos]),
                p,
            )
    return a


def hilbert_function(module: GradedModule, dmax: int):
    """dim_k of each graded piece of the module for degrees 0..dmax."""
    ring = module.ring
    p = ring.ambient.field.p
    out = []
    for d in range(dmax + 1):
        a = slice_matrix(ring, module.presentation, d)  # one row per basis vector of the piece
        out.append(a.shape[0] - modlinalg.rank(a, p))
    return out


# ---------------------------------------------------------------------------
# constructions


def tensor_over_base(m1: GradedModule, m2: GradedModule, target) -> GradedModule:
    """Presentation of M1 (x) M2 over the common ambient ring, moved to target.

    Both factors live over the free ring CIRing(Q, ()) of the target's Q.
    Generators are pairs; relations are the two blocks rel(M1) (x) id and
    id (x) rel(M2).
    """
    amb = target.ambient
    if any(m.ring.c or m.ring.ambient != amb for m in (m1, m2)):
        raise ValueError("tensor factors must be presented over the target's ambient ring")
    p1, p2 = m1.presentation, m2.presentation
    i1, i2 = PolyMatrix.identity(amb, m1.row_twists), PolyMatrix.identity(amb, m2.row_twists)
    return GradedModule(target, PolyMatrix.block(amb, [[p1.kron(i2), i1.kron(p2)]]))


def quotient_by_element(module: GradedModule, x: Poly):
    """(M/xM, is x regular on M).

    Regularity is decided by computing the multiplication kernel through a
    syzygy computation and testing it against the relation submodule.
    """
    ring = module.ring
    amb = ring.ambient
    x = ring.nf(x)
    if x.is_zero() or not x.is_homogeneous() or x.degree() < 1:
        raise ValueError("need a homogeneous element of positive degree")
    pres = module.presentation
    x_times = PolyMatrix.identity(amb, module.row_twists).kron(PolyMatrix(amb, [[x]], (0,), (x.degree(),)))
    # x is regular on M iff its kernel {v : x v in im P} lies in im P
    rel_igb = submodule_igb(ring, module.row_twists, pres.columns())
    regular = all(
        rel_igb.contains(column_to_vec(col))
        for col in kernel_modulo(ring, module.row_twists, x_times.columns(), pres.columns())[0]
    )
    quot = GradedModule(ring, PolyMatrix.block(amb, [[pres, x_times]]))
    return quot, regular


def submodule_and_quotient(module: GradedModule, gens):
    """Submodule generated by the given elements and the quotient by it.

    gens: list of homogeneous column vectors over the ring.  Returns
    (S, M/S, inclusion matrix); the three modules form a short exact
    sequence.
    """
    ring = module.ring
    amb = ring.ambient
    gens = [[ring.nf(p) for p in col] for col in gens]
    gens = [col for col in gens if any(not p.is_zero() for p in col)]
    gen_twists = [column_degree(ring, module.row_twists, col) for col in gens]
    pres = module.presentation
    rel_cols, _ = kernel_modulo(ring, module.row_twists, gens, pres.columns())
    sub = GradedModule.from_columns(ring, gen_twists, rel_cols)
    q_cols = pres.columns() + gens
    q_twists = list(pres.col_twists) + gen_twists
    quot = GradedModule.from_columns(ring, module.row_twists, q_cols, q_twists)
    incl = PolyMatrix.from_columns(amb, module.row_twists, gens, gen_twists)
    return sub, quot, incl


def restrict_to_ring(module: GradedModule, target) -> GradedModule:
    """View a module over a quotient ring as a module over a larger quotient.

    Valid whenever the target's defining ideal sits inside the annihilator;
    here: target relations are contained in the source ring's ideal.
    """
    src = module.ring
    amb_t = target.ambient
    if src.ambient != amb_t:
        raise ValueError("restriction requires the same ambient ring")
    ident = PolyMatrix.identity(amb_t, module.row_twists)
    blocks = [module.presentation]  # then h * I for each relation h not in the target's ideal
    for h in map(target.nf, src.gb):
        if not h.is_zero():
            blocks.append(ident.kron(PolyMatrix(amb_t, [[h]], (0,), (h.degree(),))))
    return GradedModule(target, PolyMatrix.block(amb_t, [blocks]))


def subquotient_presentation(ring, twists, ker_cols, im_cols) -> GradedModule:
    """Presentation of (span of ker_cols) / (span of im_cols) inside a free module."""
    ker_cols = [col for col in ker_cols if any(not p.is_zero() for p in col)]
    gen_twists = [column_degree(ring, twists, col) for col in ker_cols]
    rel_cols, _ = kernel_modulo(ring, twists, ker_cols, im_cols)
    return GradedModule.from_columns(ring, gen_twists, rel_cols)
