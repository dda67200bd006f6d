"""Graded multivariate polynomials over an exact field.

Monomials are exponent tuples; the global term order is weighted graded
reverse lexicographic, fixed per ring.  Polynomials store their terms as a
tuple of (monomial, coefficient) pairs sorted by descending order key, with
no zero coefficients and no duplicate monomials.
"""

from __future__ import annotations

from operator import add

from .field import PrimeField


class PolyRing:
    """Free polynomial ring descriptor: variables, weights, coefficient field."""

    def __init__(self, variables, field=None, weights=None):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.field = field if field is not None else PrimeField()
        self.weights = tuple(weights) if weights is not None else (1,) * len(self.variables)
        if len(self.weights) != len(self.variables):
            raise ValueError("weights/variables length mismatch")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        self.n = len(self.variables)
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        self.zero_mono = (0,) * self.n
        self._std_weights = all(w == 1 for w in self.weights)

    def wdeg(self, mono) -> int:
        if self._std_weights:
            return sum(mono)
        return sum(w * e for w, e in zip(self.weights, mono))

    def mono_key(self, mono):
        """Total-order key; larger key = larger monomial in grevlex."""
        return (self.wdeg(mono), tuple(-e for e in reversed(mono)))

    def var_mono(self, i: int):
        return tuple(1 if j == i else 0 for j in range(self.n))

    def var_poly(self, i: int) -> "Poly":
        return Poly(self, ((self.var_mono(i), self.field.one),))

    def const(self, c) -> "Poly":
        c = c % self.field.p if isinstance(c, int) else c
        if c == self.field.zero:
            return Poly(self, ())
        return Poly(self, ((self.zero_mono, c),))

    def zero(self) -> "Poly":
        return Poly(self, ())

    def one(self) -> "Poly":
        return self.const(self.field.one)

    def from_terms(self, pairs) -> "Poly":
        """Build a polynomial from unsorted (monomial, coefficient) pairs."""
        acc = {}
        f = self.field
        for mono, c in pairs:
            if c == f.zero:
                continue
            prev = acc.get(mono)
            acc[mono] = c if prev is None else f.add(prev, c)
        terms = tuple(
            (m, acc[m])
            for m in sorted(acc, key=self.mono_key, reverse=True)
            if acc[m] != f.zero
        )
        return Poly(self, terms)

    def monomials_of_degree(self, d: int):
        """All exponent tuples of weighted degree exactly d, descending order."""
        if self.n == 0:  # only the empty monomial, of degree 0
            return [()] if d == 0 else []
        out = []

        def rec(i, remaining, prefix):
            if i == self.n - 1:
                w = self.weights[i]
                if remaining % w == 0:
                    out.append(tuple(prefix + [remaining // w]))
                return
            w = self.weights[i]
            for e in range(remaining // w, -1, -1):
                rec(i + 1, remaining - e * w, prefix + [e])

        if d >= 0:
            rec(0, d, [])
        out.sort(key=self.mono_key, reverse=True)
        return out

    def extend(self, extra_variables):
        """Same field/weights with extra weight-1 variables appended."""
        return PolyRing(
            self.variables + tuple(extra_variables),
            field=self.field,
            weights=self.weights + (1,) * len(tuple(extra_variables)),
        )

    def with_field(self, field):
        return PolyRing(self.variables, field=field, weights=self.weights)

    def key(self) -> tuple:
        return ("ring", self.variables, self.weights, self.field.key())

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PolyRing({self.variables}, p={getattr(self.field, 'p', '?')})"


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class Poly:
    """Immutable polynomial bound to a PolyRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms):
        self.ring = ring
        self.terms = terms  # tuple of (mono, coeff), sorted descending, normalized

    def is_zero(self) -> bool:
        return not self.terms

    def lm(self):
        return self.terms[0][0]

    def lc(self):
        return self.terms[0][1]

    def degree(self):
        """Weighted degree of the leading term; None for the zero polynomial."""
        if not self.terms:
            return None
        return self.ring.wdeg(self.terms[0][0])

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = self.ring.wdeg(self.terms[0][0])
        return all(self.ring.wdeg(m) == d for m, _ in self.terms)

    def constant_coeff(self):
        for m, c in self.terms:
            if m == self.ring.zero_mono:
                return c
        return self.ring.field.zero

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return Poly(self.ring, other.terms)
        return self.ring.from_terms(self.terms + other.terms)

    def __sub__(self, other):
        f = self.ring.field
        return self.ring.from_terms(
            self.terms + tuple((m, f.neg(c)) for m, c in other.terms)
        )

    def __neg__(self):
        f = self.ring.field
        return Poly(self.ring, tuple((m, f.neg(c)) for m, c in self.terms))

    def __mul__(self, other):
        return sum_of_products(self.ring, ((self, other),))

    def scale(self, c):
        f = self.ring.field
        if c == f.zero:
            return Poly(self.ring, ())
        if not self.terms:
            return self
        return Poly(self.ring, tuple((m, f.mul(cc, c)) for m, cc in self.terms))

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.lc()))

    def evaluate(self, point, field=None):
        """Evaluate at a tuple of elements of field (default: the ring's
        field), into which the coefficients are taken."""
        f = self.ring.field if field is None else field
        embed = field is not None and field != self.ring.field
        total = f.zero
        for m, c in self.terms:
            v = f.from_int(c) if embed else c
            for e, a in zip(m, point):
                for _ in range(e):
                    v = f.mul(v, a)
            total = f.add(total, v)
        return total

    def map_coefficients(self, func, new_ring):
        return new_ring.from_terms((m, func(c)) for m, c in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.ring.key() == self.ring.key()
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring.key(), self.terms))

    def __repr__(self):
        return f"Poly({render_poly(self)})"


def sum_of_products(ring: PolyRing, pairs, reduce=None) -> Poly:
    """sum a * b over the (a, b) pairs, collected in one dict and sorted
    once, then passed through reduce if given.  Pairs with a zero factor
    are skipped; when no pair contributes a term the sum is the zero
    polynomial, neither sorted nor reduced."""
    field = ring.field
    acc = {}
    for a, b in pairs:
        if not (a.terms and b.terms):
            continue
        for m1, c1 in a.terms:
            for m2, c2 in b.terms:
                m = mono_mul(m1, m2)
                c = field.mul(c1, c2)
                prev = acc.get(m)
                acc[m] = c if prev is None else field.add(prev, c)
    if not acc:
        return Poly(ring, ())
    out = ring.from_terms(acc.items())
    return reduce(out) if reduce else out


def render_mono(ring: PolyRing, mono) -> str:
    parts = []
    for name, e in zip(ring.variables, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render_poly(poly: Poly) -> str:
    """Canonical text form: coefficients as residues, terms in order."""
    if not poly.terms:
        return "0"
    ring = poly.ring
    parts = []
    for m, c in poly.terms:
        ms = render_mono(ring, m)
        cs = ring.field.to_str(c)
        if not ms:
            parts.append(cs)
        elif c == ring.field.one:
            parts.append(ms)
        else:
            parts.append(f"{cs}*{ms}")
    return " + ".join(parts)


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.message = message
        self.pos = pos  # 0-based column within the parsed text


def parse_poly(ring: PolyRing, text: str) -> Poly:
    """Parse `3*x^2*y + z^3` style text; integer coefficients reduce mod p.

    Raises PolyParseError with the offending column on bad input.
    """
    f = ring.field
    pairs = []
    i, n = 0, len(text)

    def skip_ws(j):
        while j < n and text[j].isspace():
            j += 1
        return j

    i = skip_ws(i)
    if i == n:
        raise PolyParseError("empty polynomial", i)
    sign = 1
    first = True
    while i < n:
        i = skip_ws(i)
        if not first:
            if i >= n:
                break
            if text[i] == "+":
                sign = 1
                i = skip_ws(i + 1)
            elif text[i] == "-":
                sign = -1
                i = skip_ws(i + 1)
            else:
                raise PolyParseError(f"expected '+' or '-', found {text[i]!r}", i)
        else:
            if i < n and text[i] == "-":
                sign = -1
                i = skip_ws(i + 1)
            first = False
        # one term: factors separated by '*'
        coeff = None
        expo = [0] * ring.n
        saw_factor = False
        while True:
            i = skip_ws(i)
            if i < n and text[i].isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                val = int(text[i:j])
                coeff = val if coeff is None else coeff * val
                i = j
                saw_factor = True
            elif i < n and (text[i].isalpha() or text[i] == "_"):
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                name = text[i:j]
                if name not in ring._var_index:
                    raise PolyParseError(f"unknown variable {name!r}", i)
                vi = ring._var_index[name]
                i = skip_ws(j)
                e = 1
                if i < n and text[i] == "^":
                    i = skip_ws(i + 1)
                    if i >= n or not text[i].isdigit():
                        raise PolyParseError("expected exponent after '^'", i)
                    j = i
                    while j < n and text[j].isdigit():
                        j += 1
                    e = int(text[i:j])
                    i = j
                expo[vi] += e
                saw_factor = True
            else:
                raise PolyParseError("expected coefficient or variable", i)
            i = skip_ws(i)
            if i < n and text[i] == "*":
                i += 1
                continue
            break
        if not saw_factor:
            raise PolyParseError("empty term", i)
        c = f.from_int(sign * (1 if coeff is None else coeff))
        pairs.append((tuple(expo), c))
    return ring.from_terms(pairs)
