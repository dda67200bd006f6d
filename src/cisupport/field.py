"""Exact coefficient fields: prime fields F_p and small extensions F_{p^e}.

Prime-field elements are plain ints reduced into [0, p); extension elements
are tuples of ints of length e (coefficients of the residue class modulo a
fixed irreducible polynomial).  All arithmetic goes through a field object so
the polynomial layer can stay agnostic about the element representation.
Polynomials over F_p as coefficient lists, low first, are multiplied, divided
and powered by the _p* helpers, which ExtField and homology's rank locus share.
"""

from __future__ import annotations


def digits(code: int, base: int, count: int) -> list:
    """The count lowest base-`base` digits of code, least significant first."""
    out = []
    for _ in range(count):
        code, r = divmod(code, base)
        out.append(r)
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_p with elements represented as ints in [0, p)."""

    def __init__(self, p: int = 101):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        self.e = 1
        self.mult_tables = ((1,),)
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def from_int(self, n: int):
        return n % self.p

    def elements(self):
        return range(self.p)

    def to_str(self, a) -> str:
        return str(a)

    @property
    def size(self) -> int:
        return self.p

    def key(self) -> tuple:
        return ("Fp", self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PrimeField({self.p})"


def _ptrim(a) -> list:
    """A polynomial over F_p as a coefficient list, low first, without
    trailing zeros (the zero polynomial is the empty list)."""
    a = [int(x) for x in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p: int) -> list:
    """Product of two polynomials over F_p, as coefficient lists low first."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pdivmod(a, b, p: int):
    """Quotient and remainder of a by a nonzero b."""
    r, db = list(a), len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1 - db, -1, -1):
        c = q[k] = r[k + db] * inv % p
        if c:
            for j, y in enumerate(b):
                r[k + j] = (r[k + j] - c * y) % p
    return _ptrim(q), _ptrim(r[:db])


def _ppowmod(a, n: int, m, p: int) -> list:
    """a^n modulo m, by repeated squaring."""
    out, a = [1], _pdivmod(a, m, p)[1]
    while n:
        if n & 1:
            out = _pdivmod(_pmul(out, a, p), m, p)[1]
        a = _pdivmod(_pmul(a, a, p), m, p)[1]
        n >>= 1
    return out


def _find_irreducible(p: int, e: int):
    """Monic irreducible of degree e over F_p, coefficients low-to-high.

    For e in {2, 3} irreducibility is equivalent to having no roots.
    """
    if e == 1:
        return (0, 1)
    if e > 3:
        raise ValueError("extension degree > 3 not supported")
    for tail in range(p**e):
        coeffs = digits(tail, p, e) + [1]
        if all(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p for x in range(p)):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class ExtField:
    """F_{p^e}, used for points over extensions.  Without a modulus e <= 3
    and the first irreducible found is used; a given modulus (monic, of
    degree e, coefficients low-to-high) must be irreducible."""

    def __init__(self, p: int, e: int, modulus=None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if modulus is None and not 1 <= e <= 3:
            raise ValueError("extension degree must be 1, 2 or 3")
        self.p = p
        self.e = e
        self.modulus = _find_irreducible(p, e) if modulus is None else tuple(modulus)
        self.zero = tuple([0] * e)
        self.one = tuple([1] + [0] * (e - 1))
        powers = [tuple(int(k == i) for k in range(e)) for i in range(e)]  # t^i
        # row i: the matrix of multiplication by t^i, entry (k, j) at k * e + j
        self.mult_tables = tuple(tuple(self.mul(ti, tj)[k] for k in range(e) for tj in powers) for ti in powers)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def _residue(self, r):
        """The coefficient list r, of degree below e, as an element."""
        return tuple(r) + (0,) * (self.e - len(r))

    def mul(self, a, b):
        return self._residue(_pdivmod(_pmul(a, b, self.p), self.modulus, self.p)[1])

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.p**self.e - 2)

    def pow(self, a, n: int):
        return self._residue(_ppowmod(a, n, self.modulus, self.p))

    def from_int(self, n: int):
        return tuple([n % self.p] + [0] * (self.e - 1))

    def elements(self):
        for code in range(self.p**self.e):
            yield tuple(digits(code, self.p, self.e))

    def to_str(self, a) -> str:
        return "(" + ",".join(str(c) for c in a) + ")"

    @property
    def size(self) -> int:
        return self.p**self.e

    def key(self) -> tuple:
        return ("Fpe", self.p, self.e, self.modulus)

    def __eq__(self, other):
        return isinstance(other, ExtField) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"ExtField({self.p}, {self.e})"

