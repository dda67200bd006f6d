"""Correctness gate: independent references for every benchmark job.

* `betti` of k over an artinian complete intersection of n forms of degree
  >= 2 in n variables: the Poincare series is (1+t)^n / (1-t^2)^n (Tate), so
  b_i = C(n+i-1, i).
* `variety`, `restrict` and `realize` ideals must agree with the membership
  oracle at benchmark-drawn points: uniform directions, points on the
  reported (or requested) zero set and points on the variety the module is
  known to have.  A `realize` ideal must also equal the requested cone up
  to radical.  Uniform directions catch an over-reported variety, and an
  under-reported one whenever the true variety is all of k^c (k, R/(l) on
  three variables, the two-generator modules).  For R/(l_1..l_{n-1}), whose
  forms cut out one point v, the true variety is the hyperplane
  sum a_i f_i(v) = 0 (see gen.point_module_hyperplane); points are drawn on
  it, so a report that drops it disagrees with the oracle.  For p <= 5
  `variety` and `restrict` ideals are tested on all of P^(c-1)(F_p).  Not
  covered: a realized module whose true variety has, besides the requested
  cone, a component of lower dimension than k^c (testing all 31 points of
  P^2(F_5) on a realized module takes up to 20 s, longer than its job).
* `member` answers are recomputed by a second route: for module2 = k the
  Betti numbers over the hypersurface section come from the package's
  Groebner-engine resolution instead of the homotopy complex the oracle
  uses; for module2 = N the pair variety is V(M) meet V(N), so the answer
  is the conjunction of the two single-module answers.

The reported ideals are parsed and evaluated here, not by the package.  The
first report of each distinct job is checked against its reference and then
stored; every later report of the same job must equal it byte for byte,
apart from `wall_time_ms`.
"""

from __future__ import annotations

import json
import math
import re

from gen import evaluate, projective_points

SCAN_PRIME = 5  # up to this p, variety ideals are tested on all of P^(c-1)(F_p)

_WALL = re.compile(r',\n  "wall_time_ms": -?\d+(?=\n\}\n?$)')


def strip_wall_time(stdout: str) -> str:
    """The report text without its one volatile field."""
    return _WALL.sub("", stdout)


def parse_poly(text, names, p):
    """Parse the package's rendered form `3*chi1^2*chi2 + chi3` into
    {exponent tuple: coefficient}."""
    index = {n: i for i, n in enumerate(names)}
    out = {}
    for term in text.replace(" ", "").replace("-", "+-").split("+"):
        if not term:
            continue
        coeff = 1
        expo = [0] * len(names)
        for factor in term.split("*"):
            if factor.lstrip("-").isdigit():
                coeff *= int(factor)
                continue
            sign = -1 if factor.startswith("-") else 1
            coeff *= sign
            base, _, power = factor.lstrip("-").partition("^")
            expo[index[base]] += int(power) if power else 1
        key = tuple(expo)
        out[key] = (out.get(key, 0) + coeff) % p
    return {m: c for m, c in out.items() if c}


def vanishes(polys, point, p):
    return all(evaluate(f, point, p) == 0 for f in polys)


def kernel_point(rng, linear_polys, c, p):
    """A random point of the zero set of linear forms (None if it is the
    origin only)."""
    rows = []
    for f in linear_polys:
        row = [0] * c
        for m, coeff in f.items():
            row[m.index(1)] = coeff
        rows.append(row)
    # row echelon form mod p
    pivots = []
    r = 0
    for col in range(c):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = [col for col in range(c) if col not in pivots]
    if not free:
        return None
    while True:
        point = [0] * c
        for col in free:
            point[col] = rng.randrange(p)
        for i, col in enumerate(pivots):
            point[col] = -sum(rows[i][f] * point[f] for f in free) % p
        if any(point):
            return tuple(point)


def points_on(rng, polys, c, p, tries=4):
    """A few random points of the zero set of the given forms.

    Linear systems are solved exactly; otherwise (small p only) random lines
    through the last coordinate axis are scanned for common zeros.
    """
    if not polys:
        return []
    if all(sum(m) == 1 for f in polys for m in f):
        pts = [kernel_point(rng, polys, c, p) for _ in range(tries)]
        return [q for q in pts if q is not None]
    if p > 200:
        return []
    out = []
    for _ in range(tries):
        head = [rng.randrange(p) for _ in range(c - 1)]
        for last in range(p):
            q = tuple(head + [last])
            if any(q) and vanishes(polys, q, p):
                out.append(q)
                break
    return out


def betti_closed_form(n, length):
    return [math.comb(n + i - 1, i) for i in range(length + 1)]


class Verdict:
    def __init__(self, ok, reason=""):
        self.ok = ok
        self.reason = reason


def check_betti(job, code, stdout, stderr):
    """The closed form."""
    if code != 0:
        return Verdict(False, f"exit {code}: {stderr.strip()[:200]}")
    got = json.loads(stdout)["results"]["betti"]
    want = betti_closed_form(job.ring.n, len(got) - 1)
    if got != want:
        return Verdict(False, f"betti {got} != closed form {want}")
    return Verdict(True)


def oracle_points(job, rng, report):
    """The reported variety ideal and the points of k^c to test it at:
    the job's uniform directions, points on the reported zero set and, for
    `realize`, points on the requested cone."""
    ring = job.ring
    p, c = ring.p, ring.c
    chi = [f"chi{i + 1}" for i in range(c)]
    res = report["results"]
    key = "ideal" if job.kind == "variety" else "variety_ideal"
    ideal = [parse_poly(g, chi, p) for g in res[key]]
    pts = list(job.meta["points"]) + points_on(rng, ideal, c, p)
    if job.kind == "realize":
        cone = [parse_poly(g, chi, p) for g in job.meta["cone"]]
        pts += points_on(rng, cone, c, p)
    if "hyperplane" in job.meta:
        pts += points_on(rng, [_linear(job.meta["hyperplane"])], c, p)
    if p <= SCAN_PRIME and job.kind != "realize":
        pts += projective_points(c, p)
    return ideal, sorted(set(pts))


def _linear(coeffs):
    """The linear form sum coeffs[i] * x_i as a polynomial dict."""
    n = len(coeffs)
    return {tuple(int(i == j) for j in range(n)): a for i, a in enumerate(coeffs) if a}


def restricted_points(job, rng, report):
    """(s, a = s*A) pairs for checking a restricted ideal in k^r."""
    ring = job.ring
    p, c = ring.p, ring.c
    rows = job.meta["subspace"]
    r = len(rows)
    s_names = [f"s{i + 1}" for i in range(r)]
    restricted = [parse_poly(g, s_names, p) for g in report["results"]["restricted_ideal"]]
    ss = [tuple(rng.randrange(p) for _ in range(r)) for _ in range(3)]
    ss += points_on(rng, restricted, r, p)
    w = job.meta.get("hyperplane")
    if w is not None:  # s*A lies on the hyperplane w
        form = _linear([sum(row[i] * w[i] for i in range(c)) % p for row in rows])
        if form:
            ss += points_on(rng, [form], r, p)
    pairs = []
    for s in sorted(set(ss)):
        if not any(s):
            continue
        a = tuple(sum(s[j] * rows[j][i] for j in range(r)) % p for i in range(c))
        pairs.append((s, a))
    return restricted, pairs
