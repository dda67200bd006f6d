"""Seeded inputs for the benchmark workloads.

Everything here is pure Python and independent of the package under test:
rings, modules, cones and directions are drawn from `random.Random` streams
derived from the run seed, so the same seed always gives byte-identical job
lists.  Each workload is generated in rounds of a fixed composition (the same
job kinds and ring shapes in every round, only the coefficients and the
order change), which keeps the amount of work in a run nearly independent of
the seed.

Polynomials are dicts {exponent tuple: coefficient mod p}.
"""

from __future__ import annotations

import itertools
import random

VARS = ("x", "y", "z", "w")
# The largest prime in the workloads.  Every mod-p product the package forms
# stays far below 2^63 for it.  The package gives wrong answers for primes
# near 2^31 and above (int64 overflow in its matrix products), so those are
# not benchmarked: a workload must be one on which no job fails.
LARGE_PRIME = 32003


def stream(*parts) -> random.Random:
    """An RNG whose state depends only on the given labels."""
    return random.Random("/".join(str(x) for x in parts))


# ---------------------------------------------------------------------------
# tiny polynomial arithmetic (just enough to build and render forms)


def poly_add(f, g, p):
    out = dict(f)
    for m, c in g.items():
        v = (out.get(m, 0) + c) % p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def poly_mul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = (out.get(m, 0) + c1 * c2) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def monomial(expo):
    return {tuple(expo): 1}


def var(n, i):
    return monomial([1 if j == i else 0 for j in range(n)])


def substitute(f, i, image, n, p):
    """f with variable i replaced by the polynomial `image`."""
    out = {}
    for m, c in f.items():
        rest = {tuple(0 if j == i else e for j, e in enumerate(m)): c}
        for _ in range(m[i]):
            rest = poly_mul(rest, image, p)
        out = poly_add(out, rest, p)
    return out


def render(f, names) -> str:
    """Deterministic text in the job-file syntax, e.g. `3*x^2*y + z^2`."""
    if not f:
        return "0"
    terms = []
    for m in sorted(f, reverse=True):
        c = f[m]
        factors = [
            n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e
        ]
        mono = "*".join(factors)
        if not mono:
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        else:
            terms.append(f"{c}*{mono}")
    return " + ".join(terms)


def nonzero(rng, p):
    return rng.randrange(1, p)


def linear_form(rng, n, p):
    """A linear form with every coefficient nonzero (generic enough that
    costs do not depend on which coefficients were drawn)."""
    f = {}
    for i in range(n):
        f = poly_add(f, {next(iter(var(n, i))): nonzero(rng, p)}, p)
    return f


def regular_sequence(rng, n, c, d, p, monomial_only):
    """c forms of degree d in n variables that form a regular sequence.

    Non-monomial sequences are triangular: f_i = x_i^d + a_i m_i with m_i
    in later variables only (x_{i+1}^{d-1} x_n, or x_n^d when x_n is the only
    later variable).  Under lex their leading terms x_1^d..x_c^d are pairwise
    coprime, hence a complete intersection; a shear x_n -> x_n + e x_1 (an
    automorphism) then makes every form non-monomial.  Regularity holds by
    construction, so no job is rejected at parse time.  The shape of m_i is
    fixed and only the coefficients are drawn, so every seed gives a ring of
    the same kind and about the same cost.
    """
    forms = []
    for i in range(c):
        f = monomial([d if j == i else 0 for j in range(n)])
        if not monomial_only and i + 1 < n:
            m = [0] * n
            if i + 1 < n - 1:
                m[i + 1], m[n - 1] = d - 1, 1
            else:
                m[n - 1] = d
            f = poly_add(f, {tuple(m): nonzero(rng, p)}, p)
        forms.append(f)
    if not monomial_only:
        shear = poly_add(var(n, n - 1), {next(iter(var(n, 0))): nonzero(rng, p)}, p)
        forms = [substitute(f, n - 1, shear, n, p) for f in forms]
    return forms


# ---------------------------------------------------------------------------
# job files


class Ring:
    def __init__(self, p, n, forms):
        self.p = p
        self.n = n
        self.c = len(forms)
        self.names = VARS[:n]
        self.relations = [render(f, self.names) for f in forms]

    def header(self):
        return (
            f"field {self.p}\nring {' '.join(self.names)}\n"
            f"relations {' ; '.join(self.relations)}\n"
        )


def module_decl(name, kind, rng, ring):
    """A module section and the forms it is the quotient by (None for k and
    for presentations): k, R/(l), R/(l1,l2), R/(q) or a two-generator
    presentation coker[[l, 0, x], [0, l, y]].  Linear forms have every
    coefficient nonzero and the other shapes are fixed, so a module kind
    costs about the same for every seed."""
    p, n, names = ring.p, ring.n, ring.names
    if kind == "k":
        return f"module {name}\nresidue\n", None
    if kind == "cyclic1":
        forms = [linear_form(rng, n, p)]
    elif kind == "cyclic2":
        forms = [linear_form(rng, n, p) for _ in range(2)]
    elif kind == "quadric":  # x_1 x_2 + a x_n^2: fixed shape, so fixed cost
        q = poly_add(
            poly_mul(var(n, 0), var(n, 1), p),
            {tuple(2 if t == n - 1 else 0 for t in range(n)): nonzero(rng, p)},
            p,
        )
        forms = [q]
    elif kind == "twogen":
        l1 = render(linear_form(rng, n, p), names)
        x, y = names[:2]
        return f"module {name}\ntwists 0 0\ncolumns {l1}, 0 ; 0, {l1} ; {x}, {y}\n", None
    else:
        raise ValueError(kind)
    cols = " ; ".join(render(f, names) for f in forms)
    return f"module {name}\ntwists 0\ncolumns {cols}\n", forms


def evaluate(f, point, p):
    total = 0
    for m, c in f.items():
        v = c
        for e, a in zip(m, point):
            v = v * pow(a, e, p) % p
        total = (total + v) % p
    return total


def common_zero(linear_forms, n, p):
    """A nonzero common zero of n - 1 linear forms in n <= 3 variables
    (the cross product for n = 3), or None if they are dependent."""
    rows = [[f.get(next(iter(var(n, i))), 0) for i in range(n)] for f in linear_forms]
    if n == 2:
        (a, b), = rows
        v = (b, -a % p)
    else:
        (a1, a2, a3), (b1, b2, b3) = rows
        v = ((a2 * b3 - a3 * b2) % p, (a3 * b1 - a1 * b3) % p, (a1 * b2 - a2 * b1) % p)
    return v if any(v) else None


def point_module_hyperplane(ring_forms, linear_forms, n, p):
    """Coefficients w of the support variety {a : sum a_i w_i = 0} of
    R/(l_1..l_{n-1}), where the l_j cut out one point v of P^(n-1) and
    w_i = f_i(v); None if the forms do not cut out a point.

    With t a linear form outside (l_1..l_{n-1}), M = Q/(l_1..l_{n-1}, t^2).
    If f_a(v) != 0, the l_j are a regular sequence on Q/(f_a) with quotient
    M, so M has finite projective dimension over Q/(f_a); if f_a(v) = 0,
    then f_a lies in m (l_1..l_{n-1}, t^2), which makes it infinite.
    """
    v = common_zero(linear_forms, n, p)
    if v is None:
        return None
    return [evaluate(f, v, p) for f in ring_forms]


def chi_names(c):
    return [f"chi{i + 1}" for i in range(c)]


def distinct_forms(rng, count, c, p):
    """`count` linear forms in c variables, no two of them proportional."""
    forms = []
    while len(forms) < count:
        f = linear_form(rng, c, p)
        if all(len({g[m] * pow(f[m], p - 2, p) % p for m in f}) > 1 for g in forms):
            forms.append(f)
    return forms


def cone(rng, c, p, degree):
    """Generators of a seeded cone in k^c of the given chi-degree: a line
    (c - 1 linear forms) or the union of two distinct hyperplanes.  The
    forms are never proportional, so every seed gives a cone of the same
    shape (at p=5 one draw in sixteen would otherwise repeat a form)."""
    names = chi_names(c)
    if degree == 1:
        return [render(f, names) for f in distinct_forms(rng, c - 1, c, p)]
    a, b = distinct_forms(rng, 2, c, p)
    return [render(poly_mul(a, b, p), names)]


def direction(rng, c, p):
    """A direction drawn uniformly from k^c minus the origin."""
    while True:
        a = tuple(rng.randrange(p) for _ in range(c))
        if any(a):
            return a


class Job:
    """One CLI invocation: a job file, the subcommand and its flags."""

    def __init__(self, kind, ring, text, args, meta=None):
        self.kind = kind
        self.ring = ring
        self.text = text
        self.args = list(args)
        self.meta = dict(meta or {})

    def key(self):
        return self.text + "\0" + "\0".join(self.args)


def job_text(ring, decls, command, params):
    body = ring.header() + "".join(decls)
    body += f"command {command}\n" + "".join(f"{k} {v}\n" for k, v in params)
    return body


# ---------------------------------------------------------------------------
# cli-variety: annihilator-route CLI jobs


# (command, variables, monomial relations?, module kind or cone degree, p).
# One round runs each slot once, in a seeded order.  Primes are fixed per
# slot, not drawn, so every round has the same mix of work.  Per round, in
# rising cost: seven jobs under 0.3 s (2-variable rings, `betti`, lines),
# five near 0.3 s (monomial 3-variable R/(l1,l2)), four near 0.5 s
# (non-monomial 3-variable R/(l1,l2)), two quadric cones (2 s) and k over a
# non-monomial 3-variable ring (6 s).  Over the two rounds of a run that
# puts the median inside the 0.3 s group and the 90th percentile (the
# 35.1th of 38 in `statistics.quantiles`) on the third of the four quadric
# cones, not on one job alone or on a boundary between groups.  R/(l) over
# the non-monomial ring is not a heavy job: it takes 5-6 s for most forms
# but 0.5 s for a few, which moved the 90th percentile by a third.
VARIETY_SLOTS = (
    ("variety", 2, True, "k", 5),
    ("variety", 2, False, "twogen", LARGE_PRIME),
    ("restrict", 2, False, "cyclic1", 101),
    ("betti", 3, False, "k", LARGE_PRIME),
    ("betti", 3, True, "k", LARGE_PRIME),
    ("realize", 3, True, 1, 101),
    ("realize", 3, False, 1, 5),
    ("variety", 3, True, "cyclic2", LARGE_PRIME),
    ("variety", 3, True, "cyclic2", 101),
    ("variety", 3, True, "cyclic2", 101),
    ("restrict", 3, True, "cyclic2", 101),
    ("restrict", 3, True, "cyclic2", 101),
    ("variety", 3, False, "cyclic2", 101),
    ("variety", 3, False, "cyclic2", 101),
    ("restrict", 3, False, "cyclic2", 101),
    ("restrict", 3, False, "cyclic2", 101),
    ("variety", 3, False, "k", 101),
    ("realize", 3, True, 2, 5),
    ("realize", 3, True, 2, 5),
)


def subspace(rng, c, p):
    """A full-rank (c-1) x c matrix: coordinate rows with one seeded entry."""
    rows = []
    for j in range(c - 1):
        row = [0] * c
        row[j] = 1
        row[c - 1] = rng.randrange(p)
        rows.append(row)
    text = ";".join(",".join(str(v) for v in row) for row in rows)
    return rows, f"{c - 1}x{c}:{text}"


def variety_job(rng, slot):
    command, n, mono, what, p = slot
    forms = regular_sequence(rng, n, n, 2, p, mono)
    ring = Ring(p, n, forms)
    meta = {}
    if command == "realize":
        gens = cone(rng, ring.c, p, what)
        meta["cone"] = gens
        text = job_text(ring, [module_decl("k", "k", rng, ring)[0]], "realize", [])
        args = ["--cone", ";".join(gens)]
    else:
        decl, lin = module_decl("M", what, rng, ring)
        text = job_text(ring, [decl], command, [("module", "M")])
        if what in ("cyclic1", "cyclic2") and len(lin) == n - 1:
            w = point_module_hyperplane(forms, lin, n, p)
            if w is not None:
                meta["hyperplane"] = w
        args = []
        if command == "betti":
            args = ["--length", "5"]
        if command == "restrict":
            rows, spec = subspace(rng, ring.c, p)
            meta["subspace"] = rows
            args = ["--subspace", spec]
    meta["points"] = [direction(rng, ring.c, p) for _ in range(3)]
    return Job(command, ring, text, [command] + args, meta)


def variety_round(seed, r):
    rng = stream("cli-variety", seed, r)
    jobs = [variety_job(rng, slot) for slot in VARIETY_SLOTS]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli-member: membership-oracle CLI jobs

# (variables, codimension, form degree, monomial?, module kind, module2 kind
# or None for k).  All five pairings run on most ring shapes; a few are left
# out where one job alone would take seconds.  Per round the slowest jobs are
# one 0.7 s two-generator module and two Hom-route pairs at 0.3-0.5 s, then a
# group at 0.15-0.3 s, which keeps the 90th percentile inside that group.
_PAIRS = (
    ("cyclic1", None),
    ("quadric", None),
    ("twogen", None),
    ("cyclic1", "quadric"),
    ("quadric", "cyclic1"),
)
MEMBER_SLOTS = tuple(
    ring + pair
    for ring in (
        (3, 2, 2, True),
        (3, 2, 2, False),
        (3, 3, 2, True),
        (4, 2, 2, True),
        (4, 3, 2, True),
        (3, 2, 3, False),
        (4, 2, 3, True),
    )
    for pair in _PAIRS
) + (
    (3, 3, 3, True, "cyclic1", None),
    (3, 3, 3, True, "quadric", None),
    (3, 3, 3, True, "twogen", None),
    (3, 3, 3, True, "quadric", "cyclic1"),
    (4, 2, 2, False, "cyclic1", None),
    (4, 2, 2, False, "twogen", None),
    (4, 2, 2, False, "quadric", "cyclic1"),
)
MEMBER_REPEAT_SHARE = 0.25


def member_round(seed, r, history):
    """One round of `member` jobs; a seeded quarter repeat earlier jobs
    verbatim (drawn from `history`, which the caller keeps across rounds)."""
    rng = stream("cli-member", seed, r)
    cold = []
    for n, c, d, mono, kind, kind2 in MEMBER_SLOTS:
        p = 101
        ring = Ring(p, n, regular_sequence(rng, n, c, d, p, mono))
        decls = [module_decl("M", kind, rng, ring)[0]]
        params = [("module", "M")]
        if kind2:
            decls.append(module_decl("N", kind2, rng, ring)[0])
            params.append(("module2", "N"))
        a = direction(rng, c, p)
        text = job_text(ring, decls, "member", params)
        args = ["member", "--point", ",".join(map(str, a))]
        cold.append(Job("member", ring, text, args, {"point": a, "module2": "N" if kind2 else None}))
    rng.shuffle(cold)
    repeats = round(len(cold) * MEMBER_REPEAT_SHARE / (1 - MEMBER_REPEAT_SHARE))
    jobs = []
    for job in cold:
        jobs.append(job)
        history.append(job)
    # interleave the repeats: each one copies a job that already ran
    for _ in range(repeats):
        pos = rng.randrange(1, len(jobs) + 1)
        jobs.insert(pos, rng.choice(history[: len(history) - len(cold)] + jobs[:pos]))
    return jobs


# ---------------------------------------------------------------------------
# crosscheck: both oracles in one process, over the acceptance rings


def point_ideal(v, p):
    """Linear forms spanning the ideal of the point v of P^(n-1)."""
    n = len(v)
    i = next(j for j in range(n) if v[j])
    inv = pow(v[i], p - 2, p)
    forms = []
    for j in range(n):
        if j != i:
            f = poly_add(var(n, j), {next(iter(var(n, i))): -v[j] * inv % p}, p)
            forms.append(render(f, VARS[:n]))
    return forms


def projective_points(n, p):
    """Points of P^(n-1)(F_p), first nonzero coordinate 1."""
    out = []
    for v in itertools.product(range(p), repeat=n):
        lead = next((x for x in v if x), 0)
        if lead == 1:
            out.append(v)
    return out


# Seeded R/(l1, l2) point modules per 3-variable ring: 0.15-0.35 s each on
# the acceptance rings, 0.35-0.7 s on the seeded non-monomial ring.  With
# them a round has 59 jobs, so the 90th percentile (`statistics.quantiles`
# puts it at the 54th of 59) is the sixth slowest job: K_quadric over
# 3var_p2 or cone(origin) over the seeded ring, whichever is faster (both
# about 2 s).  With 62 jobs it fell between that job and cone(chi1) over
# the seeded ring (1.5 s), and moved with the order of the two.
CROSS_PLANES = {"3var_p2": 7, "3var_p3": 7, "nonmono_p3": 10}


def _planes(rng, label, p):
    pts = projective_points(3, p)
    rng.shuffle(pts)
    return [point_ideal(v, p) for v in pts[: CROSS_PLANES[label]]]


def crosscheck_round(seed, r):
    """Ring descriptions and seeded cyclic modules for one crosscheck round.

    The acceptance rings and their catalog modules are fixed by the package;
    the seed adds a non-monomial 3-variable quadric ring at p=3, a cyclic
    module R/(l) on the acceptance rings and, on every 3-variable ring,
    cyclic modules R/(l1, l2) for seeded points of the projective plane
    (their varieties are hyperplanes, so the two oracles are compared on a
    proper subvariety of every ring).  Without these, 24 of 36 jobs take
    10-150 ms and the median job falls among them, where it moves by a
    quarter from run to run.  With them, about as many jobs take longer
    than the point modules on the acceptance rings as take less, so the
    median falls inside a band of some thirty jobs of 0.15-0.7 s.

    Left out, so that one round stays near 40 s and costs about the same
    for every seed: `syz1(k)` on the 3-variable rings (its variety is that
    of k, which is run), R/(l) on 3var_p3 (3-4 s, and its variety is all of
    k^3, as that of k), and on the seeded ring `K_quadric` (over 10 s
    there), the coordinate quotients R/(x), R/(y) (5 s each) and a seeded
    R/(l) (0.25 s or 5 s, depending on the drawn form).
    """
    rng = stream("crosscheck", seed, r)
    out = []
    for n, p in ((2, 3), (2, 5), (3, 2), (3, 3)):
        label = f"{n}var_p{p}"
        cyclic = []
        if label != "3var_p3":
            cyclic.append([render(linear_form(rng, n, p), VARS[:n])])
        if n == 3:
            cyclic += _planes(rng, label, p)
        out.append({"label": label, "relations": None, "p": p, "n": n,
                    "cyclic": cyclic, "skip": ["syz1(k)"] if n == 3 else []})
    ring = Ring(3, 3, regular_sequence(rng, 3, 3, 2, 3, False))
    out.append({"label": "nonmono_p3", "relations": ring.relations, "p": 3, "n": 3,
                "cyclic": _planes(rng, "nonmono_p3", 3),
                "skip": ["syz1(k)", "K_quadric", "R/(x)", "R/(y)"]})
    # Fixed ring order, as in the acceptance check: the memo grows through a
    # round, and light jobs run after the 3-variable rings are slower, so a
    # seeded order would move the median from seed to seed.
    return out
