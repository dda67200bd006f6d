"""Realize the cones chi1^d + 2 chi1 chi2^(d-1) + chi2^d, then ask `variety`
for the variety of each realized module.

For each degree d, `cisupport realize` builds a module over k[x,y]/(x^2, y^2)
whose variety is the cone, and its presentation goes into a job file of its
own.  `cisupport variety` on that file must give the cone up to radical
(exit 0), or flag its answer unstable (exit 3): a wrong ideal with exit 0
is a failure.  Over F_101, F_5 and F_3 every d = 1..16 gives the cone with
exit 0, since the degree ladder starts at the degree of the rank locus'
form; over F_2 the cones of d = 12 and 16, (chi1^3 + chi2^3)^4 and
(chi1 + chi2)^16, come back flagged.
With --vars 3 the ring is k[x,y,z]/(x^2, y^2, z^2) and the cones are
chi1^d + 2 chi2^(d-1) chi3 + chi3^d (3 chi1 + chi2 + chi3 for d = 1); the
ladder starts at the largest degree of the locus' forms on its probe lines.
tests/test_cli.py runs d = 1..12 over F_5 and asserts exit 0, and CI runs
d = 1..16 over p = 101, 5, 3 and 2, and d = 1..4 with --vars 3 over
p = 101, 5 and 2, one line per degree, exit 1 on a failure:

    PYTHONPATH=src python tests/realize_cones.py --p 101 --degrees 1-16
    PYTHONPATH=src python tests/realize_cones.py --vars 3 --p 5 --degrees 1-4
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

from cisupport.cache import clear_memo
from cisupport.catalog import three_var_ring, two_var_ring
from cisupport.cli import main
from cisupport.groebner import Ideal, equal_up_to_radical
from cisupport.poly import parse_poly

RINGS = {
    2: (two_var_ring, "field {p}\nring x y\nrelations x^2 ; y^2\n"),
    3: (three_var_ring, "field {p}\nring x y z\nrelations x^2 ; y^2 ; z^2\n"),
}


def cone(d: int, n: int = 2) -> str:
    """The cone of degree d over the ring in n variables."""
    if n == 3:
        return f"chi1^{d} + 2*chi2^{d - 1}*chi3 + chi3^{d}" if d > 1 else "3*chi1 + chi2 + chi3"
    return f"chi1^{d} + 2*chi1*chi2^{d - 1} + chi2^{d}" if d > 1 else "3*chi1 + chi2"


def _cli(args):
    clear_memo()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, json.loads(out.getvalue()), err.getvalue()


def realized_cone_job(p: int, d: int, work: str, n: int = 2) -> str:
    """The path of a job file presenting the realized module of the cone of
    degree d over F_p, in n variables."""
    ring = RINGS[n][1].format(p=p)
    path = os.path.join(work, f"realize_{n}_{p}_{d}.job")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ring + "module k\nresidue\n")
    _, report, _ = _cli(["realize", "--input", path, "--cone", cone(d, n)])
    pres = report["results"]["presentation"]
    cols = " ; ".join(", ".join(row[j] for row in pres["entries"]) for j in range(pres["cols"]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            ring + "module M\n"
            f"twists {' '.join(map(str, pres['row_twists']))}\ncolumns {cols}\n"
            f"coltwists {' '.join(map(str, pres['col_twists']))}\n"
        )
    return path


def variety_of_realized_cone(p: int, d: int, work: str, n: int = 2):
    """(ok, one line of report) for the cone of degree d over F_p, in n
    variables."""
    code, report, err = _cli(["variety", "--input", realized_cone_job(p, d, work, n)])
    chi = RINGS[n][0](p).chi_ring()
    got = Ideal(chi, [parse_poly(chi, g) for g in report["results"]["ideal"]])
    right = equal_up_to_radical(got, Ideal(chi, [parse_poly(chi, cone(d, n))]))
    ok = (code == 0 and right and report["flags"]["stabilized"]) or (code == 3 and not report["flags"]["stabilized"])
    line = f"d={d}: exit {code}, ideal {report['results']['ideal']}, degree bound {report['results']['degree_bound']}"
    return ok, line + (f", {err.strip()}" if err.strip() else "")


def main_cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--degrees", default="1-9", help="a range lo-hi")
    ap.add_argument("--vars", type=int, choices=sorted(RINGS), default=2, help="k[x,y] or k[x,y,z] modulo the squares")
    args = ap.parse_args(argv)
    lo, _, hi = args.degrees.partition("-")
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        for d in range(int(lo), int(hi or lo) + 1):
            ok, line = variety_of_realized_cone(args.p, d, work, args.vars)
            failed += not ok
            print(("ok   " if ok else "FAIL ") + line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_cli())
