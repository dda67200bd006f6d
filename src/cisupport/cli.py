"""Command-line interface: deterministic JSON reports over job files.

Exit codes: 0 success; 2 parse/validation error; 3 a computation-level flag
(unstabilized variety) without --allow-unstable; 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .cache import cache_key, read_cache, write_cache
from .checksuite import run_check
from .cimodule import residue_module
from .groebner import Ideal
from .jobspec import COMMANDS, PARAMS, JobSpec, JobSpecError, parse_input, render
from .operators import chi_action_from_family, operator_family
from .poly import PolyParseError, parse_poly, render_poly
from .realize import ConeSpec, realize_cone
from .resolution import minimal_resolution
from .variety import (
    Subspace,
    dimension,
    membership,
    restrict_to_subspace,
    variety_of,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_UNSTABLE = 3


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="cisupport",
        description="Exact support-variety computations over graded complete intersections",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--input", help="job file (optional for check)")
    for name, spec in PARAMS.items():
        if spec.flag and spec.kind != "switch":
            ap.add_argument(f"--{name}", type=int if spec.kind == "int" else None)
    ap.add_argument("--cache-dir", dest="cache_dir")
    for name, spec in PARAMS.items():
        if spec.flag and spec.kind == "switch":
            ap.add_argument(f"--{name}", action="store_true")
    ap.add_argument("--json-out", dest="json_out")
    return ap


def _given_params(job: JobSpec, command: str, args) -> dict:
    """The parameters the command reads: those of the job file's command
    section, overridden by the flags.  A flag the command does not read is
    an error; a section written for another command only lends the
    parameters this one reads."""
    reads = COMMANDS[command]
    given = {}
    if job is not None and job.command is not None:
        given.update((k, v) for k, v in job.command.params.items() if k in reads)
    for name, spec in PARAMS.items():
        v = getattr(args, name.replace("-", "_"), None)
        if not spec.flag or v is None or v is False:
            continue
        if name not in reads:
            takes = ", ".join(f"--{n}" for n in reads if PARAMS[n].flag) or "no flags"
            raise JobSpecError(f"{command} does not read --{name} (it takes {takes})")
        given[name] = "" if spec.kind == "switch" else str(v)
    return given


def _check_cache_dir(path: str):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise JobSpecError(f"cache directory {path!r} is unusable: {exc.strerror}")
    if not os.access(path, os.W_OK | os.X_OK):
        raise JobSpecError(f"cache directory {path!r} is not writable")


def _read_int(params: dict, name: str, default):
    """params[name] read as its integer parameter, or default when absent."""
    return PARAMS[name].value(name, params[name]) if name in params else default


def _parse_point(ring, text: str):
    try:
        coords = tuple(int(t) % ring.field.p for t in text.split(","))
    except ValueError:
        raise JobSpecError(f"bad point {text!r}")
    if len(coords) != ring.c:
        raise JobSpecError(f"point needs {ring.c} coordinates")
    try:
        ring.check_direction(coords)
    except ValueError:
        raise JobSpecError(f"point {text!r} combines forms of different degrees")
    return coords


def _parse_subspace(ring, text: str) -> Subspace:
    body = text
    if ":" in text:
        shape, _, body = text.partition(":")
        try:
            r_s, c_s = shape.lower().split("x")
            r, c = int(r_s), int(c_s)
        except ValueError:
            raise JobSpecError(f"bad subspace shape {shape!r}")
    else:
        r = c = None
    rows = []
    for row_text in body.split(";"):
        try:
            rows.append([int(t) for t in row_text.split(",")])
        except ValueError:
            raise JobSpecError(f"bad subspace row {row_text!r}")
    if r is not None and (len(rows) != r or any(len(row) != c for row in rows)):
        raise JobSpecError("subspace entries do not match the declared shape")
    try:
        return Subspace(ring, rows)
    except ValueError as exc:
        raise JobSpecError(f"bad subspace {text!r}: {exc}")


def _ideal_report(ideal: Ideal):
    return [render_poly(g) for g in ideal.gens]


def _matrix_report(mat):
    return {
        "rows": mat.nrows,
        "cols": mat.ncols,
        "row_twists": list(mat.row_twists),
        "col_twists": list(mat.col_twists),
        "entries": mat.render(),
    }


def _stability_flags(stabilized: bool, reason: str) -> dict:
    """The report's stabilized flag, and the reason when it is false; a
    stable report carries no reason."""
    return {"stabilized": stabilized, "reason": reason} if not stabilized and reason else {"stabilized": stabilized}


def execute(job: JobSpec, command: str, params: dict) -> dict:
    """Build the (deterministic) result body for one command."""
    results = {}
    flags = {}
    if command == "check":
        p_small = job.p if job is not None else 3
        results["properties"] = run_check(p_small=p_small)
        results["passed"] = all(r["passed"] for r in results["properties"])
        unstable = [r["details"] for r in results["properties"] if r.get("stabilized") is False]
        if unstable:
            flags.update(_stability_flags(False, "; ".join(unstable)))
    else:
        ring = job.ci_ring()
        if command != "realize":
            name = params.get("module") or job.default_module()
            module = job.build_module(name, ring)
            results["module"] = name
        if command in ("resolve", "betti"):
            length = _read_int(params, "length", 5)
            res = minimal_resolution(ring, module, length)
            results["betti"] = res.betti
            results["betti_by_degree"] = [
                {str(d): c for d, c in sorted(bd.items())} for bd in res.betti_by_degree()
            ]
            results["minimal"] = True
            if command == "resolve":
                results["differentials"] = [
                    _matrix_report(res.differential(i)) for i in range(1, length + 1)
                ]
        elif command == "operators":
            window = _read_int(params, "window", 6)
            res = minimal_resolution(ring, module, window)
            fam = operator_family(ring, res)
            fam.verify_identity()
            fam.verify_chain_property()
            ext = chi_action_from_family(fam)
            ext.verify_commutativity()
            results["window"] = window
            results["operators"] = {
                f"t{i + 1}": {
                    str(n): _matrix_report(fam.t(i, n)) for n in range(2, window + 1)
                }
                for i in range(ring.c)
            }
            results["identity_verified"] = True
            results["commutes_on_ext"] = True
        elif command == "variety":
            v = variety_of(ring, module, _read_int(params, "degree-bound", None))
            results["ideal"] = _ideal_report(v.ideal)
            results["dimension"] = dimension(v)
            results["window_used"] = 2 * v.degree_bound + 2
            results["degree_bound"] = v.degree_bound
            flags.update(_stability_flags(v.stabilized, v.note))
        elif command == "member":
            if "point" not in params:
                raise JobSpecError("member needs a point")
            coords = _parse_point(ring, params["point"])
            other_name = params.get("module2")
            other = (
                job.build_module(other_name, ring)
                if other_name
                else residue_module(ring)
            )
            results["module2"] = other_name or "k"
            results["point"] = list(coords)
            results["member"] = membership(ring, module, other, coords)
        elif command == "restrict":
            if "subspace" not in params:
                raise JobSpecError("restrict needs a subspace")
            w = _parse_subspace(ring, params["subspace"])
            v = variety_of(ring, module, _read_int(params, "degree-bound", None))
            restricted = restrict_to_subspace(v, w)
            results["subspace"] = [list(r) for r in w.rows]
            results["variety_ideal"] = _ideal_report(v.ideal)
            results["restricted_ideal"] = _ideal_report(restricted)
            flags.update(_stability_flags(v.stabilized, v.note))
        elif command == "realize":
            if "cone" not in params:
                raise JobSpecError("realize needs cone generators")
            chi = ring.chi_ring()
            polys = []
            for s in params["cone"].split(";"):
                s = s.strip()
                if not s:
                    continue
                try:
                    polys.append(parse_poly(chi, s))
                except PolyParseError as exc:
                    raise JobSpecError(f"cone generator {s!r}: {exc.message}")
            try:
                spec = ConeSpec(polys).validate(ring)
            except ValueError as exc:
                raise JobSpecError(f"bad cone: {exc}")
            module = realize_cone(ring, spec)
            v = variety_of(ring, module)
            results["cone"] = [render_poly(q) for q in polys]
            results["presentation"] = _matrix_report(module.presentation)
            results["row_twists"] = list(module.row_twists)
            results["variety_ideal"] = _ideal_report(v.ideal)
            results["dimension"] = dimension(v)
            flags.update(_stability_flags(v.stabilized, v.note))
        else:
            raise JobSpecError(f"unknown command {command!r}")
    report = {
        "version": "1",
        "command": command,
        "parameters": {k: params[k] for k in sorted(params)},
        "results": results,
    }
    if job is not None:
        report["ring"] = {
            "p": job.p,
            "variables": [v for v, _ in job.variables],
            "weights": [w for _, w in job.variables],
            "relations": list(job.relations),
        }
    if flags:
        report["flags"] = flags
    return report


def run_job(job: JobSpec, command: str, params: dict, cache_dir: str = None):
    """Execute with optional report caching; returns (payload, cache_hit)."""
    job_text = render(JobSpec(job.p, job.variables, job.relations, job.modules, None)) if job else "builtin"
    key = cache_key(job_text, command, params)
    if cache_dir:
        payload = read_cache(cache_dir, key)
        if payload is not None:
            return payload, True
    report = execute(job, command, params)
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cache_dir:
        write_cache(cache_dir, key, payload)
    return payload, False


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    job = None
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        try:
            job = parse_input(text)
        except JobSpecError as exc:
            print(f"{args.input}:{exc.line}:{exc.col}: error: {exc.message}", file=sys.stderr)
            return EXIT_PARSE
    elif command != "check":
        print("error: --input is required for this command", file=sys.stderr)
        return EXIT_PARSE

    cache_dir = args.cache_dir or os.environ.get("CISUPPORT_CACHE")
    try:
        given = _given_params(job, command, args)
        if cache_dir:
            _check_cache_dir(cache_dir)
        # switches change no result, so they stay out of the report and its
        # cache key
        params = {k: v for k, v in given.items() if PARAMS[k].kind != "switch"}
        t0 = time.monotonic()
        payload, hit = run_job(job, command, params, cache_dir)
    except JobSpecError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    wall_ms = int((time.monotonic() - t0) * 1000)

    report = json.loads(payload)
    report["wall_time_ms"] = wall_ms
    out = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"error: cannot write {args.json_out!r}: {exc.strerror}", file=sys.stderr)
            return EXIT_PARSE
    sys.stdout.write(out)
    if hit:
        print("# cache hit", file=sys.stderr)

    flags = report.get("flags", {})
    if flags.get("stabilized") is False and "allow-unstable" not in given:
        reason = f": {flags['reason']}" if flags.get("reason") else ""
        print(f"warning: variety computation did not stabilize{reason}", file=sys.stderr)
        return EXIT_UNSTABLE
    results = report.get("results", {})
    if command == "check" and not results.get("passed", True):
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
