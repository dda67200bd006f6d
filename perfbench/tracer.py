"""Outside-in tracer: spans around the package's public functions.

`install()` rebinds each listed function in every `cisupport.*` module
namespace that holds it, and patches the listed methods on their classes, so
calls made through module attributes (`modlinalg.rref`) and through names
imported with `from .x import y` are both seen.  `poly` and `field` are left
alone: they are called millions of times per job and wrapping them would
distort the run; their cost shows up in the callers' self time.

Spans (name, start, end, parent) are kept in memory and aggregated or
written out when the traced process ends.  Self time of a span is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import sys
import time

LAYERS = {
    "modlinalg": ("rref", "nullspace", "solve", "complement_pivots", "rank"),
    "cimodule": ("slice_matrix", "restrict_to_ring", "syzygy_matrix"),
    "resolution": ("minimal_resolution",),
    "operators": (
        "chi_action",
        "ExtKModule.monomial_action",
        "operator_family",
        "evaluate_chi_class",
    ),
    "variety": ("variety_of", "annihilator_ideal", "membership"),
    "groebner": (
        "buchberger",
        "equal_up_to_radical",
        "module_groebner",
        "module_syzygies",
        "IncrementalGB.add",
        "IncrementalGB.contains",
        "member_witness",
        "is_regular_sequence",
    ),
    "homology": ("hypersurface_betti", "ext_vanishes"),
    "pmatrix": ("PolyMatrix.mul",),
    "realize": ("realize_cone",),
    "catalog": ("catalog_modules",),
    "jobspec": ("parse_input",),
    "cache": ("read_cache", "write_cache"),
    "cli": ("run_job",),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _shape_cells(a):
    shape = getattr(a, "shape", ())
    return int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0


def _count_rref(args, kwargs, result):
    return {"cells": _shape_cells(args[0] if args else kwargs["a"])}


def _count_slice(args, kwargs, result):
    return {"cells": _shape_cells(result)}


def _count_resolution(args, kwargs, result):
    return {"betti_sum": sum(result.betti)}


def _count_first_len(field):
    def count(args, kwargs, result):
        return {field: len(args[0])}

    return count


def _count_vectors(args, kwargs, result):
    vectors = args[2] if len(args) > 2 else kwargs["vectors"]
    return {"vectors_in": len(vectors)}


def _count_read_cache(args, kwargs, result):
    return {"hits": int(result is not None)}


COUNTERS = {
    "modlinalg.rref": _count_rref,
    "cimodule.slice_matrix": _count_slice,
    "resolution.minimal_resolution": _count_resolution,
    "groebner.buchberger": _count_first_len("gens_in"),
    "groebner.module_groebner": _count_vectors,
    "groebner.module_syzygies": _count_vectors,
    "cache.read_cache": _count_read_cache,
}


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = {}  # name -> {counter: total}
        self._stack = []
        self._seen_resolutions = set()

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                self._add(name, count(args, kwargs, result))
            if name == "resolution.minimal_resolution":
                self._note_resolution(args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _add(self, name, values):
        acc = self.counts.setdefault(name, {})
        for k, v in values.items():
            acc[k] = acc.get(k, 0) + v

    def _note_resolution(self, args, kwargs):
        """Count calls whose (ring, module, engine) key was seen before in
        this process -- the key the package memoizes resolutions under."""
        from cisupport import resolution

        ring, module = args[0], args[1]
        engine = args[3] if len(args) > 3 else kwargs.get("engine", "auto")
        key = (
            resolution.ring_key(ring),
            module.content_key(),
            resolution.resolve_engine(ring, engine),
        )
        self._add(
            "resolution.minimal_resolution",
            {"repeats": int(key in self._seen_resolutions), "keyed": 1},
        )
        self._seen_resolutions.add(key)

    def install(self):
        """Wrap every listed function and method."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "cisupport" or name.startswith("cisupport.")
        }
        for qual in NAMES:
            mod_name, _, attr = qual.partition(".")
            home = sys.modules[f"cisupport.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(qual, cls.__dict__[meth]))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(qual, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals (clipped to the span)."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            s, e = max(spans[j][1], start), min(spans[j][2], end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def summarize(spans, acc=None):
    """Add calls, self time and total time per name into `acc`.

    Total time counts only outermost spans of a name, so a function that
    re-enters itself is not counted twice.
    """
    acc = {} if acc is None else acc
    selfs = self_times(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        row = acc.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            row["total_s"] += end - start
    return acc
