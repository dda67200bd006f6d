"""Every span name the benchmark tracer wraps still exists in the package.

`perfbench/tracer.py` patches the functions and methods in `tracer.NAMES` by
name; a name that no longer resolves makes `perfbench/run.py --trace 1` fail.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracer")


def test_every_traced_name_resolves(tracer):
    assert tracer.NAMES
    for qual in tracer.NAMES:
        mod_name, _, attr = qual.partition(".")
        home = importlib.import_module(f"cisupport.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), qual  # patched via cls.__dict__
        else:
            assert callable(getattr(home, attr, None)), qual


def test_resolution_repeats_are_counted_on_the_memo_key(tracer):
    """The tracer rebuilds the resolution memo key from
    resolution.ring_key and resolution.resolve_engine; a second call on the
    same (ring, module) counts as one repeat and hits the same memo entry."""
    from cisupport import cache, resolution
    from cisupport.catalog import two_var_ring
    from cisupport.cimodule import residue_module

    ring = two_var_ring(3)
    module = residue_module(ring)
    cache.clear_memo()
    t = tracer.Tracer()
    traced = t.wrap("resolution.minimal_resolution", resolution.minimal_resolution)
    first = traced(ring, module, 3)
    second = traced(ring, residue_module(ring), 3)
    assert t.counts["resolution.minimal_resolution"]["repeats"] == 1
    assert t.counts["resolution.minimal_resolution"]["keyed"] == 2
    key = (resolution.ring_key(ring), module.content_key(), resolution.resolve_engine(ring))
    assert list(cache._MEMO["resolution"]) == [key]
    assert first.differentials == second.differentials
    cache.clear_memo()
