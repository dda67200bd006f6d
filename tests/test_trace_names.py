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
