"""Smoke coverage for the property battery the `check` subcommand runs."""

from cisupport.checksuite import (
    check_cone_section,
    check_oracle_agreement,
    check_scaling_invariance,
    check_syzygy_ring_independence,
    check_tensor_split,
)
from cisupport.catalog import catalog_modules, catalog_ses, two_var_ring


def test_catalog_contents():
    ring = two_var_ring(3)
    mods = catalog_modules(ring)
    assert set(mods) == {
        "k",
        "R",
        "R/(x)",
        "R/(y)",
        "syz1(k)",
        "cone(chi1*chi2)",
        "cone(origin)",
    }
    ses = catalog_ses(ring)
    assert len(ses) == 2


def test_cone_section_property():
    assert check_cone_section([two_var_ring(3)])["passed"]


def test_syzygy_ring_independence_property():
    assert check_syzygy_ring_independence(3)["passed"]


def test_tensor_split_property():
    assert check_tensor_split(3)["passed"]


def test_sampled_oracle_and_scaling():
    ring = two_var_ring(3)
    assert check_oracle_agreement(ring, sample=4)["passed"]
    assert check_scaling_invariance(ring)["passed"]


def test_scaling_invariance_stays_a_spot_check_over_a_large_field(monkeypatch):
    # 4 sampled points, each asked once as drawn and once per scalar 2..7;
    # one call per nonzero scalar of F_32003 would take minutes
    from cisupport import checksuite

    real, calls = checksuite.membership, []

    def spy(*args):
        calls.append(args[-1])
        if len(calls) > 40:
            raise AssertionError("membership called once per scalar of the field")
        return real(*args)

    monkeypatch.setattr(checksuite, "membership", spy)
    result = check_scaling_invariance(two_var_ring(32003))
    assert result["passed"], result["details"]
    assert len(calls) == 4 * 7


def test_scaling_invariance_sees_a_wrong_kept_answer(monkeypatch):
    # a scaled direction reads the ranks kept for its projective point, so
    # membership alone would agree with itself; flip one kept answer and the
    # table of f_{lambda a} alone must tell
    from cisupport import homology
    from cisupport.cache import clear_memo

    ring = two_var_ring(5)
    clear_memo()
    assert check_scaling_invariance(ring)["passed"]
    reader = homology.rank_locus(ring, catalog_modules(ring)["R/(x)"]).module_reader
    s = ring.ambient.n + 1
    m0, m1 = reader.period(s), reader.period(s + 1)
    field, point, _ = next(key for key in reader._ranks if key[2] == m0)
    r0, r1 = reader._ranks[(field, point, m0)], reader._ranks[(field, point, m1)]
    size = reader._map(m0)[0][1]  # = size of F_{m1}: dim E = dim O
    # inside (a Tor rank nonzero): make both Tor ranks zero; outside: make one nonzero
    flipped = size - r1 if size - r0 - r1 else r0 - 1
    monkeypatch.setitem(reader._ranks, (field, point, m0), flipped)
    result = check_scaling_invariance(ring)
    assert not result["passed"] and result["details"]
