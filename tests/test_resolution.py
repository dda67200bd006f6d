import os
from math import comb

import numpy as np
import pytest

from cisupport import cache, resolution
from cisupport.catalog import catalog_modules, three_var_ring, two_var_ring
from cisupport.checksuite import cached_variety
from cisupport.cimodule import (
    CIRing,
    cyclic_module,
    free_module,
    residue_module,
    zero_module,
)
from cisupport.field import PrimeField
from cisupport.homology import ambient_resolution, section_betti
from cisupport.jobspec import parse_input
from cisupport.pmatrix import PolyMatrix
from cisupport.poly import PolyRing, parse_poly, render_poly
from cisupport.resolution import (
    check_complex,
    check_exactness,
    check_minimal,
    minimal_resolution,
    resolve_engine,
    syzygy_module,
)

F5 = PrimeField(5)


def quadric_ring(names, p=5):
    q = PolyRing(list(names), field=PrimeField(p))
    return q, CIRing(q, [parse_poly(q, f"{v}^2") for v in names])


def test_codim3_residue_field_betti_and_first_differential():
    q, r = quadric_ring("xyz")
    res = minimal_resolution(r, residue_module(r), 5)
    assert res.betti == [1, 3, 6, 10, 15, 21]
    d1 = res.differential(1)
    assert sorted(render_poly(e) for e in d1.entries[0]) == ["x", "y", "z"]
    check_complex(res)
    check_minimal(res)


def test_koszul_resolution_over_free_ring():
    q = CIRing(PolyRing(["x", "y", "z"], field=F5), ())
    res = minimal_resolution(q, residue_module(q), 4)
    assert res.betti == [comb(3, i) for i in range(4)] + [0]
    check_complex(res)
    check_minimal(res)
    check_exactness(res)


def test_koszul_betti_binomials_in_two_and_four_variables():
    for n in (2, 4):
        q = CIRing(PolyRing([f"x{i}" for i in range(n)], field=F5), ())
        res = minimal_resolution(q, residue_module(q), n + 1)
        assert res.betti == [comb(n, i) for i in range(n + 1)] + [0]


def test_period_one_hypersurface_point():
    q1 = PolyRing(["x"], field=F5)
    r1 = CIRing(q1, [parse_poly(q1, "x^2")])
    res = minimal_resolution(r1, residue_module(r1), 4)
    assert res.betti == [1, 1, 1, 1, 1]
    for i in range(1, 5):
        assert res.differential(i).render() == [["x"]]


def test_engines_agree_on_artinian_rings():
    q, r = quadric_ring("xy", p=3)
    k = residue_module(r)
    a = minimal_resolution(r, k, 6, engine="slice")
    b = minimal_resolution(r, k, 6, engine="groebner")
    assert a.betti == b.betti == [1, 2, 3, 4, 5, 6, 7]
    for res in (a, b):
        check_complex(res)
        check_minimal(res)
    check_exactness(b, [1, 2, 3])


def test_resolve_engine_picks_slice_only_for_artinian_prime_field_rings():
    _, artinian = quadric_ring("xy", p=3)
    q = PolyRing(["x", "y", "z"], field=F5)
    non_artinian = CIRing(q, [parse_poly(q, "x^2")])
    assert resolve_engine(artinian) == "slice"
    assert resolve_engine(CIRing(q, ())) == "groebner"
    assert resolve_engine(non_artinian) == "groebner"
    assert resolve_engine(artinian, "groebner") == "groebner"
    assert resolve_engine(CIRing(q, ()), "slice") == "slice"


def test_clear_memo_forgets_every_table():
    ring = two_var_ring(3)
    module = cyclic_module(ring, [ring.ambient.var_poly(0)])

    def sections():
        section_betti(ring, module, (1, 0), range(4))
        return cache.memo("homotopies", (ring.key(), module.content_key()), None)

    def fill():
        return (
            minimal_resolution(ring, module, 3).differential(2),
            ambient_resolution(module),
            sections(),
            cached_variety(ring, module),
            catalog_modules(ring),
            two_var_ring(3),
        )

    first = fill()
    tables = set(cache._MEMO)
    assert tables == {"resolution", "ambient", "homotopies", "variety", "catalog_modules", "catalog_ring"}
    assert all(a is b for a, b in zip(fill(), first))
    cache.clear_memo()
    assert cache._MEMO == {}
    again = fill()
    assert all(a is not b for a, b in zip(again, first))
    assert set(cache._MEMO) == tables


def test_resolution_window_extension_is_consistent():
    q, r = quadric_ring("xyz", p=3)
    k = residue_module(r)
    short = minimal_resolution(r, k, 4)
    longer = minimal_resolution(r, k, 8)
    assert longer.betti[:5] == short.betti
    assert longer.differential(3).content_key() == short.differential(3).content_key()


def test_first_syzygy_of_residue_field():
    q, r = quadric_ring("xy")
    om = syzygy_module(residue_module(r), 1)
    assert om.ngens == 2
    assert (om.presentation.nrows, om.presentation.ncols) == (2, 3)
    # betti of k continue: b2 = 3 relations on the two generators
    res = minimal_resolution(r, residue_module(r), 3)
    assert res.betti[2] == 3


def test_zeroth_syzygy_is_the_module():
    q, r = quadric_ring("xy")
    m = cyclic_module(r, [parse_poly(q, "x")])
    assert syzygy_module(m, 0) is m


def test_first_syzygy_of_free_module_is_zero():
    _, r = quadric_ring("xy")
    assert syzygy_module(free_module(r), 1).is_zero()


def test_zero_module_has_empty_resolution():
    _, r = quadric_ring("xy")
    res = minimal_resolution(r, zero_module(r), 3)
    assert res.betti == [0, 0, 0, 0]


def test_length_zero_reports_minimal_generators_only():
    _, r = quadric_ring("xy")
    res = minimal_resolution(r, residue_module(r), 0)
    assert res.betti == [1]
    assert res.differentials == []


def test_finite_pd_visible_in_window():
    q = CIRing(PolyRing(["x", "y"], field=F5), ())
    res = minimal_resolution(q, residue_module(q), 4)
    assert res.projective_dimension() == 2


def test_betti_by_degree_twists():
    q, r = quadric_ring("xy")
    res = minimal_resolution(r, residue_module(r), 3)
    by_deg = res.betti_by_degree()
    assert by_deg[0] == {0: 1}
    assert by_deg[1] == {1: 2}
    # quadric relations make the resolution linear: step n concentrated in degree n
    assert by_deg[2] == {2: 3}


def test_periodic_module_over_two_variable_ring():
    q, r = quadric_ring("xy")
    m = cyclic_module(r, [parse_poly(q, "x")])
    res = minimal_resolution(r, m, 7)
    assert res.betti == [1] * 8
    check_complex(res)
    check_minimal(res)


# ---------------------------------------------------------------------------
# slice differentials: polynomial entries built from the coefficient arrays


def reference_coords_to_columns(ring, twists, d, vecs):
    """The polynomial builder that PolyMatrix.from_arrays replaced: the
    columns of vecs, coordinates in the degree-d piece of (+) ring(-t_j)."""
    from cisupport.poly import Poly

    amb = ring.ambient
    monos = []
    owner = []
    for j, t in enumerate(twists):
        block = ring.std_monomials(d - t)
        monos.extend(block)
        owner.extend([j] * len(block))
    vals = vecs.T % amb.field.p
    terms = [[[] for _ in twists] for _ in range(vals.shape[0])]
    cols, pos = np.nonzero(vals)
    for k, i, c in zip(cols.tolist(), pos.tolist(), vals[cols, pos].tolist()):
        terms[k][owner[i]].append((monos[i], c))
    return [[Poly(amb, tuple(t)) for t in col] for col in terms]


def _golden_ring(p):
    with open(os.path.join(os.path.dirname(__file__), "golden", "nonmonomial_variety.job")) as fh:
        job = parse_input(fh.read().replace("field 101", f"field {p}"))
    ring = job.ci_ring()
    return ring, {"M": job.build_module("M", ring), "k": residue_module(ring)}


SLICE_CASES = {
    "2var_p3": lambda: (two_var_ring(3), catalog_modules(two_var_ring(3))),
    "2var_p5": lambda: (two_var_ring(5), catalog_modules(two_var_ring(5))),
    "3var_p2": lambda: (three_var_ring(2), catalog_modules(three_var_ring(2))),
    "3var_p3": lambda: (three_var_ring(3), catalog_modules(three_var_ring(3))),
    "nonmonomial_p101": lambda: _golden_ring(101),
    "nonmonomial_p32003": lambda: _golden_ring(32003),
}


@pytest.mark.parametrize("name", list(SLICE_CASES))
def test_slice_entries_equal_the_coordinate_builder(monkeypatch, name):
    ring, modules = SLICE_CASES[name]()
    seen = {}  # id of each differential's arrays -> (row twists, coordinate chunks)
    real = resolution._coords_to_arrays

    def spy(ring, twists, chunks, ncols):
        arrays = real(ring, twists, chunks, ncols)
        seen[id(arrays)] = (twists, list(chunks))
        return arrays

    monkeypatch.setattr(resolution, "_coords_to_arrays", spy)
    cache.clear_memo()
    checked = 0
    for module in modules.values():
        res = minimal_resolution(ring, module, 5, engine="slice")
        for d in res.differentials[1:]:
            if "_arrays" not in vars(d):
                assert d.nrows == d.ncols == 0  # the kernel step of a zero map
                continue
            assert "entries" not in vars(d)  # built on first use only
            twists, chunks = seen[id(vars(d)["_arrays"])]
            cols = []
            for deg, vecs in chunks:
                cols.extend(reference_coords_to_columns(ring, twists, deg, vecs))
            want = PolyMatrix.from_columns(ring.ambient, twists, cols, d.col_twists)
            assert [[e.terms for e in row] for row in d.entries] == [
                [e.terms for e in row] for row in want.entries
            ]
            checked += 1
    cache.clear_memo()
    assert checked


# ---------------------------------------------------------------------------
# socle degree and the order of the first differential

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden_jobs():
    """(name, parsed job) of every golden job whose ring parses."""
    out = []
    for name in sorted(f for f in os.listdir(GOLDEN) if f.endswith(".job")):
        with open(os.path.join(GOLDEN, name)) as fh:
            try:
                out.append((name, parse_input(fh.read())))
            except ValueError:  # prime_too_large is a located parse error
                continue
    return out


def reference_top_socle_degree(ring, limit=200):
    """The degree scan top_socle_degree used to run: the last nonempty
    degree before more than max(weights) empty ones, up to limit."""
    top = 0
    d = 0
    empty_run = 0
    while d <= limit:
        if ring.std_monomials(d):
            top = d
            empty_run = 0
        else:
            empty_run += 1
            if empty_run > max(ring.ambient.weights):
                break
        d += 1
    return top


WEIGHTED_JOBS = [
    "field 5\nring x:2 y z\nrelations x^2 ; y^4 ; z^4\n",
    "field 3\nring x:2 y:3\nrelations x^3 ; y^2\n",
    "field 7\nring x:3 y\nrelations x^2 ; y^5\n",
    "field 5\nring x:2 y\nrelations x^2 ; y^3\n",
    "field 101\nring x y z\nrelations x^3 ; y^2 + x*z ; z^4\n",
]


def socle_rings():
    rings = [two_var_ring(p) for p in (2, 3, 5)] + [three_var_ring(p) for p in (2, 3)]
    rings += [job.ci_ring() for _, job in golden_jobs()]
    rings += [parse_input(text + "module k\nresidue\n").ci_ring() for text in WEIGHTED_JOBS]
    return [r for r in rings if r.is_artinian]


def test_closed_form_socle_degree_equals_the_degree_scan():
    rings = socle_rings()
    assert len(rings) >= 10
    for ring in rings:
        assert ring.top_socle_degree() == reference_top_socle_degree(ring, limit=1000), ring


def test_socle_degree_above_200():
    q = PolyRing(["x"], field=PrimeField(101))
    ring = CIRing(q, [parse_poly(q, "x^202")])
    assert ring.top_socle_degree() == 201
    assert reference_top_socle_degree(ring) == 200  # the old cap
    assert reference_top_socle_degree(ring, limit=1000) == 201
    res = minimal_resolution(ring, residue_module(ring), 4)
    assert res.betti == [1, 1, 1, 1, 1]
    assert [res.twists(i) for i in range(5)] == [(0,), (1,), (202,), (203,), (404,)]
    assert [res.differential(i).render() for i in range(1, 5)] == [[["x"]], [["x^201"]]] * 2


def test_first_differential_relations_come_in_degree_order():
    cases = [(r, list(catalog_modules(r).values())) for r in (two_var_ring(3), three_var_ring(3))]
    for _, job in golden_jobs():
        ring = job.ci_ring()
        cases.append((ring, [job.build_module(m.name, ring) for m in job.modules]))
    # relations given in descending degree, so the order must come from the
    # minimal presentation, not from the input
    q, r = quadric_ring("xyz", p=3)
    cases.append((r, [cyclic_module(r, [parse_poly(q, s) for s in gens])
                      for gens in (["y*z", "x"], ["x*y*z", "y*z", "x"], ["y*z", "x*z", "y"])]))
    mixed = 0
    for ring, modules in cases:
        for module in modules:
            twists = list(minimal_resolution(ring, module, 1).differential(1).col_twists)
            assert twists == sorted(twists)
            mixed += len(set(twists)) > 1
    assert mixed >= 3
