"""Built-in catalog of test rings and modules for the property suites."""

from __future__ import annotations

from .cache import memo
from .cimodule import (
    CIRing,
    cyclic_module,
    free_module,
    residue_module,
    submodule_and_quotient,
)
from .field import PrimeField
from .poly import PolyRing, parse_poly
from .realize import ConeSpec, mapping_cone_module, realize_cone
from .resolution import syzygy_module


def _ring(name: str, p: int, variables, relations) -> CIRing:
    def build():
        q = PolyRing(variables, field=PrimeField(p))
        return CIRing(q, [parse_poly(q, s) for s in relations])

    return memo("catalog_ring", (name, p), build)


def two_var_ring(p: int) -> CIRing:
    """k[x,y]/(x^2, y^2) over F_p."""
    return _ring("2var", p, ["x", "y"], ("x^2", "y^2"))


def three_var_ring(p: int) -> CIRing:
    """k[x,y,z]/(x^2, y^2, z^2) over F_p."""
    return _ring("3var", p, ["x", "y", "z"], ("x^2", "y^2", "z^2"))


def dim2_hypersurface_ring(p: int) -> CIRing:
    """k[x,y,z]/(x^2): a non-artinian quotient for regular-element properties."""
    return _ring("dim2", p, ["x", "y", "z"], ("x^2",))


def catalog_modules(ring: CIRing) -> dict:
    """Named catalog modules over a quadric complete intersection."""
    return memo("catalog_modules", ring.key(), lambda: _build_catalog_modules(ring))


def _build_catalog_modules(ring: CIRing) -> dict:
    amb = ring.ambient
    chi = ring.chi_ring()
    mods = {
        "k": residue_module(ring),
        "R": free_module(ring),
        "R/(x)": cyclic_module(ring, [amb.var_poly(0)]),
        "R/(y)": cyclic_module(ring, [amb.var_poly(1)]),
    }
    mods["syz1(k)"] = syzygy_module(mods["k"], 1)
    if ring.c == 2:
        mods["cone(chi1*chi2)"] = realize_cone(
            ring, ConeSpec([parse_poly(chi, "chi1*chi2")])
        )
        mods["cone(origin)"] = realize_cone(
            ring, ConeSpec([parse_poly(chi, "chi1"), parse_poly(chi, "chi2")])
        )
    elif ring.c == 3:
        mods["K_quadric"] = realize_cone(
            ring, ConeSpec([parse_poly(chi, "chi1*chi2 - chi3^2")])
        )
        mods["cone(chi1)"] = realize_cone(ring, ConeSpec([parse_poly(chi, "chi1")]))
        mods["cone(origin)"] = realize_cone(
            ring,
            ConeSpec([parse_poly(chi, v) for v in ("chi1", "chi2", "chi3")]),
        )
    return mods


def catalog_ses(ring: CIRing):
    """Short exact sequences over the ring: a submodule split and a cone."""
    amb = ring.ambient
    out = []
    sub, quot, _ = submodule_and_quotient(free_module(ring), [[amb.var_poly(0)]])
    out.append(("xR < R", sub, free_module(ring), quot))
    chi = ring.chi_ring()
    cone = mapping_cone_module(ring, residue_module(ring), parse_poly(chi, "chi1"))
    out.append(("k < K_chi1", cone.base_module, cone.module, cone.quotient_part))
    return out


def acceptance_rings():
    """The ring instances the acceptance criteria quantify over."""
    return {
        "2var_p3": two_var_ring(3),
        "2var_p5": two_var_ring(5),
        "3var_p2": three_var_ring(2),
        "3var_p3": three_var_ring(3),
    }
