"""Rings and modules moved to an extension field, for the tests that read
points over F_{p^e} through the ring itself (the Hom route and the
reference Tor ranks); the package reads such points on the F_p table."""

from cisupport.cimodule import CIRing, GradedModule
from cisupport.pmatrix import PolyMatrix
from cisupport.poly import PolyRing


def _moved(poly, amb):
    return amb.from_terms((m, amb.field.from_int(c)) for m, c in poly.terms)


def base_change_ring(ring: CIRing, new_field) -> CIRing:
    amb = PolyRing(ring.ambient.variables, field=new_field, weights=ring.ambient.weights)
    return CIRing(amb, [_moved(f, amb) for f in ring.fs], validate=False)


def base_change_module(module: GradedModule, new_ring) -> GradedModule:
    amb = new_ring.ambient
    pres = module.presentation
    entries = [[_moved(pres.entries[i][j], amb) for j in range(pres.ncols)] for i in range(pres.nrows)]
    return GradedModule(new_ring, PolyMatrix(amb, entries, pres.row_twists, pres.col_twists))
