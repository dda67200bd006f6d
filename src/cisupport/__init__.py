"""Exact support-variety computations over graded complete intersections.

The package computes cohomological support varieties of finitely generated
graded modules two independent ways (a hypersurface-section membership
oracle and the annihilator of the operator action on Ext), and constructs
modules realizing prescribed cones via mapping cones.  All arithmetic is
exact, over prime fields.
"""

# Defined before the submodule imports: the report cache keys on it.
__version__ = "0.1.0"

from .cimodule import (
    CIRing,
    GradedModule,
    cyclic_module,
    free_module,
    hilbert_function,
    quotient_by_element,
    residue_module,
    restrict_to_ring,
    submodule_and_quotient,
    syzygy_matrix,
    tensor_over_base,
    zero_module,
)
from .field import ExtField, PrimeField
from .groebner import (
    Ideal,
    buchberger,
    equal_up_to_radical,
    is_regular_sequence,
    krull_dimension,
    member_witness,
    normal_form,
    radical_member,
)
from .homology import ext_module_ring_coeffs, ext_vanishes
from .jobspec import JobSpec, JobSpecError, parse_input, render
from .operators import (
    ExtKModule,
    OperatorFamily,
    chi_action,
    evaluate_chi_class,
    operator_family,
)
from .pmatrix import PolyMatrix
from .poly import Poly, PolyRing, parse_poly, render_poly
from .realize import (
    ConeSpec,
    FiniteLengthResult,
    MappingCone,
    finite_length_form,
    mapping_cone_module,
    realize_cone,
)
from .resolution import FreeResolution, minimal_resolution, syzygy_module
from .variety import (
    PointK,
    Subspace,
    SupportVariety,
    annihilator_ideal,
    complexity_estimate,
    dimension,
    intersection_variety,
    irreducible_principal,
    membership,
    restrict_to_subspace,
    union_variety,
    variety_of,
    variety_of_pair,
)
