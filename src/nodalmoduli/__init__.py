"""Exact-arithmetic feasibility and moduli invariants for depth-one sheaves
glued over a two-component nodal curve.

Everything is computed over the rationals with stdlib ``fractions.Fraction``;
no floating point enters any verdict.
"""

from .curves import (
    NodalCurve,
    Polarization,
    SheafClass,
    chi_to_degree,
    dim_moduli_smooth,
    mk_slope,
    polarized_slope,
)
from .feasibility import (
    FeasibilityReport,
    feasible_interval,
    in_region,
    region_scan,
    violated_conditions,
)
from .gluing import (
    GluingDatum,
    StalkType,
    canonical_subsheaves,
    glued_class,
    matrix_rank,
    parse_matrix,
)
from .moduli import (
    ComponentRecord,
    component_dimension,
    enumerate_components,
    fixed_det_fiber_dimension,
    is_generic_for,
    projective_bundle_dimension,
)
from .rationals import RationalInterval, format_rational, parse_rational
from .stability import (
    NecessaryConditionError,
    StabilityHypotheses,
    SubsheafInvariant,
    check_sufficiency,
    max_degree_bounds,
    mk_semistable_test,
    nonstable_locus_codim_bound,
    subsheaf_slope,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentRecord",
    "FeasibilityReport",
    "GluingDatum",
    "NecessaryConditionError",
    "NodalCurve",
    "Polarization",
    "RationalInterval",
    "SheafClass",
    "StabilityHypotheses",
    "StalkType",
    "SubsheafInvariant",
    "canonical_subsheaves",
    "check_sufficiency",
    "chi_to_degree",
    "component_dimension",
    "dim_moduli_smooth",
    "enumerate_components",
    "feasible_interval",
    "fixed_det_fiber_dimension",
    "format_rational",
    "glued_class",
    "in_region",
    "is_generic_for",
    "matrix_rank",
    "max_degree_bounds",
    "mk_semistable_test",
    "mk_slope",
    "nonstable_locus_codim_bound",
    "parse_matrix",
    "parse_rational",
    "polarized_slope",
    "projective_bundle_dimension",
    "region_scan",
    "subsheaf_slope",
    "violated_conditions",
]
