"""Polynomial root isolation by root-radii estimation.

Real roots: estimate all root radii by Graeffe squaring plus the Newton
polygon, turn each radius into two candidate intervals, keep the ones with a
sign change, refine with bracketed Newton.  Complex roots: intersect three
families of thin annuli built from root radii of shifted polynomials.
"""

from .complexiso import (
    Annulus,
    AnnulusFamily,
    ComplexInclusion,
    ComplexIsolationResult,
    GridNode,
    disambiguate_with_third,
    grid_from_two_families,
    isolate_complex_roots,
    line_disc_intersection_prob,
    shifted_families,
    theoretical_separation,
)
from .oracle import RootSet, all_roots_oracle, chebyshev1, generate_family
from .poly import (
    Polynomial,
    PrecisionLossError,
    derivative,
    evaluate,
    graeffe_step,
    negate_arg,
    normalize,
    parse_coefficients,
    read_coefficients,
    reverse,
    root_radius_upper_bound,
    taylor_shift,
    write_coefficients,
)
from .radii import (
    RadiiEstimate,
    choose_iteration_count,
    distances_from_point,
    newton_polygon_radii,
    refined_radii,
)
from .realiso import (
    IsolationInterval,
    IsolatorConfig,
    RealIsolationResult,
    RealRoot,
    candidate_intervals,
    isolate_real_roots,
    narrow_root_ranges,
    refine_interval,
    select_sign_change_intervals,
)

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "PrecisionLossError",
    "evaluate",
    "derivative",
    "taylor_shift",
    "reverse",
    "negate_arg",
    "graeffe_step",
    "normalize",
    "root_radius_upper_bound",
    "read_coefficients",
    "write_coefficients",
    "parse_coefficients",
    "RadiiEstimate",
    "newton_polygon_radii",
    "choose_iteration_count",
    "refined_radii",
    "distances_from_point",
    "IsolatorConfig",
    "IsolationInterval",
    "RealRoot",
    "RealIsolationResult",
    "candidate_intervals",
    "select_sign_change_intervals",
    "refine_interval",
    "isolate_real_roots",
    "narrow_root_ranges",
    "Annulus",
    "AnnulusFamily",
    "GridNode",
    "ComplexInclusion",
    "ComplexIsolationResult",
    "shifted_families",
    "grid_from_two_families",
    "disambiguate_with_third",
    "theoretical_separation",
    "line_disc_intersection_prob",
    "isolate_complex_roots",
    "RootSet",
    "all_roots_oracle",
    "chebyshev1",
    "generate_family",
]
