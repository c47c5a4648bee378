"""troprays: exact computations around tropical quadratic forms on ray spaces.

The scalar domain is the bipotent semifield [0, oo[ extended by oo, kept in
log scale with arbitrary-precision rational exponents, so every operation in
this package is exact: CS-ratios and their piecewise-monomial restrictions to
ray intervals, sign-vector stratifications with separating rays, the junction
and butterfly frontier processes, and the entrance analysis at isotropic rays.
"""

from .semifield import INF, ONE, ZERO, TropValue, t
from .quadspace import QuadraticPair, Vector, ValidationReport, validate_pair, vec
from .rays import Ray, RayInterval, ray
from .pmfunc import PmFunction, SignPiece
from .csfun import (
    IntervalCsProfile,
    build_fw,
    cs_restriction_pm,
    q_segment_profile,
    uniqueness_classify,
)
from .strata import (
    BasicFunction,
    DerivationChart,
    Relaxation,
    SignVector,
    StrataTrace,
    TracePiece,
    derivation_chart,
    example_family,
    is_direct_derivate,
    minimal_relaxation,
    relaxation_components,
    sign_vector_at,
    stratify_interval,
)
from .frontier import (
    ButterflyResult,
    FrontierPair,
    JunctionReport,
    JunctionStep,
    regularity_bounds,
    sector_member,
)
from .isotropy import (
    IsotropicApproach,
    StabilityReport,
    entrance_stratum,
    stability_check,
    stratify_halfopen,
)

__version__ = "0.1.0"

__all__ = [
    "INF", "ONE", "ZERO", "TropValue", "t",
    "QuadraticPair", "Vector", "ValidationReport", "validate_pair", "vec",
    "Ray", "RayInterval", "ray",
    "PmFunction", "SignPiece",
    "IntervalCsProfile", "build_fw", "cs_restriction_pm",
    "q_segment_profile", "uniqueness_classify",
    "BasicFunction", "DerivationChart", "Relaxation", "SignVector",
    "StrataTrace", "TracePiece", "derivation_chart",
    "example_family", "is_direct_derivate", "minimal_relaxation",
    "relaxation_components", "sign_vector_at", "stratify_interval",
    "ButterflyResult", "FrontierPair", "JunctionReport", "JunctionStep",
    "regularity_bounds", "sector_member",
    "IsotropicApproach", "StabilityReport", "entrance_stratum",
    "stability_check", "stratify_halfopen",
    "__version__",
]
