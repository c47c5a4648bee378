"""troprays: exact computations around tropical quadratic forms on ray spaces.

The scalar domain is the bipotent semifield [0, oo[ extended by oo, kept in
log scale with arbitrary-precision rational exponents, so every operation in
this package is exact: CS-ratios and their piecewise-monomial restrictions to
ray intervals, sign-vector stratifications with separating rays, the junction
and butterfly frontier processes, and the entrance analysis at isotropic rays.

``import troprays`` loads no layer: a layer module is imported the first time
one of its names below is read from the package (PEP 562), so a caller pays
only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {name: module for module, names in (
    ("semifield", ("INF", "ONE", "ZERO", "TropValue", "t")),
    ("quadspace", ("QuadraticPair", "Vector", "ValidationReport", "validate_pair", "vec")),
    ("rays", ("Ray", "RayInterval", "ray")),
    ("pmfunc", ("PmFunction", "SignPiece")),
    ("csfun", ("IntervalCsProfile", "build_fw", "cs_restriction_pm",
               "q_segment_profile", "uniqueness_classify")),
    ("strata", ("BasicFunction", "DerivationChart", "Relaxation", "SignVector",
                "StrataTrace", "TracePiece", "derivation_chart", "example_family",
                "is_direct_derivate", "minimal_relaxation", "relaxation_components",
                "sign_vector_at", "stratify_interval")),
    ("frontier", ("ButterflyResult", "FrontierPair", "JunctionReport", "JunctionStep",
                  "regularity_bounds")),
    ("isotropy", ("IsotropicApproach", "StabilityReport", "entrance_stratum",
                  "stability_check", "stratify_halfopen")),
) for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
