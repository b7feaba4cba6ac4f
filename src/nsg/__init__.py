"""Exact counting and classification of numerical semigroups containing a fixed element."""

from .cone import (
    ConeModel,
    DimensionMismatch,
    EdgeSet,
    UnsupportedP,
    build_cone,
    edges_of_cone_star,
)
from .core import (
    FrobeniusOfN,
    NonCoprimeGenerators,
    PNotInSemigroup,
    Semigroup,
    from_generators,
)
from .counting import (
    CLASS_FILTERS,
    NotCoprime,
    count_by_genus,
    count_containing,
    enumerate_by_genus,
    genus_count_series,
    genus_window,
)
from .paths import (
    LatticePath,
    NotAdmissible,
    NotAGap,
    NotContainingQ,
    PathSystem,
    PointOutsideTriangle,
    count_admissible,
    is_admissible,
    iter_admissible,
    path_from_semigroup,
    semigroup_from_path,
    verify_path_recursions,
)
from .quasi import (
    EdgeInHyperplane,
    InsufficientSamples,
    QuasiPolynomial,
    VerificationMismatch,
    fit,
    leading_coefficient_report,
    predict_quasi_period,
)

__version__ = "0.1.0"
