"""Exact counting and classification of numerical semigroups containing a fixed element."""

from .closed_forms import UnknownFormula, closed_form_reference
from .cone import (
    ConeModel,
    DimensionMismatch,
    EdgeSet,
    SigmaLocus,
    UnsupportedP,
    build_cone,
    edges_of_cone_star,
    interior_shift_check,
    sigma_star_set,
)
from .core import (
    FrobeniusOfN,
    GapSet,
    NonCoprimeGenerators,
    PNotInSemigroup,
    Semigroup,
    from_generators,
)
from .counting import (
    CLASS_FILTERS,
    CountTable,
    NotCoprime,
    containment_table,
    count_by_genus,
    count_containing,
    cumulative_by_genus,
    enumerate_by_genus,
    genus_count_series,
    genus_table,
    genus_window,
    verify_interior_identity,
    verify_medim_identity,
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
    AlphaForm,
    EdgeInHyperplane,
    InsufficientSamples,
    QuasiPolynomial,
    VerificationMismatch,
    asymptotic_ratio_check,
    difference,
    fit,
    leading_coefficient_report,
    partial_sum,
    predict_quasi_period,
    shift,
)

__version__ = "0.1.0"
