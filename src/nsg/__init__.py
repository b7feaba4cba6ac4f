"""Exact counting and classification of numerical semigroups containing a fixed element.

The names below are loaded on first use (PEP 562), so that a command
imports only the submodules it runs: ``from nsg import fit`` loads
``nsg.quasi``, and ``nsg.counting`` loads the counting layer alone.
"""

# Each exported name with the submodule that defines it, and each submodule with itself.
_EXPORTS = {
    **{name: name for name in ("cone", "core", "counting", "paths", "quasi")},
    **dict.fromkeys(
        ("ConeModel", "DimensionMismatch", "EdgeSet", "UnsupportedP", "build_cone",
         "edges_of_cone_star"),
        "cone",
    ),
    **dict.fromkeys(
        ("FrobeniusOfN", "NonCoprimeGenerators", "PNotInSemigroup", "Semigroup",
         "from_generators"),
        "core",
    ),
    **dict.fromkeys(
        ("CLASS_FILTERS", "NotCoprime", "count_by_genus", "count_containing",
         "enumerate_by_genus", "genus_count_series", "genus_window"),
        "counting",
    ),
    **dict.fromkeys(
        ("LatticePath", "NotAdmissible", "NotAGap", "NotContainingQ", "PathSystem",
         "PointOutsideTriangle", "count_admissible", "is_admissible", "iter_admissible",
         "path_from_semigroup", "semigroup_from_path", "verify_path_recursions"),
        "paths",
    ),
    **dict.fromkeys(
        ("EdgeInHyperplane", "InsufficientSamples", "QuasiPolynomial", "VerificationMismatch",
         "fit", "leading_coefficient_report", "predict_quasi_period"),
        "quasi",
    ),
}

__all__ = [name for name, module in _EXPORTS.items() if name != module]
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_EXPORTS[name]}")
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
