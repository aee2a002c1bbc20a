"""Exact arithmetic for the reflexive lattice simplices defined by a
weakly increasing positive integer vector q: h*-polynomials (closed form
plus two independent enumeration oracles), reflexivity and integer
decomposition property (IDP) tests, fixed-support Diophantine enumeration,
affine free sums, and batch search for counterexamples to
"IDP + reflexive implies unimodal h*".

Importing the package loads none of its modules: each public name, and
each module (`reflexive_lab.lattice`), is looked up on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "core": (
        "GcdNotOne", "HStarPolynomial", "InternalInconsistency", "InvalidQVector",
        "InvalidRVector", "NoSolution", "NotReflexive", "OracleTooLarge",
        "OutputNotWritable", "PayneConstraint", "QVector", "ReflexiveLabError",
        "SupportDecomposition", "format_hstar", "format_qvector", "is_reflexive",
        "make_qvector", "normalized_volume", "parse_qvector", "support_of",
    ),
    "ehrhart": (
        "EHRHART_ORACLE_CAPS", "OracleCaps", "hstar_closed_form",
        "hstar_oracle_interpolation", "hstar_oracle_parallelepiped", "is_symmetric",
        "is_unimodal", "payne_hstar_product", "payne_qvector",
    ),
    "freesum": ("FreeSumSplit", "compose", "decompose"),
    "idp": (
        "IDP_ORACLE_CAPS", "FacetWitness", "IdpResult", "idp_check",
        "idp_oracle_bruteforce", "necessary_condition",
    ),
    "lattice": (
        "count_dilate_points", "enumerate_dilate_points",
        "fundamental_parallelepiped_histogram", "fundamental_parallelepiped_points",
    ),
    "search": (
        "FILTER_NAMES", "CandidateReport", "SearchSpec", "SearchSummary",
        "VerificationReport", "evaluate_candidate", "iter_qvectors",
        "iter_reflexive_qvectors", "run_search", "two_support_rule",
        "verify_two_support_classification", "verify_two_support_unimodality",
    ),
    "support": (
        "SolutionSet", "SupportSystem", "build_system", "expand_solution",
        "reflexive_family", "solve_positive",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "linalg"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # Not cached in the package: a name always reads its module's current
    # binding, which a tracer may replace and restore.
    if name in _MODULE_OF:
        return getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
