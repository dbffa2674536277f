"""Real binary forms: exact factorization, linear symmetries, Hamiltonian
dynamics and the component-chain verdict, with a JSON command line.

The exports are resolved on first use (PEP 562).  The package needs only
the standard library: the certificates run in exact integers and
Fractions, and every float path runs on Python floats."""

import importlib

_EXPORTS = {
    "errors": """BinformError BlowUpError DegreeZeroError ExprSyntaxError
        InvariantError NegativeExponentError NotFiniteOrderError
        NotHomogeneousError NotPositiveDefiniteError NotRefinedError
        StepLimitError ToleranceTooLooseError UnclassifiableCountsError
        UnknownIdentifierError ZeroPolynomialError""",
    "mat2": "Mat2",
    "polyring": """BivariatePoly HomogeneousForm WeightVector
        compose_linear divide_exact euler_check gcd_bivariate gcd_univariate
        jet_order partials quasi_homogeneous_check squarefree_decomposition""",
    "realfactor": """FactorizationStructure IsolatedRoot LinearFactor
        QuadraticFactor factor_form isolate_real_roots refine""",
    "symgroup": """DiagonalFamily FiniteCyclicGroup RotationFamily ShearFamily
        finite_order_of invariance_residual symmetry_group""",
    "hamfield": """PartitionDescription PlanarPolyField common_divisor
        conservation_defect hamiltonian_field partition_description
        reduced_field""",
    "verdict": "TheoremVerdict classify_case decide_theorem",
    "dynamics": """ClosedOrbits FlowConfig Orbit Portrait Trajectory closed_orbits
        integrate_flow invariant_contraction level_set mat_exp orbit_portrait
        shift_linear shift_map_apply shift_regularity""",
    "exprparse": "canonical_text parse_polynomial to_homogeneous",
    "render": "portrait_csv portrait_svg",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
