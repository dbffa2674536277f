"""Real binary forms: exact factorization, linear symmetries, Hamiltonian
dynamics and the component-chain verdict, with a JSON command line."""

from .errors import (
    BinformError,
    BlowUpError,
    DegreeZeroError,
    ExprSyntaxError,
    InvariantError,
    NegativeExponentError,
    NotFiniteOrderError,
    NotHomogeneousError,
    NotPositiveDefiniteError,
    NotRefinedError,
    StepLimitError,
    ToleranceTooLooseError,
    UnclassifiableCountsError,
    UnknownIdentifierError,
    ZeroPolynomialError,
)
from .mat2 import Mat2
from .polyring import (
    BivariatePoly,
    HomogeneousForm,
    UnivariatePoly,
    WeightVector,
    compose_linear,
    divide_exact,
    euler_check,
    gcd_bivariate,
    gcd_univariate,
    jet_order,
    partials,
    quasi_homogeneous_check,
    squarefree_decomposition,
)
from .realfactor import (
    FactorizationStructure,
    IsolatedRoot,
    LinearFactor,
    QuadraticFactor,
    dehomogenize,
    factor_form,
    isolate_real_roots,
    refine,
)
from .symgroup import (
    DiagonalFamily,
    FiniteCyclicGroup,
    PermCandidate,
    RotationFamily,
    ShearFamily,
    TransportFamily,
    finite_order_of,
    induced_permutation,
    invariance_residual,
    oracle_scan,
    quadratic_transport,
    symmetry_group,
)
from .hamfield import (
    PartitionDescription,
    PlanarPolyField,
    common_divisor,
    conservation_defect,
    hamiltonian_field,
    partition_description,
    reduced_field,
)
from .verdict import TheoremVerdict, classify_case, decide_theorem
from .dynamics import (
    FlowConfig,
    Orbit,
    Portrait,
    Trajectory,
    integrate_flow,
    invariant_contraction,
    level_set,
    mat_exp,
    orbit_portrait,
    shift_linear,
    shift_map_apply,
    shift_regularity,
)
from .exprparse import (
    canonical_text,
    parse_expression,
    parse_polynomial,
    to_homogeneous,
)
from .render import portrait_csv, portrait_svg

__version__ = "0.1.0"
