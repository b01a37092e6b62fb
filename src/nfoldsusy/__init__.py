"""Exact symbolic engine for the constraint structure of N-fold
supersymmetric quantum mechanics.

The package derives the intertwining constraints of a pair of Schroedinger
operators linked by an order-N charge, eliminates the potentials,
transforms the constraints through dimension-preserving changes of
variables, finds the integral constants by exact linear algebra, and
verifies the operator product identities modulo the constraint module --
everything over exact rationals.
"""

from .config import ConfigError
from .diffop import DiffOperator
from .diffring import (
    AmbientMismatchError,
    DerivOrderError,
    DiffPoly,
    Family,
    Generator,
    InhomogeneousError,
    Monomial,
    Substitution,
    ZeroPolynomialError,
    alpha,
    beta,
    c,
    gamma,
    replace_constants,
    u,
    vminus,
    vplus,
    w,
)
from .formatting import (
    format_operator,
    format_poly,
    poly_from_dict,
    poly_from_json,
    poly_to_dict,
    poly_to_json,
)
from .parsing import ParseError, parse
from .reduction import (
    Decomposition,
    EquivalenceVerdict,
    IntegralConstant,
    ProductReport,
    SearchExhausted,
    antiderivative,
    ideal_membership,
    monomial_basis,
    op_equivalent,
    search_integral,
    verify_product,
)
from .susy import (
    ConditionSet,
    InfeasibleError,
    ParamSolution,
    SusySystem,
    ansatz_substitution,
    build_system,
    check_J0,
    derive_conditions,
    eliminate_potentials,
    general_potentials,
    intertwiner,
    inverse_ansatz,
    pipeline,
    preset_parameters,
    solve_parameters,
    target_monomials,
    transformed_conditions,
    transformed_system,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
