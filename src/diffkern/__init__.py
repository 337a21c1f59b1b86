"""diffkern: Ruijsenaars-type difference operators, kernel functions, and
exact Koornwinder/Macdonald polynomials.

Modules:
    sigma        sigma-function families, theta/q-Pochhammer/elliptic gamma,
                 gamma functions G_{+-}
    laurent      exact Laurent-polynomial algebra, partitions, orbit sums
    operators    type-A and type-BC difference operators (numeric and exact)
    kernels      Cauchy and dual-Cauchy kernel functions
    verify       residual checks for every identity, report generation
    koornwinder  exact Koornwinder/Macdonald polynomials, explicit formulas
    cli          command-line entry point
"""

from .kernels import kern_phi0, phi_A, phi_BC, phi_BC_product, psi_A, psi_BC
from .koornwinder import (
    CollisionError,
    DegenerateParameterError,
    InterpKind,
    TheoremKind,
    TriangularSolveError,
    askey_wilson_p,
    cauchy_check_macdonald,
    column_formula,
    dual_cauchy_check,
    eigenvalue_d,
    expansion_check_E,
    expansion_check_H,
    interpolation_checks,
    koornwinder_poly,
    macdonald_poly,
    poly_E,
    poly_H,
    row_formula,
    theorem_equality,
)
from .laurent import (
    ExactParams,
    ExponentOverflowError,
    InexactDivisionError,
    LaurentPoly,
    Partition,
    dominance_leq,
    divide_exact,
    is_W_invariant,
    orbit_sum,
    partitions_in_box,
    poly_from_json,
    poly_to_json,
)
from .operators import (
    ParamsA,
    ParamsBC,
    apply_A,
    apply_D_BC,
    apply_E_BC,
    apply_koorn_mult,
    apply_macdonald_mult,
)
from .sigma import (
    DomainError,
    FamilyKind,
    GammaSign,
    PoleError,
    SigmaFamily,
    Truncation,
    elliptic_gamma,
    gamma_fn,
    qpoch,
    sigma_eval,
    theta_eval,
)
from .verify import IdentityId, Report, first_failure, run_suite

__all__ = [
    "kern_phi0",
    "phi_A",
    "phi_BC",
    "phi_BC_product",
    "psi_A",
    "psi_BC",
    "CollisionError",
    "DegenerateParameterError",
    "InterpKind",
    "TheoremKind",
    "TriangularSolveError",
    "askey_wilson_p",
    "cauchy_check_macdonald",
    "column_formula",
    "dual_cauchy_check",
    "eigenvalue_d",
    "expansion_check_E",
    "expansion_check_H",
    "interpolation_checks",
    "koornwinder_poly",
    "macdonald_poly",
    "poly_E",
    "poly_H",
    "row_formula",
    "theorem_equality",
    "ExactParams",
    "ExponentOverflowError",
    "InexactDivisionError",
    "LaurentPoly",
    "Partition",
    "dominance_leq",
    "divide_exact",
    "is_W_invariant",
    "orbit_sum",
    "partitions_in_box",
    "poly_from_json",
    "poly_to_json",
    "ParamsA",
    "ParamsBC",
    "apply_A",
    "apply_D_BC",
    "apply_E_BC",
    "apply_koorn_mult",
    "apply_macdonald_mult",
    "DomainError",
    "FamilyKind",
    "GammaSign",
    "PoleError",
    "SigmaFamily",
    "Truncation",
    "elliptic_gamma",
    "gamma_fn",
    "qpoch",
    "sigma_eval",
    "theta_eval",
    "IdentityId",
    "Report",
    "first_failure",
    "run_suite",
]

__version__ = "0.1.0"
