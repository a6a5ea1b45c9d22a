"""quadgrad: a numerical laboratory for quasilinear elliptic problems whose
gradient nonlinearity grows quadratically and whose zeroth-order coefficient
is nonnegative.

The package computes the critical constants of the smallness analysis,
implements the exponential change of unknown with all proved bounds as
runtime-checkable predicates, and solves the truncated transformed problem by
fixed-point iteration on finite-difference grids, verifying the a priori
energy estimate along the way.
"""

from .constants import (
    CriticalReport,
    ProblemConstants,
    c_lambda_bound,
    check_smallness,
    compute_G,
    compute_theta,
    critical_report,
    delta1,
    phi,
    phi_at_min,
    solve_delta0,
    z_delta,
    zeros_y,
)
from .grid import (
    DiffusionOperator,
    Grid,
    MatrixField,
    ScalarField,
    VectorField,
    cg_solve,
    estimate_sobolev_constant,
    field_from_expression,
    gradient,
    h1_seminorm,
    hminus1_norm,
    lp_norm,
    read_field_csv,
    riesz_representative,
    write_field_csv,
)
from .nonlinearity import (
    HModel,
    f_hat,
    g_delta,
    k_delta,
    k_delta_signed,
    remainder,
    sign,
    sign_k,
    transform_forward,
    transform_inverse,
    transformed_terms,
    truncate,
)
from .solver import (
    IterationTrace,
    SolveData,
    SolverConfig,
    fixed_point_residual,
    inner_solve,
    k_continuation,
    norm_identity_gap,
    original_residual,
    outer_fixed_point,
)

__version__ = "0.1.0"
