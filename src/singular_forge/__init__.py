"""Numerical construction and verification of singular radial solutions of
-Laplace(u) = f(u) near the origin, for superlinear nonlinearities classified
by the limit q_f = lim f'(u) F(u)."""

from .classification import Classification, Regime, classify
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    FitError,
    GridError,
    InconclusiveError,
    IterateOutOfDomainError,
    NoContractionError,
    NoLimitError,
    OrderError,
    QuadratureError,
    SingularForgeError,
)
from .kernels import (
    KernelSet,
    convolve_cumulative,
    convolve_Q_cumulative,
    fundamental_pair,
    homogeneous_coeffs,
    homogeneous_pair,
    kernel_values,
    solve_linear_volterra,
    super_kernel,
    weight_P,
    wronskian,
)
from .nonlinearity import (
    Generic,
    Nonlinearity,
    PowerExpLog,
    PowerLog,
    PowerSum,
    PowerSumLog,
    PurePower,
    estimate_qf,
    eval_F,
    evaluate,
    from_spec,
)
from .profile import (
    Grid,
    ProfileContext,
    SolutionProfile,
    build_context,
    case_classify,
    nonlinear_term,
    tilde_u,
    to_radial,
)
from .solver import (
    RemainderSolution,
    apply_T,
    picard_solve,
    select_rho0,
    sweep,
    weighted_norm,
)
from .verify import (
    FitResult,
    RunReport,
    appendix_check,
    decay_fit,
    grid_span,
    limit_diagnostics,
    lipschitz_check,
    ode_residual_eta,
    ode_residual_radial,
    predicted_decay,
    rate_report,
    run_cell,
    run_report,
    sweep_report,
    table_cell,
)

__version__ = "0.1.0"
