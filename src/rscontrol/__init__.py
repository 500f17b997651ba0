"""Monte Carlo toolkit for mixed relaxed-singular stochastic control.

Simulates a two-component controlled SDE whose first component is affine in
itself with random action-indexed coefficients, solves the backward adjoint
equations by two independent methods, verifies the pointwise optimality
conditions of the associated Hamiltonian system, and improves control pairs
by conditional-gradient iterations on the convexified control set.  A
bond-portfolio/consumption application with proportional transaction costs
ships as a runnable scenario.
"""

import ctypes
import os

__version__ = "0.1.0"


def _keep_freed_arrays() -> None:
    """On glibc, keep freed blocks under 32 MiB in the heap for reuse (README, "Allocator policy")."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr (Windows), or not glibc
        return
    if glibc and "glibc.malloc." not in os.environ.get("GLIBC_TUNABLES", "") and not any(
        f"MALLOC_{n}_" in os.environ for n in ("MMAP_THRESHOLD", "TRIM_THRESHOLD", "TOP_PAD", "MMAP_MAX")):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's ceiling for its dynamic threshold
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, twice that, as glibc's dynamic rule sets it


_keep_freed_arrays()

from .measures import (
    ActionGrid,
    RelaxedControl,
    SingularControl,
    combine_singular,
    convex_combine,
    dirac,
    integrate_against,
    stieltjes_integral,
)
from .dynamics import (
    CoefficientField,
    Factored,
    MomentReport,
    NonFiniteStateError,
    StockModel,
    TimeGrid,
    TrajectoryBundle,
    brownian_increments,
    dense_field,
    inert_stock,
    linear_stock,
    moment_diagnostics,
    sample_coefficients,
    simulate_forward,
    simulate_forward_strict,
)
from .problems import (
    ControlProblem,
    RunningCost,
    TerminalCost,
    affine_quadratic_running,
    discounted_utility_running,
    linear_quadratic_terminal,
    tanh_wealth_terminal,
    zero_running,
)
from .adjoint import (
    AdjointSolution,
    fit_conditional,
    solve_adjoint_phi,
    solve_adjoint_regression,
)
from .maxprinciple import (
    HamiltonianSlice,
    OptimalityReport,
    VariationalDerivative,
    check_max_principle,
    hamiltonian_slice,
    variational_derivative,
)
from .optimizer import (
    CostEstimate,
    FirstVariation,
    IterationState,
    OptimizerOptions,
    OptimizeResult,
    evaluate_cost,
    first_variation_derivative,
    frank_wolfe_iterate,
    optimize_problem,
    solve_first_variation,
)
from .finance import (
    MarketModel,
    PortfolioParams,
    PortfolioProblem,
    build_portfolio_problem,
    integrated_volatility,
    product_grid,
)
