"""Constructive solver for a singular nonlocal problem with Orlicz growth.

The package is organized around the chain the existence argument follows:
Young-function calculus (`young`), discrete Orlicz energies on the interval
(`orlicz`), the nonlocal operator in weak and strong form (`fractional`),
the regularized solve pipeline (`solver`), and the quantitative inequality
battery backing each step (`checks`). `cli` exposes the three commands.
"""

from .checks import CheckOutcome, check_comparison, run_check_suite
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    FglapError,
    InvariantError,
)
from .fractional import apply_interior, weak_form
from .orlicz import (
    GridFunction,
    Mesh,
    OperatorConfig,
    luxemburg_seminorm_W,
    modular_W,
)
from .solver import (
    ProblemData,
    SolveReport,
    boundary_energy_report,
    monotone_scheme,
    solve_auxiliary,
)
from .young import (
    DoublePowerYoung,
    LogTypeYoung,
    PhiWeight,
    PowerYoung,
    YoungFunction,
    make_young,
)

__version__ = "0.1.0"

__all__ = [
    "CheckOutcome",
    "ConfigurationError",
    "ConvergenceError",
    "DomainError",
    "DoublePowerYoung",
    "FglapError",
    "GridFunction",
    "InvariantError",
    "LogTypeYoung",
    "Mesh",
    "OperatorConfig",
    "PhiWeight",
    "PowerYoung",
    "ProblemData",
    "SolveReport",
    "YoungFunction",
    "apply_interior",
    "boundary_energy_report",
    "check_comparison",
    "luxemburg_seminorm_W",
    "make_young",
    "modular_W",
    "monotone_scheme",
    "run_check_suite",
    "solve_auxiliary",
    "weak_form",
    "__version__",
]
