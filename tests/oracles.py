"""Reference computations that the tests compare the package against and
that no command runs.

`fixed_point_S` is the paper's construction of each truncated problem's
solution: the load's singular factor is frozen at the previous iterate,
and one auxiliary solve gives the next. Acceptance criterion 3 compares
its limit with Newton on the fully coupled truncated system, whose load
derivative sits on the Jacobian diagonal, and the solver tests compare it
with each coupled Newton stage of `monotone_scheme`: all three must solve
the same truncated problem. `modular_LG` and `luxemburg_norm_LG` are the
local Orlicz modular and its Luxemburg norm, which the gauge tests set
against the nonlocal seminorm.
"""

from __future__ import annotations

import numpy as np

from fglap.errors import ConvergenceError
from fglap.orlicz import GridFunction, OperatorConfig, _luxemburg
from fglap.solver import ProblemData, solve_auxiliary
from fglap.young import YoungFunction

# `fixed_point_S` stops once a sweep moves u by at most FIXED_POINT_TOL in
# the sup norm, and gives up after FIXED_POINT_MAX_SWEEPS
FIXED_POINT_TOL = 1e-8
FIXED_POINT_MAX_SWEEPS = 500


def fixed_point_S(cfg: OperatorConfig, data: ProblemData,
                  n: int) -> tuple[GridFunction, dict]:
    """Iterate  u_{k+1} = solve_auxiliary(f_n (u_k^+ + 1/n)^{-q})  on the
    data's mesh from u_0 = 0 until the sup change drops below
    FIXED_POINT_TOL."""
    mesh = data.f.mesh
    u = GridFunction.zeros(mesh)
    for k in range(FIXED_POINT_MAX_SWEEPS):
        rhs = data.singular_rhs(u, n)
        u_next, aux_stats = solve_auxiliary(cfg, mesh, rhs, warm_start=u)
        diff = float(np.max(np.abs(u_next.values - u.values)))
        u = u_next
        if diff <= FIXED_POINT_TOL:
            return u, {"iterations": k + 1, "last_diff": diff,
                       "residual_sup": aux_stats.get("residual_sup", 0.0)}
    raise ConvergenceError(f"fixed point for n = {n} did not settle in "
                           f"{FIXED_POINT_MAX_SWEEPS} sweeps")


def modular_LG(u: GridFunction, yf: YoungFunction) -> float:
    """Trapezoid integral of G(|u|) over the interval."""
    return float(np.sum(u.mesh.weights * yf.G(u.values)))


def luxemburg_norm_LG(u: GridFunction, yf: YoungFunction) -> float:
    """Scaling lam with modular_LG(u/lam) = 1."""
    return _luxemburg(lambda v: modular_LG(v, yf), u, yf.window)
