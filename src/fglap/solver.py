"""Regularized solve pipeline for the singular problem.

The chain mirrors the existence construction: truncated problems indexed
by n whose solutions increase toward the final one. One damped Newton loop
solves the auxiliary problem with a fixed right-hand side and each stage
with its singular term coupled in. Barriers, boundary energies, and an
interior regularity estimate provide the a posteriori diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ConvergenceError, DomainError, InvariantError
from .fractional import (JacobianProduct, apply_interior, assemble_matrix,
                         diagonal_view, fold, jacobian_product, mirror,
                         residual)
from .orlicz import (CG_MAX_S, CG_MIN_UNKNOWNS, GridFunction, Mesh,
                     OperatorConfig, luxemburg_seminorm_W, modular_W)
from .quadrature import invert_monotone
from .young import PhiWeight, submultiplicativity_constant

SUBMULT_GATE = 1e-12
# the scheme stops once consecutive stages agree to TOL_STOP in the sup norm,
# and refuses a stage that dips more than TOL_MONO below the previous one
TOL_STOP = 1e-6
TOL_MONO = 1e-7
# Newton steps allowed per solve, auxiliary or stage
NEWTON_MAX_ITER = 200
# the Newton direction of a system of at least CG_MIN_UNKNOWNS unknowns at an
# order s of at most CG_MAX_S (both from `orlicz`, whose power-4 FFT path
# they gate too) comes from `_pcg`, to a relative residual that `_newton`
# forces to its own residual, clipped to [CG_RTOL, CG_RTOL_MAX]; a smaller
# system, or one of a higher order, is factorized
CG_RTOL = 1e-6
CG_RTOL_MAX = 1e-2
# the scales alpha at which `barrier_check` evaluates its barrier
BARRIER_SCALES = (2.0, 4.0, 8.0, 16.0)


@dataclass
class ProblemData:
    """Load f >= 0, singular exponent field q >= 0, and which structural
    case the run claims: "main1" (exponent at most 1 near the boundary) or
    "main2" (larger exponents near the boundary, controlled by q_star)."""

    f: GridFunction
    q: GridFunction
    case: str = "main1"
    q_star: float | None = None
    delta: float = 0.25

    def __post_init__(self):
        if self.case not in ("main1", "main2"):
            raise ConfigurationError("case must be 'main1' or 'main2'")
        if self.f.mesh.m != self.q.mesh.m:
            raise ConfigurationError("f and q must share a mesh")
        if np.any(self.f.values < 0.0):
            raise ConfigurationError("the load f must be nonnegative")
        if np.any(self.q.values < 0.0):
            raise ConfigurationError("the exponent field q must be nonnegative")
        if not (0.0 < self.delta < 1.0):
            raise ConfigurationError("the boundary strip width must lie in (0, 1)")
        strip = 1.0 - np.abs(self.f.mesh.nodes) <= self.delta + 1e-12
        q_strip = float(self.q.values[strip].max()) if strip.any() else 0.0
        if self.case == "main1":
            if q_strip > 1.0 + 1e-12:
                raise ConfigurationError(
                    f"case main1 needs q <= 1 near the boundary; found {q_strip:g}")
        else:
            if self.q_star is None:
                raise ConfigurationError("case main2 needs q_star")
            if q_strip > self.q_star + 1e-12:
                raise ConfigurationError(
                    f"q reaches {q_strip:g} on the boundary strip, above "
                    f"q_star = {self.q_star:g}")

    def validate_family(self, cfg: OperatorConfig) -> PhiWeight | None:
        """Case main2 additionally needs a submultiplicative derivative and
        an admissible weight exponent; both checked at run start. Returns
        the boundary weight of case main2, None in case main1."""
        if self.case != "main2":
            return None
        const = submultiplicativity_constant(cfg.young)
        if const <= SUBMULT_GATE:
            raise ConfigurationError(
                f"derivative is not usefully submultiplicative "
                f"(constant {const:.3g}); case main2 is not available")
        return PhiWeight(cfg.young, self.q_star)  # raises if r q_star >= p_minus

    def truncated_load(self, n: int) -> np.ndarray:
        return np.minimum(self.f.values, float(n))

    def singular_rhs(self, u: GridFunction, n: int) -> np.ndarray:
        """f_n / (u_+ + 1/n)^q, the frozen right-hand side of one
        fixed-point stage."""
        base = np.maximum(u.values, 0.0) + 1.0 / n
        return self.truncated_load(n) * base ** (-self.q.values)


@dataclass
class SolveReport:
    """One list entry per stage: ``newton`` holds `_newton`'s stats as
    returned. ``weight`` is the boundary weight of case main2, None in
    case main1. The scheme computes no energy; `boundary_energy_report`
    evaluates the stages' energies for the readers that want them."""

    mesh: Mesh
    cfg: OperatorConfig
    n_values: list[int] = field(default_factory=list)
    solutions: list[GridFunction] = field(default_factory=list)
    newton: list[dict] = field(default_factory=list)
    sup_diffs: list[float] = field(default_factory=list)
    weight: PhiWeight | None = None
    converged: bool = False
    l_middle: float = 0.0
    alpha_hat: float = float("nan")
    holder_seminorm: float = float("nan")

    @property
    def final(self) -> GridFunction:
        if not self.solutions:
            raise InvariantError("report holds no solutions")
        return self.solutions[-1]


# ---------------------------------------------------------------------------
# one Newton loop: fixed loads and coupled stage loads


def _seed_from_cone(cfg: OperatorConfig, mesh: Mesh, rhs: np.ndarray,
                    what: str) -> tuple[np.ndarray, int]:
    """Scalar pre-seed: the cone scale t at which the summed residual
    vanishes, and the residual evaluations spent finding it.

    Summed over the interior, the interior pairs of A(t cone) cancel and
    what is left is a positive sum of g-terms, so t -> sum A(t cone) grows
    with elasticity in [p_minus - 1, p_plus - 1]; the growth-window
    inverter solves sum A(t cone) = sum w rhs to 1e-3 in t.

    The cone is even and the residual is unloaded, so on an odd mesh each
    evaluation runs on the rows up to the centre (``even=True``), for
    stages and auxiliary solves alike. Its sum can differ from the full
    rows' in the last bits, because a full row and its mirror sum the same
    terms in opposite orders, and the scale t with it.
    """
    cone = 1.0 - np.abs(mesh.nodes)
    zero = np.zeros(mesh.m)
    even = mesh.m % 2 == 1
    evaluations = 0

    def total(t: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += t.size
        return np.array([np.sum(residual(cfg, GridFunction(mesh, tk * cone),
                                         zero, even=even).values[1:-1])
                         for tk in t])

    lo, hi = cfg.young.window
    target = float(np.sum(mesh.weights[1:-1] * rhs[1:-1]))
    try:
        scale = invert_monotone(total, target, (lo - 1.0, hi - 1.0), rtol=1e-3)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{what}: cone seeding failed ({exc})") from None
    return scale * cone, evaluations


def _pcg(a, b: np.ndarray, rtol: float) -> tuple[np.ndarray | None, int]:
    """Jacobi-preconditioned conjugate gradients for the symmetric
    positive definite system a x = b, a a matrix or a `JacobianProduct`
    (anything with ``a @ x`` and ``a.diagonal()``): x and the iterations
    taken. It starts from x = 0 and stops once ||b - a x||_2 <= rtol
    ||b||_2. x is None when n // 8 iterations, n the unknowns, do not get
    there, or on a breakdown: a diagonal entry or p^T a p that is not
    positive and finite. Each iteration is one product with a. The
    Jacobi-scaled Newton matrices have condition numbers growing like
    n^(2s), so CG needs about n^s iterations where a factorization costs
    about n."""
    diag = a.diagonal()
    if not np.all((diag > 0.0) & (diag < np.inf)):
        return None, 0
    inv = 1.0 / diag
    x = np.zeros_like(b)
    r = b.copy()
    z = inv * r
    p = z.copy()
    rz = float(r @ z)
    stop = rtol * rtol * float(b @ b)
    cap = b.size // 8
    for it in range(1, cap + 1):
        q = a @ p
        pq = float(p @ q)
        if not 0.0 < pq < np.inf:
            return None, it
        step = rz / pq
        x += step * p
        r -= step * q
        if float(r @ r) <= stop:
            return x, it
        z = inv * r
        rz, rz_prev = float(r @ z), rz
        p *= rz / rz_prev
        p += z
    return None, cap


def _forcing(rn: float, scale: float) -> float:
    """The relative residual `_pcg` is run to in a Newton step: the
    residual sup ``rn`` over ``scale`` = 1 + max|rhs|, the scale of the
    stop test 1e-8 (1 + max|rhs|), clipped to [CG_RTOL, CG_RTOL_MAX]. Above
    loads of order 1 it is the residual relative to the load, unchanged
    when both are scaled together; the 1 makes it absolute below."""
    return min(CG_RTOL_MAX, max(CG_RTOL, rn / scale))


def _takes_cg(unknowns: int, s: float) -> bool:
    """Whether `_direction` runs CG on a system of this size and order."""
    return unknowns >= CG_MIN_UNKNOWNS and s <= CG_MAX_S


def _jacobian(cfg: OperatorConfig, u: GridFunction, even: bool,
              unknowns: int) -> tuple:
    """The Newton matrix at u as `_direction` takes it, and a writable
    view of its diagonal on the live unknowns: the `JacobianProduct` where
    CG takes the system and the far pairs go by FFT, and otherwise the
    matrix `assemble_matrix` returns."""
    jac = jacobian_product(cfg, u, even=even) if _takes_cg(unknowns, cfg.s) else None
    if jac is None:
        jac = assemble_matrix(cfg, u, even=even)
        return jac, diagonal_view(jac)
    return jac, jac.diag


def _direction(jac, r: np.ndarray, even: bool, s: float, rtol: float,
               stats: dict) -> np.ndarray:
    """The Newton direction on the live unknowns of `_newton`: the
    solution of J delta = -r, J the Jacobian on them, from ``jac`` as
    `assemble_matrix` returns it (with ``even``, the block that `fold`
    reduces), which it overwrites, or as a `JacobianProduct`. With at
    least CG_MIN_UNKNOWNS unknowns and s <= CG_MAX_S, and always for a
    `JacobianProduct`, it runs `_pcg` to the relative residual ``rtol``
    and adds its iterations and a fallback to ``stats``; otherwise, or
    when CG gives up, it factorizes (a `JacobianProduct` assembles its
    matrix first), and a singular matrix raises LinAlgError.

    The folded matrix is not symmetric, but with its rows scaled by
    D = diag(2, ..., 2, 1) it is E^T J E, E the mirror map from the half
    unknowns to all of them, so CG solves D fold(J) delta = -D r. A
    `JacobianProduct` with ``even`` is D fold(J) already."""
    b = -r
    if isinstance(jac, JacobianProduct):
        a = jac
    else:
        a = fold(jac) if even else jac
        if not _takes_cg(b.size, s):
            return np.linalg.solve(a, b)
        if even:
            a[:-1] *= 2.0
    if even:
        b[:-1] *= 2.0
    delta, iterations = _pcg(a, b, rtol)
    stats["cg_iterations"] += iterations
    stats["cg_fallbacks"] += delta is None
    if delta is not None:
        return delta
    return np.linalg.solve(a.dense() if isinstance(a, JacobianProduct) else a, b)


def _newton(cfg: OperatorConfig, mesh: Mesh, load, warm_start: GridFunction | None,
            what: str, even: bool = False) -> tuple[GridFunction, dict]:
    """Damped Newton for  A(u) = rhs(u)  with zero boundary values; load(u)
    returns rhs(u) and its nodal u-derivative d (None for a fixed load).
    Loads here are nonincreasing in u, so -w d adds a nonnegative diagonal
    and the matrix stays SPD. The tolerance is 1e-8 (1 + max rhs) at the
    current iterate, to be reached within NEWTON_MAX_ITER steps. A
    Levenberg shift, lam times the largest diagonal entry, grows lam
    tenfold after a failed line search and decays it tenfold after an
    accepted step. An accepted trial's load and residual carry over to
    the next step, so neither is evaluated twice at one iterate, and the
    assembly there reuses the residual's local G values and quotients
    (see `fractional`). The Jacobian is assembled only at accepted
    iterates, never at a line-search trial, where an overshoot may
    overflow its g and g' terms; it lives in the far-pair buffers, so a
    step allocates no m x m array of its own. Where the far pairs go by
    FFT (power 4 at s <= CG_MAX_S on at least 257 nodes, see
    `orlicz.ToeplitzFar`) it is not assembled at all: `_jacobian` returns
    a `JacobianProduct`, whose products CG takes, and the load derivative
    and the Levenberg shift go onto its diagonal. A warm start that is the
    previous solve's last accepted iterate was evaluated there, so its
    first residual only subtracts the new load from that evaluation's
    record (see `fractional`); the stats count it as an evaluation all
    the same.

    The direction (`_direction`) solves the Jacobian system in those
    buffers. With at least CG_MIN_UNKNOWNS unknowns and s <= CG_MAX_S it
    is an inexact Newton step, `_pcg` to the relative residual
    eta = ||r||_inf / (1 + max|rhs|), the Newton residual on the scale of
    the stop test, clipped to [CG_RTOL, CG_RTOL_MAX]: loose on the first
    steps, and down to CG_RTOL as Newton converges. A forcing term of
    order ||r|| keeps Newton's quadratic convergence (Dembo, Eisenstat
    and Steihaug, SIAM J. Numer. Anal. 19, 1982; Eisenstat and Walker,
    SIAM J. Sci. Comput. 17, 1996). A smaller system, a higher order, or
    a CG run that gives up takes LAPACK's LU (`np.linalg.solve`), on the
    assembled matrix, and a singular matrix there raises lam.

    The stats hold the Newton steps, the final residual sup, the residual
    evaluations in all and those spent on cone seeding (0 for a warm
    start), the rejected line-search trials, the largest lam, the CG
    iterations and the CG runs that fell back to the LU. A warm start that
    vanishes identically counts as a cold start. A solve that runs out of
    steps names the node of its largest residual entry.

    ``even`` (odd m, a load that maps even u to even rhs) solves for the
    interior nodes up to the centre only: the iterate is kept even, the
    residual is evaluated on those rows, the Jacobian rows are folded onto
    them by `fold`, and each step is mirrored back. Everything else,
    stats included, is as on the full system."""
    if warm_start is not None and warm_start.mesh.m != mesh.m:
        raise ConfigurationError(
            f"{what}: warm start has {warm_start.mesh.m} nodes, the mesh {mesh.m}")
    stats = {"iterations": 0, "residual_sup": 0.0, "residual_evaluations": 0,
             "seed_evaluations": 0, "line_search_backtracks": 0,
             "levenberg_shift_max": 0.0, "cg_iterations": 0, "cg_fallbacks": 0}
    if warm_start is not None and warm_start.sup_norm() > 0.0:
        u = warm_start.values.copy()
    else:
        rhs0, _ = load(np.zeros(mesh.m))
        if np.max(np.abs(rhs0[1:-1])) == 0.0:
            return GridFunction.zeros(mesh), stats
        u, stats["seed_evaluations"] = _seed_from_cone(cfg, mesh, rhs0, what)
        stats["residual_evaluations"] = stats["seed_evaluations"]
    u[0] = u[-1] = 0.0
    # the nodes whose equations are solved
    live = slice(1, (mesh.m + 1) // 2 if even else mesh.m - 1)
    if even:
        u = mirror(u[:live.stop])

    def evaluate(v: np.ndarray):
        rhs_v, d_v = load(v)
        stats["residual_evaluations"] += 1
        res = residual(cfg, GridFunction(mesh, v), rhs_v, even=even)
        return rhs_v, d_v, res.values[live]

    rhs, d, r = evaluate(u)
    lam = 0.0
    for it in range(NEWTON_MAX_ITER):
        scale = 1.0 + float(np.max(np.abs(rhs)))
        lim = 1e-8 * scale
        rn = float(np.max(np.abs(r)))
        if rn <= lim:
            break

        jac, diag = _jacobian(cfg, GridFunction(mesh, u), even, r.size)
        if d is not None:
            diag -= mesh.weights[live] * d[live]
        if lam > 0.0:
            diag += lam * (float(np.max(np.abs(diag))) or 1.0)
            stats["levenberg_shift_max"] = max(stats["levenberg_shift_max"], lam)
        try:
            delta = _direction(jac, r, even, cfg.s, _forcing(rn, scale), stats)
        except np.linalg.LinAlgError:
            lam = max(lam * 10.0, 1e-8)
            continue
        if even:
            delta = mirror(delta)

        for step in (0.5 ** k for k in range(8)):
            trial = u.copy()
            trial[1:-1] += step * delta
            try:
                rhs_t, d_t, rt = evaluate(trial)
            except DomainError:  # g overflowed at a far trial: reject it like any other
                rt = np.inf
            if float(np.max(np.abs(rt))) < rn:
                u, rhs, d, r = trial, rhs_t, d_t, rt
                lam = lam * 0.1 if lam * 0.1 >= 1e-14 else 0.0
                break
            stats["line_search_backtracks"] += 1
        else:
            lam = max(lam * 10.0, 1e-8)
    else:
        # the last accepted iterate's residual, which the last step updated
        worst = int(np.argmax(np.abs(r)))
        raise ConvergenceError(
            f"{what} exhausted {NEWTON_MAX_ITER} iterations "
            f"(residual sup {abs(r[worst]):.3e}, tol {lim:.3e}), largest at "
            f"x = {mesh.nodes[live][worst]:.6g}")

    floor = float(u.min())
    if floor < -1e-9 * (1.0 + float(np.max(np.abs(u)))):
        raise InvariantError(
            f"{what}: nonnegative load produced a solution dipping to {floor:.3e}")
    stats["iterations"], stats["residual_sup"] = it, rn
    return GridFunction(mesh, np.maximum(u, 0.0)), stats


def solve_auxiliary(cfg: OperatorConfig, mesh: Mesh, rhs: np.ndarray, *,
                    warm_start: GridFunction | None = None
                    ) -> tuple[GridFunction, dict]:
    """`_newton` for  A(u) = rhs  with a fixed nonnegative load. The
    Hessian degenerates at u = 0 (g' vanishes there for our growth class),
    so cold starts are seeded by scaling a cone."""
    rhs_vals = np.asarray(rhs, float)
    if rhs_vals.shape != (mesh.m,):
        raise ConfigurationError("rhs must provide one value per node")
    if not np.all(np.isfinite(rhs_vals)):
        raise DomainError("the auxiliary load must be finite at every node")
    if float(rhs_vals.min()) < 0.0:
        raise DomainError("the auxiliary problem expects a nonnegative load")
    return _newton(cfg, mesh, lambda u: (rhs_vals, None), warm_start,
                   "auxiliary solve")


# ---------------------------------------------------------------------------
# monotone truncation scheme


def _stage_load(data: ProblemData, mesh: Mesh, n: int):
    """Stage n's coupled load and its u-derivative (zero where u_+ is flat)."""
    def load(u: np.ndarray):
        rhs = data.singular_rhs(GridFunction(mesh, u), n)
        return rhs, np.where(u > 0.0, -data.q.values * rhs / (u + 1.0 / n), 0.0)
    return load


def check_schedule(n_schedule: tuple[int, ...]) -> None:
    """Raise unless the truncation levels increase strictly from 1 up."""
    if (len(n_schedule) < 1 or n_schedule[0] < 1
            or any(b <= a for a, b in zip(n_schedule, n_schedule[1:]))):
        raise ConfigurationError("n_schedule must be strictly increasing and "
                                 "start at 1 or above")


def monotone_scheme(cfg: OperatorConfig, data: ProblemData, *,
                    mesh: Mesh | None = None,
                    n_schedule: tuple[int, ...] = (1, 2, 4, 8, 16),
                    weight: PhiWeight | None = None) -> SolveReport:
    """Solve the truncated problems along the n schedule, enforcing nodal
    monotonicity between stages and stopping early once consecutive stages
    agree to TOL_STOP in the sup norm. Each stage is one coupled Newton
    solve, started from the previous stage: a subsolution, because f_n and
    (t + 1/n)^(-q) both increase with n. The data are nodal, so ``mesh``
    (by default the data's) must have the data's node count.

    When m is odd and f and q are even, every stage is even, and `_newton`
    solves it with ``even``; the stages equal the full system's to
    rounding, with the same Newton steps. Uneven data and even m take the
    full system.

    ``weight`` is the boundary weight that ``data.validate_family(cfg)``
    returned to a caller that validated the family already; without it
    the family is validated here."""
    mesh = data.f.mesh if mesh is None else mesh
    if mesh.m != data.f.mesh.m:
        raise ConfigurationError(
            f"the mesh has {mesh.m} nodes, the problem data {data.f.mesh.m}")
    check_schedule(n_schedule)
    if weight is None:
        weight = data.validate_family(cfg)
    report = SolveReport(mesh=mesh, cfg=cfg, weight=weight)
    # the operator commutes with x -> -x, so even data have even stages
    even = mesh.m % 2 == 1 and data.f.is_even() and data.q.is_even()
    prev: GridFunction | None = None
    for n in n_schedule:
        u, stats = _newton(cfg, mesh, _stage_load(data, mesh, n), prev,
                           f"stage n = {n} (m = {mesh.m})", even)
        report.n_values.append(n)
        report.solutions.append(u)
        report.newton.append(stats)
        if prev is not None:
            gap = u.values - prev.values
            drop = float(np.min(gap))
            if drop < -TOL_MONO:
                raise InvariantError(
                    f"stage n = {n} dipped {-drop:.3e} below the previous "
                    f"stage at x = {mesh.nodes[np.argmin(gap)]:.6g}; the "
                    f"truncation scheme must be monotone")
            report.sup_diffs.append(float(np.max(np.abs(gap))))
            if report.sup_diffs[-1] <= TOL_STOP:
                report.converged = True
                break
        prev = u

    final = report.final
    mid = mesh.middle_half()
    report.l_middle = float(final.values[mid].min())
    if float(data.f.values.max()) > 0.0 and report.l_middle <= 0.0:
        raise InvariantError(
            "a nontrivial load must produce a solution bounded away from "
            "zero on the middle half")
    report.alpha_hat, report.holder_seminorm = holder_exponent_fit(final)
    return report


# ---------------------------------------------------------------------------
# diagnostics


def barrier_check(cfg: OperatorConfig, mesh: Mesh) -> list[float]:
    """Minimum strong-form value of the boundary-distance barrier
    alpha (1 - x^2)_+^s over interior nodes, one entry per scale in
    BARRIER_SCALES, with s the operator's own order.

    d^s is the standard barrier for order-s operators (Ros-Oton and Serra,
    J. Math. Pures Appl. 101, 2014): its strong form is positive in the
    interior, and the minimum increases with alpha (by exactly the factor
    (alpha'/alpha)^(p-1) for a power family, by homogeneity; measured for
    the double-power and log-type reference families). This is not the
    cone used to seed the stage solves; the cone's kink at the boundary
    makes its strong form negative there. Whether the source
    paper's barrier argument uses this profile is not settled by the
    abstract this package is built from.
    """
    profile = np.clip(1.0 - mesh.nodes ** 2, 0.0, None) ** cfg.s
    return [float(apply_interior(cfg, GridFunction(mesh, a * profile)).min())
            for a in BARRIER_SCALES]


def boundary_energy_report(report: SolveReport) -> dict:
    """Energies of the stages along the schedule, of their solutions in
    case main1 and of the solutions' positive parts composed with the
    report's boundary weight in case main2, which ``case`` names.
    ``modular`` holds each stage's modular energy, ``energies`` its gauge
    seminorm. Flags whether the seminorms stay within twice the median of
    their last three entries."""
    weight = report.weight
    carriers = (report.solutions if weight is None else
                [GridFunction(u.mesh, weight.phi(np.maximum(u.values, 0.0)))
                 for u in report.solutions])
    modular = [modular_W(report.cfg, c) for c in carriers]
    energies = [luxemburg_seminorm_W(report.cfg, c) for c in carriers]
    last = sorted(energies[-3:]) or [0.0]
    ref = 0.5 * (last[(len(last) - 1) // 2] + last[len(last) // 2])
    bounded = all(e <= 2.0 * ref + 1e-12 for e in energies)
    return {"case": "main1" if weight is None else "main2", "modular": modular,
            "energies": energies, "reference": ref, "bounded": bounded}


def holder_exponent_fit(u: GridFunction) -> tuple[float, float]:
    """Interior regularity estimate on the middle half |x| <= 1/2.

    For every node distance d up to half that window's width, take the largest
    increment over node pairs at that distance (the increment envelope),
    then fit log envelope against log d by least squares, in closed form:
    with x = log d and y = log envelope the slope is
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2, which needs no
    LAPACK solve. The envelope rather than all pairs: interior flats would
    otherwise drag the fitted slope far below the true growth rate.
    Returns (exponent, seminorm).
    """
    vals = u.values[u.mesh.middle_half()]
    if vals.size < 3:
        return 1.0, 0.0
    h = u.mesh.h
    ds, env = [], []
    for k in range(1, (vals.size - 1) // 2 + 1):
        e = float(np.max(np.abs(vals[k:] - vals[:-k])))
        if e > 0.0:
            ds.append(k * h)
            env.append(e)
    if len(ds) < 2:
        return 1.0, 0.0
    x = np.log(ds)
    x -= x.mean()
    y = np.log(env)
    slope = (x @ (y - y.mean())) / (x @ x)
    if not np.isfinite(slope) or slope <= 0.0:
        return 1.0, 0.0
    alpha = float(min(slope, 1.0))
    return alpha, float(max(e / d ** alpha for d, e in zip(ds, env)))
