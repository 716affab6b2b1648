"""Regularized solve pipeline for the singular problem.

The chain mirrors the existence construction: truncated problems indexed
by n whose solutions increase toward the final one. One damped Newton loop
solves the auxiliary problem with a fixed right-hand side and each stage
with its singular term coupled in; `fixed_point_S`, the paper's iteration
over the frozen term, is kept as the oracle. Barriers, boundary energies,
and an interior regularity estimate provide the a posteriori diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ConvergenceError, DomainError, InvariantError
from .fractional import apply_interior, assemble_matrix, residual
from .orlicz import (GridFunction, Mesh, OperatorConfig, luxemburg_seminorm_W,
                     modular_W)
from .quadrature import invert_monotone
from .young import PhiWeight, submultiplicativity_constant

SUBMULT_GATE = 1e-12


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
            if not (self.q_star > 1.0):
                raise ConfigurationError("q_star must exceed 1")
            if q_strip > self.q_star + 1e-12:
                raise ConfigurationError(
                    f"q reaches {q_strip:g} on the boundary strip, above "
                    f"q_star = {self.q_star:g}")

    def validate_family(self, cfg: OperatorConfig) -> None:
        """Case main2 additionally needs a submultiplicative derivative and
        an admissible weight exponent; both checked at run start."""
        if self.case != "main2":
            return
        const = submultiplicativity_constant(cfg.young)
        if const <= SUBMULT_GATE:
            raise ConfigurationError(
                f"derivative is not usefully submultiplicative "
                f"(constant {const:.3g}); case main2 is not available")
        PhiWeight(cfg.young, self.q_star)  # raises if r q_star >= p_minus

    def truncated_load(self, n: int) -> np.ndarray:
        return np.minimum(self.f.values, float(n))

    def singular_rhs(self, u: GridFunction, n: int) -> np.ndarray:
        """f_n / (u_+ + 1/n)^q, the frozen right-hand side of one
        fixed-point stage."""
        base = np.maximum(u.values, 0.0) + 1.0 / n
        return self.truncated_load(n) * base ** (-self.q.values)


@dataclass
class SolveReport:
    mesh: Mesh
    cfg: OperatorConfig | None = None
    n_values: list[int] = field(default_factory=list)
    solutions: list[GridFunction] = field(default_factory=list)
    stage_iterations: list[int] = field(default_factory=list)
    seed_evaluations: list[int] = field(default_factory=list)
    residual_evaluations: list[int] = field(default_factory=list)
    line_search_backtracks: list[int] = field(default_factory=list)
    levenberg_shift_max: list[float] = field(default_factory=list)
    residual_sups: list[float] = field(default_factory=list)
    sup_diffs: list[float] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)
    energy_case: str = ""
    converged: bool = False
    l_middle: float = 0.0
    alpha_hat: float = float("nan")
    holder_seminorm: float = float("nan")
    warnings: list[str] = field(default_factory=list)

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
    """
    cone = 1.0 - np.abs(mesh.nodes)
    zero = np.zeros(mesh.m)
    evaluations = 0

    def total(t: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += t.size
        return np.array([np.sum(residual(cfg, GridFunction(mesh, tk * cone),
                                         zero).values[1:-1]) for tk in t])

    lo, hi = cfg.young.window
    target = float(np.sum(mesh.weights[1:-1] * rhs[1:-1]))
    try:
        scale = invert_monotone(total, target, (lo - 1.0, hi - 1.0), rtol=1e-3)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{what}: cone seeding failed ({exc})") from None
    return scale * cone, evaluations


def _newton(cfg: OperatorConfig, mesh: Mesh, load, warm_start: GridFunction | None,
            tol: float | None, max_iter: int, what: str) -> tuple[GridFunction, dict]:
    """Damped Newton for  A(u) = rhs(u)  with zero boundary values; load(u)
    returns rhs(u) and its nodal u-derivative d (None for a fixed load).
    Loads here are nonincreasing in u, so -w d adds a nonnegative diagonal
    and the matrix stays SPD. The default tolerance is 1e-8 (1 + max rhs)
    at the current iterate. A Levenberg shift, lam times the largest
    diagonal entry, grows lam tenfold after a failed line search and decays
    it tenfold after an accepted step. An accepted trial's load and residual
    carry over to the next step, so no residual is evaluated twice at one
    iterate. The stats hold the Newton steps, the final residual sup, the
    residual evaluations in all and those spent on cone seeding (0 for a
    warm start), the rejected line-search trials and the largest lam."""
    if max_iter < 1:
        raise ConfigurationError(f"{what}: max_iter must be at least 1, got {max_iter}")
    if warm_start is not None and warm_start.mesh.m != mesh.m:
        raise ConfigurationError(
            f"{what}: warm start has {warm_start.mesh.m} nodes, the mesh {mesh.m}")
    stats = {"iterations": 0, "residual_sup": 0.0, "residual_evaluations": 0,
             "seed_evaluations": 0, "line_search_backtracks": 0,
             "levenberg_shift_max": 0.0}
    if warm_start is not None and warm_start.sup_norm() > 0.0:
        u = warm_start.values.copy()
    else:
        rhs0, _ = load(np.zeros(mesh.m))
        if np.max(np.abs(rhs0[1:-1])) == 0.0:
            return GridFunction.zeros(mesh), stats
        u, stats["seed_evaluations"] = _seed_from_cone(cfg, mesh, rhs0, what)
        stats["residual_evaluations"] = stats["seed_evaluations"]
    u[0] = u[-1] = 0.0

    def evaluate(v: np.ndarray):
        rhs_v, d_v = load(v)
        stats["residual_evaluations"] += 1
        return rhs_v, d_v, residual(cfg, GridFunction(mesh, v), rhs_v).values[1:-1]

    rhs, d, r = evaluate(u)
    lam = 0.0
    for it in range(max_iter):
        lim = 1e-8 * (1.0 + float(np.max(np.abs(rhs)))) if tol is None else tol
        rn = float(np.max(np.abs(r)))
        if rn <= lim:
            break

        jac = assemble_matrix(cfg, GridFunction(mesh, u))
        diag = np.diag_indices_from(jac)
        if d is not None:
            jac[diag] -= mesh.weights[1:-1] * d[1:-1]
        if lam > 0.0:
            jac[diag] += lam * (float(np.max(np.abs(np.diag(jac)))) or 1.0)
            stats["levenberg_shift_max"] = max(stats["levenberg_shift_max"], lam)
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            lam = max(lam * 10.0, 1e-8)
            continue

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
        raise ConvergenceError(
            f"{what} exhausted {max_iter} iterations "
            f"(residual sup {rn:.3e}, tol {lim:.3e})")

    floor = float(u.min())
    if floor < -1e-9 * (1.0 + float(np.max(np.abs(u)))):
        raise InvariantError(
            f"{what}: nonnegative load produced a solution dipping to {floor:.3e}")
    stats["iterations"], stats["residual_sup"] = it, rn
    return GridFunction(mesh, np.maximum(u, 0.0)), stats


def solve_auxiliary(cfg: OperatorConfig, mesh: Mesh, rhs, *,
                    warm_start: GridFunction | None = None,
                    tol: float | None = None,
                    max_iter: int = 200) -> tuple[GridFunction, dict]:
    """`_newton` for  A(u) = rhs  with a fixed nonnegative load. The
    Hessian degenerates at u = 0 (g' vanishes there for our growth class),
    so cold starts are seeded by scaling a cone."""
    rhs_vals = rhs.values if isinstance(rhs, GridFunction) else np.asarray(rhs, float)
    if rhs_vals.shape != (mesh.m,):
        raise ConfigurationError("rhs must provide one value per node")
    if not np.all(np.isfinite(rhs_vals)):
        raise DomainError("the auxiliary load must be finite at every node")
    if float(rhs_vals.min()) < 0.0:
        raise DomainError("the auxiliary problem expects a nonnegative load")
    return _newton(cfg, mesh, lambda u: (rhs_vals, None), warm_start, tol,
                   max_iter, "auxiliary solve")


# ---------------------------------------------------------------------------
# fixed point in the frozen singular term


def fixed_point_S(cfg: OperatorConfig, data: ProblemData, n: int, *,
                  mesh: Mesh | None = None,
                  tol: float = 1e-8, max_iter: int = 500) -> tuple[GridFunction, dict]:
    """Iterate  u_{k+1} = solve_auxiliary(f_n (u_k^+ + 1/n)^{-q})  from
    u_0 = 0 until the sup change drops below tol."""
    if mesh is None:
        mesh = data.f.mesh
    u = GridFunction.zeros(mesh)
    stats = {}
    for k in range(max_iter):
        rhs = data.singular_rhs(u, n)
        warm = u if u.sup_norm() > 0.0 else None
        u_next, aux_stats = solve_auxiliary(cfg, mesh, rhs, warm_start=warm)
        diff = float(np.max(np.abs(u_next.values - u.values)))
        u = u_next
        if diff <= tol:
            stats = {"iterations": k + 1, "last_diff": diff,
                     "residual_sup": aux_stats.get("residual_sup", 0.0)}
            break
    else:
        raise ConvergenceError(
            f"fixed point for n = {n} did not settle in {max_iter} sweeps")
    return u, stats


# ---------------------------------------------------------------------------
# monotone truncation scheme


def _stage_load(data: ProblemData, mesh: Mesh, n: int):
    """Stage n's coupled load and its u-derivative (zero where u_+ is flat)."""
    def load(u: np.ndarray):
        rhs = data.singular_rhs(GridFunction(mesh, u), n)
        return rhs, np.where(u > 0.0, -data.q.values * rhs / (u + 1.0 / n), 0.0)
    return load


def monotone_scheme(cfg: OperatorConfig, data: ProblemData, *,
                    mesh: Mesh | None = None,
                    n_schedule: tuple[int, ...] = (1, 2, 4, 8, 16),
                    tol_stop: float = 1e-6,
                    tol_mono: float = 1e-7) -> SolveReport:
    """Solve the truncated problems along the n schedule, enforcing nodal
    monotonicity between stages and stopping early once consecutive stages
    agree to tol_stop in the sup norm. Each stage is one coupled Newton
    solve, started from the previous stage: a subsolution, because f_n and
    (t + 1/n)^(-q) both increase with n."""
    if mesh is None:
        mesh = data.f.mesh
    if (len(n_schedule) < 1 or n_schedule[0] < 1
            or any(b <= a for a, b in zip(n_schedule, n_schedule[1:]))):
        raise ConfigurationError("the n schedule must be strictly increasing "
                                 "and start at 1 or above")
    data.validate_family(cfg)

    report = SolveReport(mesh=mesh, cfg=cfg)
    weight = PhiWeight(cfg.young, data.q_star) if data.case == "main2" else None
    report.energy_case = data.case
    prev: GridFunction | None = None
    for n in n_schedule:
        u, stats = _newton(cfg, mesh, _stage_load(data, mesh, n), prev, None,
                           200, f"stage n = {n} (m = {mesh.m})")
        report.n_values.append(n)
        report.solutions.append(u)
        report.stage_iterations.append(stats["iterations"])
        report.seed_evaluations.append(stats["seed_evaluations"])
        report.residual_evaluations.append(stats["residual_evaluations"])
        report.line_search_backtracks.append(stats["line_search_backtracks"])
        report.levenberg_shift_max.append(stats["levenberg_shift_max"])
        report.residual_sups.append(stats["residual_sup"])
        report.energies.append(modular_W(cfg, _energy_carrier(u, weight)))
        if prev is not None:
            drop = float(np.min(u.values - prev.values))
            if drop < -tol_mono:
                err = InvariantError(
                    f"stage n = {n} dipped {-drop:.3e} below the previous "
                    f"stage; the truncation scheme must be monotone")
                err.snapshots = (prev.copy(), u.copy())
                raise err
            report.sup_diffs.append(float(np.max(np.abs(u.values - prev.values))))
            if report.sup_diffs[-1] <= tol_stop:
                report.converged = True
                prev = u
                break
        prev = u

    final = report.final
    mid = mesh.middle_half()
    report.l_middle = float(final.values[mid].min())
    if float(data.f.values.max()) > 0.0 and report.l_middle <= 0.0:
        raise InvariantError(
            "a nontrivial load must produce a solution bounded away from "
            "zero on the middle half")
    if data.f.is_even() and data.q.is_even() and mesh.m % 2 == 1:
        if not final.is_even(1e-9):
            raise InvariantError("even data produced an uneven solution")
    report.alpha_hat, report.holder_seminorm = holder_exponent_fit(final)
    return report


# ---------------------------------------------------------------------------
# diagnostics


def barrier_check(cfg: OperatorConfig, mesh: Mesh,
                  alphas: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0)) -> list[float]:
    """Minimum strong-form value of the boundary-distance barrier
    alpha (1 - x^2)_+^s over interior nodes, one entry per scale, with s the
    operator's own order.

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
    out = []
    for alpha in alphas:
        if alpha <= 0.0:
            raise ConfigurationError("barrier scales must be positive")
        barrier = GridFunction(mesh, alpha * profile)
        out.append(float(apply_interior(cfg, barrier).min()))
    return out


def _energy_carrier(u: GridFunction, weight: PhiWeight | None) -> GridFunction:
    if weight is None:
        return u
    return GridFunction(u.mesh, weight.phi(np.maximum(u.values, 0.0)))


def boundary_energy_report(report: SolveReport, data: ProblemData) -> dict:
    """Gauge seminorms along the schedule: of the solutions in case main1,
    of their composition with the boundary weight in case main2. Flags
    whether the sequence stays within twice the median of its last three
    entries."""
    if report.cfg is None:
        raise ConfigurationError("the report carries no operator settings")
    cfg = report.cfg
    weight = PhiWeight(cfg.young, data.q_star) if data.case == "main2" else None
    energies = [luxemburg_seminorm_W(cfg, _energy_carrier(u, weight))
                for u in report.solutions]
    ref = float(np.median(energies[-3:])) if energies else 0.0
    bounded = all(e <= 2.0 * ref + 1e-12 for e in energies)
    return {"case": data.case, "energies": energies,
            "reference": ref, "bounded": bounded}


def holder_exponent_fit(u: GridFunction, *,
                        window: np.ndarray | None = None) -> tuple[float, float]:
    """Interior regularity estimate on the middle half.

    For every node distance d up to half the window width, take the largest
    increment over node pairs at that distance (the increment envelope),
    then fit log envelope against log d by least squares. The envelope
    rather than all pairs: interior flats would otherwise drag the fitted
    slope far below the true growth rate. Returns (exponent, seminorm).
    """
    mask = u.mesh.middle_half() if window is None else window
    vals = u.values[mask]
    if vals.size < 3:
        return 1.0, 0.0
    h = u.mesh.h
    width = (vals.size - 1) * h
    k_max = max(int(np.floor(0.5 * width / h)), 1)
    ds, env = [], []
    for k in range(1, k_max + 1):
        e = float(np.max(np.abs(vals[k:] - vals[:-k])))
        if e > 0.0:
            ds.append(k * h)
            env.append(e)
    if len(ds) < 2:
        return 1.0, 0.0
    slope, _ = np.polyfit(np.log(ds), np.log(env), 1)
    if not np.isfinite(slope) or slope <= 0.0:
        return 1.0, 0.0
    alpha = float(min(slope, 1.0))
    semi = 0.0
    for k, (d, e) in enumerate(zip(ds, env)):
        semi = max(semi, e / d ** alpha)
    return alpha, float(semi)
