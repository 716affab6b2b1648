"""Randomized verification of the quantitative inequalities the solver
leans on.

Each check draws log-uniform samples, evaluates one inequality with its
explicit constant, and reports the worst signed margin. A failed check
means the growth family does not satisfy the assumption the convergence
argument needs, so the calling pipeline must refuse to solve with it.

The samples come from the standard library's Mersenne Twister,
``random.Random``, one stream per check keyed by ``seed * 8 + stream``
(`_STREAM`), and every draw is a ``Random.random()`` call. CPython keeps
that sequence fixed for a given integer seed across versions, so a
config and seed give the same margins after an upgrade. numpy's
``Generator`` makes no such promise, and importing numpy's random
package would also load OpenSSL, which costs more memory than the rest
of the battery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .orlicz import Mesh, OperatorConfig
from .solver import solve_auxiliary
from .young import (GRID_HI, GRID_LO, GROWTH_GRID, PhiWeight, YoungFunction,
                    eval_Gbar)

DEFAULT_SEED = 0x5EED
# draws per sampled check, and points on the tail check's ladder
SAMPLES = 1000
# the reverse mean-value bound is sampled where max(x, y) >= PHI_MVT_EPS
PHI_MVT_EPS = 1.0
# ordered load pairs drawn by the discrete comparison check
COMPARISON_TRIALS = 20

# rng streams keyed per check so outcomes do not depend on execution order;
# the key seed * 8 + stream needs every index below 8
_STREAM = {"delta2": 1, "lindqvist": 2, "gdiff": 3, "conjugate": 4,
           "phi_mvt": 5, "rpower": 6, "comparison": 7}


@dataclass
class CheckOutcome:
    """One inequality, many samples, one verdict."""

    name: str
    family: str
    n_samples: int
    worst_margin: float
    tolerance: float
    passed: bool = field(init=False)
    offending: dict | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.passed = bool(self.worst_margin >= -self.tolerance)
        if self.passed:
            self.offending = None

    def __str__(self):
        flag = "pass" if self.passed else "FAIL"
        return (f"{self.name}[{self.family}] {flag}: worst margin "
                f"{self.worst_margin:.3e} over {self.n_samples} samples")


class _Stream:
    """The draws of check ``name`` for a nonnegative ``seed``, as float64
    arrays: a ``random.Random`` seeded with ``seed * 8 + _STREAM[name]``,
    so each check has its own stream and outcomes do not depend on the
    order the checks run in. Every draw is ``Random.random()``, whose
    sequence for a given seed CPython keeps across versions."""

    def __init__(self, seed: int, name: str):
        self._draw = random.Random(int(seed) * 8 + _STREAM[name]).random

    def random(self, n: int) -> np.ndarray:
        """n uniforms on [0, 1)."""
        draw = self._draw
        return np.array([draw() for _ in range(n)], dtype=float)

    def uniform(self, lo, hi, n: int | None = None) -> np.ndarray:
        """n uniforms lo + (hi - lo) * u, or one per entry of an array hi."""
        hi = np.asarray(hi, dtype=float)
        return lo + (hi - lo) * self.random(hi.size if n is None else n)


def _log_uniform(rng, n) -> np.ndarray:
    return np.exp(rng.uniform(np.log(GRID_LO), np.log(GRID_HI), n))


def _signed_pairs(rng, n) -> tuple[np.ndarray, np.ndarray]:
    """n log-uniform pairs (a, b): a negative with probability 1/3, and b
    of the opposite sign with probability 1/2, so that half the pairs
    straddle zero."""
    a = _log_uniform(rng, n)
    b = _log_uniform(rng, n)
    sign_a = np.where(rng.random(n) < 1.0 / 3.0, -1.0, 1.0)
    sign_b = np.where(rng.random(n) < 0.5, -sign_a, sign_a)
    return sign_a * a, sign_b * b


def _worst(margins: np.ndarray, payload: dict) -> tuple[float, dict]:
    k = int(np.argmin(margins))
    sample = {key: float(np.asarray(val)[k]) for key, val in payload.items()}
    return float(margins[k]), sample


def check_growth_bounds(yf: YoungFunction) -> CheckOutcome:
    """The growth window 1 + t g'/g sampled at construction, ``yf.growth``,
    against the declared [p_minus, p_plus]; the margin is the tighter of the
    two ends of `GrowthEstimate.margins`, and the check fails below -1e-6."""
    est = yf.growth
    lower, upper = est.margins(yf)
    offending = {"t": est.t_at_min if lower < upper else est.t_at_max,
                 "p_minus_hat": est.p_minus_hat, "p_plus_hat": est.p_plus_hat}
    return CheckOutcome("growth_bounds", yf.label, GROWTH_GRID,
                        min(lower, upper), 1e-6, offending=offending,
                        info={"p_minus_hat": est.p_minus_hat,
                              "p_plus_hat": est.p_plus_hat})


def check_delta2(yf: YoungFunction, *, seed: int = DEFAULT_SEED) -> CheckOutcome:
    """Two-sided doubling control: scaling the argument by lam moves G by
    a factor between lam**p_minus and lam**p_plus (exponents swap roles
    for lam < 1). Margins are relative."""
    rng = _Stream(seed, "delta2")
    t = _log_uniform(rng, SAMPLES)
    lam = _log_uniform(rng, SAMPLES)
    gt, glt = yf.G(t), yf.G(lam * t)
    lo_exp = np.where(lam >= 1.0, yf.p_minus, yf.p_plus)
    hi_exp = np.where(lam >= 1.0, yf.p_plus, yf.p_minus)
    lower = lam ** lo_exp * gt
    upper = lam ** hi_exp * gt
    scale = np.maximum(glt, np.maximum(lower, upper))
    margins = np.minimum(glt - lower, upper - glt) / scale
    worst, bad = _worst(margins, {"lam": lam, "t": t})
    return CheckOutcome("delta2", yf.label, SAMPLES, worst, 1e-9,
                        offending=bad)


def lindqvist_constant(yf: YoungFunction) -> float:
    return min(0.5, 2.0 ** (-yf.p_plus) / (2.0 * yf.p_minus))


def check_lindqvist(yf: YoungFunction, *, seed: int = DEFAULT_SEED) -> CheckOutcome:
    """Strict monotonicity with a quantitative floor:
    (g(b) - g(a))(b - a) >= C_L * G(|b - a|). Absolute margins; the sample
    set mixes same-sign and straddling pairs."""
    a, b = _signed_pairs(_Stream(seed, "lindqvist"), SAMPLES)
    lhs = (yf.g(b) - yf.g(a)) * (b - a)
    rhs = lindqvist_constant(yf) * yf.G(np.abs(b - a))
    margins = lhs - rhs
    worst, bad = _worst(margins, {"a": a, "b": b})
    return CheckOutcome("lindqvist", yf.label, SAMPLES, worst, 1e-10,
                        offending=bad, info={"constant": lindqvist_constant(yf)})


def check_gdiff(yf: YoungFunction, *, seed: int = DEFAULT_SEED) -> CheckOutcome:
    """Difference-of-slopes control with C_E = p_plus - 1, both links:
    |g(a)-g(b)| <= C_E |a-b| g(|a|+|b|)/(|a|+|b|) <= C_E g(|a|+|b|).

    Margins are relative: near-equal pairs at the top of the sample range
    put both sides around 1e9, where an absolute gap is pure cancellation
    noise."""
    a, b = _signed_pairs(_Stream(seed, "gdiff"), SAMPLES)
    ce = yf.p_plus - 1.0
    total = np.abs(a) + np.abs(b)
    mid = ce * np.abs(a - b) * yf.g(total) / total
    cap = ce * yf.g(total)
    scale = np.maximum(np.abs(yf.g(a) - yf.g(b)), np.maximum(mid, cap))
    margins = np.minimum(mid - np.abs(yf.g(a) - yf.g(b)), cap - mid) / scale
    worst, bad = _worst(margins, {"a": a, "b": b})
    return CheckOutcome("gdiff", yf.label, SAMPLES, worst, 1e-10,
                        offending=bad, info={"constant": ce})


def check_conjugate(yf: YoungFunction, *, seed: int = DEFAULT_SEED) -> CheckOutcome:
    """Conjugate sandwich (p_minus - 1) G(t) <= Gbar(g(t)) <=
    (p_plus - 1) G(t), relative margins. The middle term stacks the
    numeric inverse of g inside the Laguerre quadrature, hence the looser
    tolerance."""
    rng = _Stream(seed, "conjugate")
    t = _log_uniform(rng, SAMPLES)
    gt = yf.G(t)
    mid = eval_Gbar(yf, yf.g(t))
    lower = (yf.p_minus - 1.0) * gt
    upper = (yf.p_plus - 1.0) * gt
    scale = np.maximum(mid, upper)
    margins = np.minimum(mid - lower, upper - mid) / scale
    worst, bad = _worst(margins, {"t": t})
    return CheckOutcome("conjugate", yf.label, SAMPLES, worst, 1e-7,
                        offending=bad)


def check_phi_mvt(weight: PhiWeight, *, seed: int = DEFAULT_SEED) -> CheckOutcome:
    """Reverse mean-value bound for the boundary weight: whenever
    max(x, y) >= eps = PHI_MVT_EPS, |phi(x) - phi(y)| >= C_M phi'(eps) |x - y|
    with C_M = min(theta, 1) and theta the weight's calibrated slope ratio."""
    rng = _Stream(seed, "phi_mvt")
    hi = np.exp(rng.uniform(np.log(PHI_MVT_EPS), np.log(GRID_HI), SAMPLES))
    low = rng.uniform(0.0, hi)
    swap = rng.random(SAMPLES) < 0.5
    x = np.where(swap, low, hi)
    y = np.where(swap, hi, low)
    cm = weight.mvt_constant()
    slope_eps = float(weight.phi_prime(PHI_MVT_EPS))
    lhs = np.abs(weight.phi(x) - weight.phi(y))
    rhs = cm * slope_eps * np.abs(x - y)
    scale = np.maximum(np.maximum(lhs, rhs), 1e-300)
    margins = (lhs - rhs) / scale
    worst, bad = _worst(margins, {"x": x, "y": y})
    return CheckOutcome("phi_mvt", weight.base.label, SAMPLES, worst, 1e-9,
                        offending=bad,
                        info={"constant": cm, "slope_at_eps": slope_eps})


def check_rpower(weight: PhiWeight) -> CheckOutcome:
    """Large-argument domination t**(1/r) <= (2/r) phi(t): scans a
    deterministic log-spaced ladder on [1, 1e6], reports the smallest point
    from which the inequality holds, and requires it to keep holding
    beyond."""
    t = np.logspace(0.0, 6.0, SAMPLES)
    r = weight.r
    lhs = t ** (1.0 / r)
    rhs = (2.0 / r) * weight.phi(t)
    ok = lhs <= rhs * (1.0 + 1e-12)
    fail_idx = np.nonzero(~ok)[0]
    onset = 0 if fail_idx.size == 0 else int(fail_idx[-1]) + 1
    margins = (rhs - lhs) / np.maximum(rhs, lhs)
    if onset >= SAMPLES:
        worst, bad = -1.0, {"t": float(t[int(np.argmin(margins))])}
        t0 = float("inf")
    else:
        worst = float(np.min(margins[onset:]))
        bad = {"t": float(t[onset + int(np.argmin(margins[onset:]))])}
        t0 = float(t[onset])
    return CheckOutcome("rpower", weight.base.label, SAMPLES, worst, 1e-12,
                        offending=bad, info={"t0": t0, "r": r})


def check_comparison(cfg: OperatorConfig, mesh: Mesh, *,
                     seed: int = DEFAULT_SEED) -> CheckOutcome:
    """Discrete comparison principle over COMPARISON_TRIALS ordered load
    pairs: ordering the loads orders the solutions at the interior nodes
    (tolerance 1e-7), so the margin is the smallest interior slack. For
    exactly homogeneous families a doubled load must scale the solution by
    2**(1/(p-1)) within 1e-6.

    The solves form one warm chain, so only the first is seeded from the
    cone: the larger load of a pair starts from the smaller one's
    solution, and each trial's smaller load, like the doubling pair's
    first load, from the previous solution. A start changes the solutions
    only within the Newton tolerance."""
    rng = _Stream(seed, "comparison")
    yf = cfg.young
    worst = np.inf
    bad = None
    v = None
    for k in range(COMPARISON_TRIALS):
        base = rng.uniform(0.1, 2.0, mesh.m)
        bump = rng.uniform(0.0, 1.0, mesh.m)
        u, _ = solve_auxiliary(cfg, mesh, base, warm_start=v)
        v, _ = solve_auxiliary(cfg, mesh, base + bump, warm_start=u)
        # both solutions vanish at the end nodes: the margin is interior
        margin = float(np.min(v.values[1:-1] - u.values[1:-1]))
        if margin < worst:
            worst, bad = margin, {"trial": k, "margin": margin}
    info = {}
    if abs(yf.p_plus - yf.p_minus) < 1e-12:
        scale = 2.0 ** (1.0 / (yf.p_minus - 1.0))
        load = rng.uniform(0.5, 1.5, mesh.m)
        u, _ = solve_auxiliary(cfg, mesh, load, warm_start=v)
        v, _ = solve_auxiliary(cfg, mesh, 2.0 * load, warm_start=u)
        drift = float(np.max(np.abs(v.values - scale * u.values)))
        info["doubling_drift"] = drift
        if drift > 1e-6:
            worst = min(worst, -drift)
            bad = {"doubling_drift": drift}
    return CheckOutcome("comparison", yf.label, COMPARISON_TRIALS, worst, 1e-7,
                        offending=bad, info=info)


def run_check_suite(yf: YoungFunction, *, q_star: float = 2.0,
                    seed: int = DEFAULT_SEED) -> list[CheckOutcome]:
    """The six sample-driven checks for one growth family. Solver-level
    comparison runs separately because it needs an operator config."""
    weight = PhiWeight(yf, q_star)
    return [
        check_delta2(yf, seed=seed),
        check_lindqvist(yf, seed=seed),
        check_gdiff(yf, seed=seed),
        check_conjugate(yf, seed=seed),
        check_phi_mvt(weight, seed=seed),
        check_rpower(weight),
    ]
