"""Young functions, their calculus, and the singular boundary weight.

Three admissible families are provided: a pure power, a sum of two powers,
and a power-times-logarithm profile. Each exposes the derivative ``g``,
the primitive ``G``, growth exponents ``p_minus <= p_plus`` with
``p_minus > 2`` enforced, and the integral transforms built on top of them
(conjugate, Sobolev-type conjugate, boundary weight).

G and Lambda come from one generalized Gauss-Laguerre rule after the
substitution t = y e^(-v/p_minus), unless a family has a closed form.
Inverses use geometric bisection; the conjugate and Sobolev-type integrals,
which are algebraically singular at zero, use graded Gauss-Legendre panels
sized from the local exponent. All entry points accept scalars or arrays and
are vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, InvariantError
from .quadrature import (
    gauss_laguerre,
    gauss_legendre,
    graded_panel_depth,
    integrate_panels,
    invert_monotone,
    panel_edges_graded,
)

# Standard sampling window for empirical constants: six decades around 1.
GRID_LO = 1e-3
GRID_HI = 1e3

# Generalized Gauss-Laguerre nodes for G and Lambda, and the number of points
# expanded against them at once: 1024 x 64 float64 temporaries (512 KiB) ran
# G and Lambda ~3x faster than blocks of 2048 or more on a 2-core Xeon.
_LAGUERRE_NODES = 64
_LAGUERRE_BLOCK = 1024


def standard_grid(n: int = 512) -> np.ndarray:
    return np.logspace(np.log10(GRID_LO), np.log10(GRID_HI), n)


def _as_batch(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _restore(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


class YoungFunction:
    """Base class: odd derivative g, even primitive G, growth window.

    Subclasses implement the nonnegative-argument kernels ``_g_pos``,
    ``_g_prime_pos`` and may override ``_G_pos``/``_lambda_pos`` with closed
    forms; otherwise both come from the Gauss-Laguerre kernel ``_laguerre``.
    The public methods apply the odd/even extensions and handle scalar
    passthrough.
    """

    family_tag = "abstract"

    def __init__(self, p_minus: float, p_plus: float):
        if not (p_minus > 2.0):
            raise ConfigurationError(
                f"growth bound p_minus={p_minus:g} must exceed 2")
        if p_plus < p_minus:
            raise ConfigurationError("growth bounds must satisfy p_minus <= p_plus")
        self.p_minus = float(p_minus)
        self.p_plus = float(p_plus)
        self._check_growth_window()

    @property
    def label(self) -> str:
        """Family tag plus parameters, for reports and CSV rows."""
        return self.family_tag

    # -- kernels on t >= 0 -------------------------------------------------

    def _g_pos(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _g_prime_pos(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _G_pos(self, t: np.ndarray) -> np.ndarray:
        return self._laguerre(t, 0)

    def _lambda_pos(self, y: np.ndarray) -> np.ndarray:
        # Lambda(y) = int_0^y G(tau)/tau dtau = int_0^y g(sigma) log(y/sigma) dsigma
        return self._laguerre(y, 1)

    def _laguerre(self, y: np.ndarray, alpha: int) -> np.ndarray:
        """(y/p^(1+alpha)) int_0^inf g(y e^(-v/p)) v^alpha e^(-v/p) dv, p = p_minus.

        This is G(y) for alpha = 0 and Lambda(y) for alpha = 1, by the
        substitution sigma = y e^(-v/p). Against the Laguerre weight
        v^alpha e^(-v) the remaining factor g(y s) s e^v, s = e^(-v/p), is
        constant for a pure power of exponent p_minus and slowly varying
        while t g'/g stays near p_minus - 1; without the 1/p scaling it
        decays like e^(-(p-2) v) and 64 nodes lose ~1e-2 at p = 40. Points
        go through in fixed blocks to bound the node expansion's memory.
        """
        p = self.p_minus
        v, w = gauss_laguerre(_LAGUERRE_NODES, alpha)
        shrink = np.exp(-v / p)
        weights = w * np.exp(v) * shrink / p ** (1.0 + alpha)
        flat = np.asarray(y, dtype=float).ravel()
        out = np.empty_like(flat)
        for lo in range(0, flat.size, _LAGUERRE_BLOCK):
            block = slice(lo, lo + _LAGUERRE_BLOCK)
            out[block] = flat[block] * (self._g_pos(flat[block, None] * shrink) @ weights)
        return out.reshape(np.shape(y))

    # -- public vectorized surface ----------------------------------------

    def g(self, t):
        arr, scalar = _as_batch(t)
        with np.errstate(over="ignore"):
            vals = np.sign(arr) * self._g_pos(np.abs(arr))
        return _restore(vals, scalar)

    def g_prime(self, t):
        arr, scalar = _as_batch(t)
        with np.errstate(over="ignore"):
            vals = self._g_prime_pos(np.abs(arr))
        return _restore(vals, scalar)

    def G(self, t):
        arr, scalar = _as_batch(t)
        with np.errstate(over="ignore"):
            vals = self._G_pos(np.abs(arr))
        return _restore(vals, scalar)

    def lam(self, y):
        """Lambda(y) = integral of G(tau)/tau over (0, |y|)."""
        arr, scalar = _as_batch(y)
        with np.errstate(over="ignore"):
            vals = self._lambda_pos(np.abs(arr))
        return _restore(vals, scalar)

    def G_inverse(self, y):
        arr, scalar = _as_batch(y)
        vals = invert_monotone(self._G_pos, arr)
        return _restore(vals, scalar)

    def g_inverse(self, y):
        arr, scalar = _as_batch(y)
        vals = invert_monotone(self._g_pos, arr)
        return _restore(vals, scalar)

    # -- construction-time sanity -----------------------------------------

    def _check_growth_window(self) -> None:
        t = standard_grid(64)
        ratio = t * self._g_prime_pos(t) / self._g_pos(t)
        lo, hi = self.p_minus - 1.0, self.p_plus - 1.0
        if ratio.min() < lo - 1e-9 or ratio.max() > hi + 1e-9:
            raise ConfigurationError(
                f"{self.family_tag}: t g'/g leaves [{lo:g}, {hi:g}] "
                f"(observed [{ratio.min():.6g}, {ratio.max():.6g}])")


class PowerYoung(YoungFunction):
    """G(t) = t^p / p."""

    family_tag = "power"

    def __init__(self, p: float):
        self.p = float(p)
        super().__init__(p, p)

    @property
    def label(self) -> str:
        return f"power(p={self.p:g})"

    def _g_pos(self, t):
        return t ** (self.p - 1.0)

    def _g_prime_pos(self, t):
        return (self.p - 1.0) * t ** (self.p - 2.0)

    def _G_pos(self, t):
        return t ** self.p / self.p

    def _lambda_pos(self, y):
        return y ** self.p / self.p ** 2


class DoublePowerYoung(YoungFunction):
    """g(t) = t^(p1-1) + t^(p2-1) with 2 < p1 <= p2."""

    family_tag = "double-power"

    def __init__(self, p1: float, p2: float):
        if p2 < p1:
            p1, p2 = p2, p1
        self.p1 = float(p1)
        self.p2 = float(p2)
        super().__init__(p1, p2)

    @property
    def label(self) -> str:
        return f"double-power({self.p1:g},{self.p2:g})"

    def _g_pos(self, t):
        return t ** (self.p1 - 1.0) + t ** (self.p2 - 1.0)

    def _g_prime_pos(self, t):
        return ((self.p1 - 1.0) * t ** (self.p1 - 2.0)
                + (self.p2 - 1.0) * t ** (self.p2 - 2.0))

    def _G_pos(self, t):
        return t ** self.p1 / self.p1 + t ** self.p2 / self.p2

    def _lambda_pos(self, y):
        return y ** self.p1 / self.p1 ** 2 + y ** self.p2 / self.p2 ** 2


class LogTypeYoung(YoungFunction):
    """g(t) = t^a log(b + c t) with a > 1, b >= 1, c > 0.

    Growth window [1 + a, 2 + a]. G and Lambda have no elementary form and
    come from the base-class Gauss-Laguerre kernel, whose smooth factor
    here is y^a log(b + c y e^(-v/(1+a))).
    """

    family_tag = "log-type"

    def __init__(self, a: float, b: float, c: float):
        if a <= 1.0:
            raise ConfigurationError("log-type family needs a > 1 so p_minus > 2")
        if b < 1.0:
            raise ConfigurationError("log-type family needs b >= 1 (g must stay nonnegative)")
        if c <= 0.0:
            raise ConfigurationError("log-type family needs c > 0")
        self.a = float(a)
        self.b = float(b)
        self.c = float(c)
        super().__init__(1.0 + a, 2.0 + a)

    @property
    def label(self) -> str:
        return f"log-type(a={self.a:g},b={self.b:g},c={self.c:g})"

    def _g_pos(self, t):
        return t ** self.a * np.log(self.b + self.c * t)

    def _g_prime_pos(self, t):
        lg = np.log(self.b + self.c * t)
        return t ** (self.a - 1.0) * (self.a * lg + self.c * t / (self.b + self.c * t))


def make_young(family: str, **params) -> YoungFunction:
    """Construct a family member from configuration values."""
    try:
        if family == "power":
            return PowerYoung(params.pop("p"))
        if family == "double-power":
            return DoublePowerYoung(params.pop("p1"), params.pop("p2"))
        if family == "log-type":
            return LogTypeYoung(params.pop("a"), params.pop("b"), params.pop("c"))
    except KeyError as exc:
        raise ConfigurationError(f"family {family!r} is missing parameter {exc}") from None
    raise ConfigurationError(
        f"unknown family {family!r}; expected power, double-power, or log-type")


# ---------------------------------------------------------------------------
# pointwise operations


def eval_g(yf: YoungFunction, t):
    _require_finite(t, "eval_g")
    return yf.g(t)


def eval_G(yf: YoungFunction, t):
    _require_finite(t, "eval_G")
    return yf.G(t)


def invert_G(yf: YoungFunction, y):
    """Nonnegative t with G(t) = y, by geometric bisection."""
    _require_finite(y, "invert_G")
    return yf.G_inverse(y)


def eval_Gbar(yf: YoungFunction, t):
    """Conjugate function: integral of the generalized inverse over (0, t).

    The integrand behaves like tau^(1/(p-1)) near zero, so graded panels
    with depth matched to that exponent give ~1e-12 relative accuracy.
    """
    _require_finite(t, "eval_Gbar")
    arr, scalar = _as_batch(t)
    if np.any(arr < 0.0):
        raise DomainError("eval_Gbar: argument must be nonnegative")
    depth = graded_panel_depth(1.0 / (yf.p_plus - 1.0))
    edges = panel_edges_graded(arr, depth)
    vals = integrate_panels(lambda tau: invert_monotone(yf._g_pos, tau), edges,
                            n_nodes=12)
    return _restore(vals, scalar)


def sobolev_conjugate_inv(yf: YoungFunction, t, s: float, n_dim: int = 1):
    """Inverse of the Sobolev-type conjugate:
    integral of G^{-1}(tau) tau^{-(n+s)/n} over (0, t).

    Diverges at zero unless the local growth exponent p0 of G satisfies
    1/p0 > s/n; that failure is a configuration error, not a numerical one.
    """
    _require_finite(t, "sobolev_conjugate_inv")
    if not (0.0 < s < 1.0):
        raise ConfigurationError("sobolev_conjugate_inv: s must lie in (0, 1)")
    arr, scalar = _as_batch(t)
    if np.any(arr < 0.0):
        raise DomainError("sobolev_conjugate_inv: argument must be nonnegative")

    # local exponent of G at zero from a small-argument probe of t g/G
    probe = 1e-8
    p0 = float(probe * yf.g(probe) / yf.G(probe))
    if 1.0 / p0 <= s / n_dim:
        raise ConfigurationError(
            f"Sobolev conjugate diverges at zero: 1/p0 = {1.0 / p0:.4g} "
            f"<= s/n = {s / n_dim:.4g}")

    # integrand ~ tau^(1/p0 - (n+s)/n) near zero: integrable but singular
    expo = 1.0 / p0 - (n_dim + s) / n_dim
    depth = graded_panel_depth(expo)
    edges = panel_edges_graded(arr, depth)

    def integrand(tau):
        out = np.zeros_like(tau)
        pos = tau > 0.0
        out[pos] = (invert_monotone(yf._G_pos, tau[pos])
                    * tau[pos] ** (-(n_dim + s) / n_dim))
        return out

    vals = integrate_panels(integrand, edges, n_nodes=16)
    return _restore(vals, scalar)


class GrowthEstimate(NamedTuple):
    p_minus_hat: float
    p_plus_hat: float
    t_at_min: float
    t_at_max: float


def estimate_growth_bounds(yf: YoungFunction, n_grid: int = 512) -> GrowthEstimate:
    """Empirical growth window from 1 + t g'(t)/g(t) on the standard grid."""
    t = standard_grid(n_grid)
    ratio = 1.0 + t * yf.g_prime(t) / np.maximum(yf.g(t), 1e-300)
    i_min = int(np.argmin(ratio))
    i_max = int(np.argmax(ratio))
    return GrowthEstimate(float(ratio[i_min]), float(ratio[i_max]),
                          float(t[i_min]), float(t[i_max]))


def verify_declared_growth(yf: YoungFunction, n_grid: int = 512,
                           tol: float = 1e-6) -> GrowthEstimate:
    """Raise InvariantError when the sampled window escapes the declared one."""
    est = estimate_growth_bounds(yf, n_grid)
    if est.p_minus_hat < yf.p_minus - tol:
        raise InvariantError(
            f"estimated p_minus {est.p_minus_hat:.8g} at t={est.t_at_min:.6g} "
            f"undershoots declared {yf.p_minus:g}")
    if est.p_plus_hat > yf.p_plus + tol:
        raise InvariantError(
            f"estimated p_plus {est.p_plus_hat:.8g} at t={est.t_at_max:.6g} "
            f"overshoots declared {yf.p_plus:g}")
    return est


def submultiplicativity_constant(yf: YoungFunction, n_grid: int = 256) -> float:
    """inf g(t1) g(t2) / g(t1 t2) over the standard grid squared."""
    t = standard_grid(n_grid)
    gt = yf.g(t)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.outer(gt, gt)
        cross = yf.g(np.outer(t, t))
        ratio = prod / cross
    return float(np.nanmin(ratio))


def _require_finite(t, where: str) -> None:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{where}: arguments must be finite")


# ---------------------------------------------------------------------------
# boundary weight


@dataclass(frozen=True)
class PhiWeight:
    """Boundary growth weight Phi(t) = int_0^t G^{-1}(G(1) tau^(qs-1)) dtau.

    Concave product with the singular exponent q_star > 1; its derivative
    is G^{-1}(G(1) t^(qs-1)). The power r = p_minus/(p_minus + q_star - 1)
    controls the lower envelope Phi(t) >= (r/1) t^(1/r)-type bounds used by
    the boundary estimates.
    """

    base: YoungFunction
    q_star: float

    def __post_init__(self):
        if not (self.q_star > 1.0):
            raise ConfigurationError("boundary weight needs q_star > 1")
        r = self.r
        if not (r * self.q_star < self.base.p_minus):
            raise ConfigurationError(
                f"weight exponent r*q_star = {r * self.q_star:.6g} must stay "
                f"below p_minus = {self.base.p_minus:g}")
        object.__setattr__(self, "_G1", float(self.base.G(1.0)))

    @property
    def r(self) -> float:
        pm = self.base.p_minus
        return pm / (pm + self.q_star - 1.0)

    def phi_prime(self, t):
        arr, scalar = _as_batch(t)
        if np.any(arr < 0.0):
            raise DomainError("phi_prime: argument must be nonnegative")
        vals = invert_monotone(self.base._G_pos, self._G1 * arr ** (self.q_star - 1.0))
        return _restore(vals, scalar)

    def phi(self, t):
        """Vectorized integral of phi_prime via integration by parts.

        Phi(t) = t sigma(t) - int_0^sigma(t) (G(sigma)/G(1))^(1/(qs-1)) dsigma
        with sigma = phi_prime. The substituted integrand is monotone and
        smooth away from the upper limit, so panels graded dyadically toward
        sigma(t) resolve it; logs guard against overflow in the power.
        """
        arr, scalar = _as_batch(t)
        if np.any(arr < 0.0):
            raise DomainError("phi: argument must be nonnegative")
        out = np.zeros_like(arr)
        pos = arr > 0.0
        if pos.any():
            tv = arr[pos]
            beta = 1.0 / (self.q_star - 1.0)
            sig = invert_monotone(self.base._G_pos,
                                  self._G1 * tv ** (self.q_star - 1.0))
            ks = np.arange(57)
            edges = sig[:, None] * (1.0 - 2.0 ** (-ks))[None, :]
            edges = np.concatenate([edges, sig[:, None]], axis=1)
            x, w = gauss_legendre(16)
            lo = edges[:, :-1, None]
            hi = edges[:, 1:, None]
            mid = 0.5 * (hi + lo)
            half = 0.5 * (hi - lo)
            pts = mid + half * x
            with np.errstate(divide="ignore", over="ignore"):
                logG = np.log(np.maximum(self.base._G_pos(pts.reshape(-1)), 1e-300))
                vals = np.exp(beta * (logG - np.log(self._G1))).reshape(pts.shape)
            inner = np.sum(np.sum(vals * w, axis=-1) * half[..., 0], axis=-1)
            out[pos] = tv * sig - inner
        return _restore(out, scalar)

    def mvt_constant(self, n_grid: int = 512) -> float:
        """min(1, inf Phi/(t Phi')) on the standard grid; the factor that
        turns the secant slope bound into a two-sided mean value estimate."""
        t = standard_grid(n_grid)
        ratio = self.phi(t) / (t * self.phi_prime(t))
        return float(min(1.0, ratio.min()))
