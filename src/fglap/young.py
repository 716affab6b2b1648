"""Young functions, their calculus, and the singular boundary weight.

Three admissible families are provided, registered by tag in `FAMILIES`:
a pure power, a sum of two powers, and a power-times-logarithm profile.
Each exposes the derivative ``g``, the primitive ``G``, growth exponents
``p_minus <= p_plus`` with ``p_minus > 2`` enforced, and the integral
transforms built on top of them (conjugate, boundary weight).

Every integral from zero (G and Lambda unless a family has a closed form,
the conjugate, the boundary weight, and the strong form's first cell in
`fractional`) comes from one Gauss-Laguerre rule, after the substitution
of `_laguerre_integral`: the leading 34 nodes of the 64-point rule for the
weight e^(-v), which `quadrature` stores, so that no run builds a rule.
Lambda's log weight becomes the factor v/k, which its weights carry.
Every inverse is a log-log Newton bracketed by the growth window. All
entry points accept scalars or arrays and are vectorized.

g is evaluated in the p-Laplacian form g(t) = t gamma(|t|), where the even
factor gamma(tau) = g(tau)/tau is tau^(p-2) for a power, the sum of two
such powers, or tau^(a-1) log(b + c tau), the log evaluated as
log b + log1p(c tau / b) so that it keeps its relative accuracy at b = 1
as c tau -> 0. That takes no sign array, and each exponent is one lower
than in sign(t) g(|t|). The power families take |t|^e through
`_abs_power`, which squares at e = 2 (p = 4) and takes |t| at e = 1
(p = 3) rather than call np.power, which is twice as slow. The public
``g``, ``g_prime`` and ``G`` take t alone. The far-pair passes of `orlicz`
and `fractional`, which run once per block of rows, call the array kernels
``_g_pos``, ``_g_prime_pos`` and ``_G_pos`` into their buffers directly,
under one ``np.errstate`` per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError
from .quadrature import LAGUERRE_A0_NODES, LAGUERRE_A0_WEIGHTS, invert_monotone

# Standard sampling window for empirical constants and the check battery's
# draws: six decades around 1, and the number of points the growth window,
# the submultiplicativity constant and the boundary weight's mean-value
# constant are sampled at.
GRID_LO = 1e-3
GRID_HI = 1e3
GROWTH_GRID = 512
SUBMULT_GRID = 256
MVT_GRID = 512

# The number of points expanded against the kept Laguerre nodes at once. A
# 128 x 34 float64 block is 34 KiB, well under glibc's default mmap
# threshold (128 KiB), so a block never gets freshly mapped pages.
_LAGUERRE_BLOCK = 128

# the stored Gauss-Laguerre nodes v_j and weights w_j, read-only
_LAGUERRE_V = np.array(LAGUERRE_A0_NODES)
_LAGUERRE_W = np.array(LAGUERRE_A0_WEIGHTS)
_LAGUERRE_V.flags.writeable = _LAGUERRE_W.flags.writeable = False


def standard_grid(n: int) -> np.ndarray:
    return np.logspace(np.log10(GRID_LO), np.log10(GRID_HI), n)


def _as_batch(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _restore(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _abs_power(t: np.ndarray, e: float, out=None) -> np.ndarray:
    """|t|^e into ``out`` (allocated when None; it may be t itself): a
    square for e = 2 and |t| for e = 1, bit for bit what np.power gives
    and in about half its time, and np.power for any other exponent."""
    if e == 2.0:
        return np.square(t, out=out)
    out = np.abs(t, out=out)
    return out if e == 1.0 else np.power(out, e, out=out)


def _laguerre_weights(k: float, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """The stored nodes under t = y s, s = e^(-v/k): the factors s_j and the
    weights w_j e^(v_j) s_j (v_j/k)^alpha / k of ``_laguerre_integral``."""
    v = _LAGUERRE_V
    shrink = np.exp(-v / k)
    return shrink, _LAGUERRE_W * np.exp(v) * shrink / k * (v / k) ** alpha


def _block_sums(f, y: np.ndarray, row: np.ndarray, weights: np.ndarray,
                finish, out: np.ndarray | None = None) -> np.ndarray:
    """finish(y, f(y row) @ weights) at every point y, _LAGUERRE_BLOCK
    points at a time in one expanded block that the call allocates and
    reuses: ``f(x)`` gets each block and may overwrite it. The results go
    into ``out`` if given: a C-contiguous array of y's shape, which may be
    y itself, since each block is read before its values are written.
    """
    flat = np.asarray(y, dtype=float).ravel()
    if out is None:
        out = np.empty(np.shape(y))
    flat_out = out.reshape(-1)
    xs = np.empty((_LAGUERRE_BLOCK, row.size))
    for lo in range(0, flat.size, _LAGUERRE_BLOCK):
        pts = flat[lo:lo + _LAGUERRE_BLOCK]
        # numpy's ufunc loop allocates a 64 KiB buffer per broadcast
        # operand, and a copy none: copy the column, then scale by the row
        x = xs[:pts.size]
        np.copyto(x, pts[:, None])
        x *= row
        flat_out[lo:lo + pts.size] = finish(pts, f(x) @ weights)
    return out


def _laguerre_integral(f, y: np.ndarray, k: float, alpha: int = 0,
                       out: np.ndarray | None = None) -> np.ndarray:
    """int_0^y f(tau) log(y/tau)^alpha dtau, alpha = 0 or 1, as
    (y/k) int_0^inf f(y e^(-v/k)) (v/k)^alpha e^(-v/k) dv.

    Against the Laguerre weight e^(-v) the remaining factor
    f(y s) s e^v, s = e^(-v/k), is constant when f is a pure power of
    exponent k - 1 and decays slowly while f's elasticity stays a little
    above k - 1, so k is one plus the integrand's lowest elasticity. A
    larger k lets the factor grow; a smaller one makes it decay fast (for
    G at p = 40, k = 1 loses ~1e-2 with 64 nodes). The log weight is the
    factor (v/k)^alpha, which the weights carry. With that k,
    f(y s) <= s^(k-1) f(y), so node j adds at most
    y w_j (v_j/k)^alpha f(y) / k: the sum runs over the 34 stored nodes
    only (a truncated Gauss-Laguerre rule, Mastroianni & Monegato, SIAM J.
    Numer. Anal. 41, 2003), and for an integrand of elasticity at most e_+
    the dropped nodes change the integral by a relative
    ((e_+ + 1)/k)^(1+alpha) times their share of the weight (1.2e-21) or of
    the v-weighted mass (5.7e-20) at most. Points go through `_block_sums`,
    with ``f``, ``out`` and the aliasing of ``out`` and y as documented
    there.
    """
    shrink, weights = _laguerre_weights(k, alpha)
    return _block_sums(f, y, shrink, weights, np.multiply, out)


class YoungFunction:
    """Base class: odd derivative g, even primitive G, growth window.

    Each family class names its family in ``family_tag``, its
    constructor's arguments, in order, in ``params``, and itself with their
    values in ``label``. Subclasses
    implement ``_gamma_abs`` and ``_g_prime_pos``, which write
    gamma(|t|) = g(|t|)/|t| and g'(|t|) into ``out`` (allocated when
    None), using ``work`` as scratch, and may override ``_G_pos``
    (which takes ``out`` and ``work`` the same way) and ``_lambda_pos`` with
    closed forms or cheaper sums on the same rule; otherwise both come from
    the Gauss-Laguerre rule ``_laguerre_integral`` over ``_g_pos``,
    g(t) = t gamma(|t|). The public methods apply the odd/even extensions
    and handle scalar passthrough.

    ``window`` is the growth window the constructor verified against
    ``growth``, its one sample of 1 + t g'/g, and every inverse and Laguerre
    rule is sized from it. ``p_minus``/``p_plus`` are the declared claims
    the check battery tests against ``growth``; reassigning them (the CLI's
    ``declared_p_*`` keys do) moves what the checks compare against, not the
    numerics.
    """

    def __init__(self, p_minus: float, p_plus: float):
        if not (p_minus > 2.0):
            raise ConfigurationError(
                f"growth bound p_minus={p_minus:g} must exceed 2")
        if p_plus < p_minus:
            raise ConfigurationError("growth bounds must satisfy p_minus <= p_plus")
        self.p_minus = float(p_minus)
        self.p_plus = float(p_plus)
        self.growth = estimate_growth_bounds(self)
        # written so that nan margins (no usable grid sample) fail as well
        if not min(self.growth.margins(self)) >= -1e-9:
            raise ConfigurationError(
                f"{self.family_tag}: 1 + t g'/g leaves [{self.p_minus:g}, "
                f"{self.p_plus:g}] (observed [{self.growth.p_minus_hat:.6g}, "
                f"{self.growth.p_plus_hat:.6g}])")
        self.window = (self.p_minus, self.p_plus)

    # -- kernels on arrays, no scalar or overflow handling ----------------

    def _gamma_abs(self, t: np.ndarray, out, work) -> np.ndarray:
        raise NotImplementedError

    def _g_prime_pos(self, t: np.ndarray, out=None, work=None) -> np.ndarray:
        raise NotImplementedError

    def _g_pos(self, t: np.ndarray, out=None, work=None) -> np.ndarray:
        out = self._gamma_abs(t, out, work)
        out *= t
        return out

    def _G_pos(self, t: np.ndarray, out=None, work=None) -> np.ndarray:
        # g's elasticity is at least p_minus - 1, so G and Lambda use k = p_minus
        return _laguerre_integral(self._g_pos, t, self.window[0], out=out)

    def _lambda_pos(self, y: np.ndarray) -> np.ndarray:
        # Lambda(y) = int_0^y G(tau)/tau dtau = int_0^y g(sigma) log(y/sigma) dsigma
        return _laguerre_integral(self._g_pos, y, self.window[0], 1)

    def _G_inv_pos(self, y: np.ndarray) -> np.ndarray:
        return invert_monotone(self._G_pos, y, self.window,
                               deriv=self._g_pos)

    def _g_inv_pos(self, y: np.ndarray) -> np.ndarray:
        lo, hi = self.window
        return invert_monotone(self._g_pos, y, (lo - 1.0, hi - 1.0),
                               deriv=self._g_prime_pos)

    # -- public vectorized surface ----------------------------------------

    def g(self, t):
        """g(t) = t gamma(|t|)."""
        arr, scalar = _as_batch(t)
        with np.errstate(over="ignore"):
            vals = self._g_pos(arr)
        return _restore(vals, scalar)

    def g_prime(self, t):
        """g'(|t|)."""
        arr, scalar = _as_batch(t)
        with np.errstate(over="ignore"):
            vals = self._g_prime_pos(arr)
        return _restore(vals, scalar)

    def G(self, t):
        """G(|t|), evaluated in place over a fresh |t|."""
        arr, scalar = _as_batch(t)
        mag = np.abs(arr)
        with np.errstate(over="ignore"):
            vals = self._G_pos(mag, mag)
        return _restore(vals, scalar)

    def lam(self, y):
        """Lambda(y) = integral of G(tau)/tau over (0, |y|)."""
        arr, scalar = _as_batch(y)
        with np.errstate(over="ignore"):
            vals = self._lambda_pos(np.abs(arr))
        return _restore(vals, scalar)

    def G_inverse(self, y):
        arr, scalar = _as_batch(y)
        return _restore(self._G_inv_pos(arr), scalar)

    def g_inverse(self, y):
        arr, scalar = _as_batch(y)
        return _restore(self._g_inv_pos(arr), scalar)


class PowerYoung(YoungFunction):
    """G(t) = t^p / p."""

    family_tag = "power"
    params = ("p",)

    def __init__(self, p: float):
        self.p = float(p)
        super().__init__(p, p)

    @property
    def label(self) -> str:
        return f"power(p={self.p:g})"

    def _gamma_abs(self, t, out, work):
        return _abs_power(t, self.p - 2.0, out)

    def _g_prime_pos(self, t, out=None, work=None):
        out = self._gamma_abs(t, out, work)
        out *= self.p - 1.0
        return out

    def _G_pos(self, t, out=None, work=None):
        out = np.power(t, self.p, out=out)
        out /= self.p
        return out

    def _lambda_pos(self, y):
        return y ** self.p / self.p ** 2


class DoublePowerYoung(YoungFunction):
    """g(t) = t^(p1-1) + t^(p2-1) with 2 < p1 <= p2."""

    family_tag = "double-power"
    params = ("p1", "p2")

    def __init__(self, p1: float, p2: float):
        if p2 < p1:
            p1, p2 = p2, p1
        self.p1 = float(p1)
        self.p2 = float(p2)
        super().__init__(p1, p2)

    @property
    def label(self) -> str:
        return f"double-power({self.p1:g},{self.p2:g})"

    def _gamma_abs(self, t, out, work):
        work = _abs_power(t, self.p2 - 2.0, work)
        out = _abs_power(t, self.p1 - 2.0, out)
        out += work
        return out

    def _g_prime_pos(self, t, out=None, work=None):
        work = _abs_power(t, self.p2 - 2.0, work)
        work *= self.p2 - 1.0
        out = _abs_power(t, self.p1 - 2.0, out)
        out *= self.p1 - 1.0
        out += work
        return out

    def _G_pos(self, t, out=None, work=None):
        work = np.power(t, self.p2, out=work)
        work /= self.p2
        out = np.power(t, self.p1, out=out)
        out /= self.p1
        out += work
        return out

    def _lambda_pos(self, y):
        return y ** self.p1 / self.p1 ** 2 + y ** self.p2 / self.p2 ** 2


class LogTypeYoung(YoungFunction):
    """g(t) = t^a log(b + c t) with a > 1, b >= 1, c > 0.

    Growth window [1 + a, 2 + a]. G and Lambda have no elementary form.
    They are the base-class Gauss-Laguerre sums with the power factored
    out: y sum_j weights_j g(y s_j) = y^(a+1) sum_j W_j log(b + c y s_j),
    W_j = weights_j s_j^a, summed as y^(a+1) (log b sum_j W_j
    + sum_j W_j log1p(c y s_j / b)), one log1p per node.
    """

    family_tag = "log-type"
    params = ("a", "b", "c")

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
        self._c_b = self.c / self.b
        self._log_b = math.log(self.b)
        super().__init__(1.0 + a, 2.0 + a)
        # per alpha (0 for G, 1 for Lambda): the row c s_j / b, the weights
        # W_j and the constant log b sum_j W_j of the factored sum
        self._sums = []
        for alpha in (0, 1):
            shrink, weights = _laguerre_weights(self.window[0], alpha)
            W = weights * shrink ** self.a
            self._sums.append((shrink * self._c_b, W, self._log_b * W.sum()))

    @property
    def label(self) -> str:
        return f"log-type(a={self.a:g},b={self.b:g},c={self.c:g})"

    def _gamma_abs(self, t, out, work):
        # tau^(a-1) (log b + log1p(c tau / b))
        out = np.abs(t, out=out)
        work = np.multiply(out, self._c_b, out=work)
        np.log1p(work, out=work)
        work += self._log_b
        np.power(out, self.a - 1.0, out=out)
        out *= work
        return out

    def _g_prime_pos(self, t, out=None, work=None):
        # tau^(a-1) (a log(b + c tau) + c tau / (b + c tau)); with
        # x = c tau / b that is tau^(a-1) (a (log b + log1p(x)) + x / (1 + x))
        work = np.abs(t, out=work)
        work *= self._c_b
        out = np.add(work, 1.0, out=out)
        # where 1 + x overflows, x / (1 + x) takes its limit 1
        with np.errstate(invalid="ignore"):
            np.divide(work, out, out=out)
        np.fmin(out, 1.0, out=out)
        np.log1p(work, out=work)
        work += self._log_b
        work *= self.a
        work += out
        np.abs(t, out=out)
        np.power(out, self.a - 1.0, out=out)
        out *= work
        return out

    def _log_sum(self, y, alpha, out=None):
        row, W, const = self._sums[alpha]
        e = self.a + 1.0
        return _block_sums(lambda x: np.log1p(x, out=x), y, row, W,
                           lambda pts, sums: (sums + const) * pts ** e, out)

    def _G_pos(self, t, out=None, work=None):
        return self._log_sum(t, 0, out)

    def _lambda_pos(self, y):
        return self._log_sum(y, 1)


FAMILIES = {c.family_tag: c for c in (PowerYoung, DoublePowerYoung, LogTypeYoung)}


def make_young(family: str, **params) -> YoungFunction:
    """Construct a member of ``FAMILIES[family]`` from the values of its
    class's ``params``, in that order; other keys are ignored."""
    if family not in FAMILIES:
        raise ConfigurationError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    try:
        args = [params[name] for name in FAMILIES[family].params]
    except KeyError as exc:
        raise ConfigurationError(
            f"family {family!r} is missing parameter {exc}") from None
    return FAMILIES[family](*args)


# ---------------------------------------------------------------------------
# pointwise operations


def eval_Gbar(yf: YoungFunction, t):
    """Conjugate function: integral of the generalized inverse over (0, t).

    g^{-1} has elasticity at least 1/(p_plus - 1), so the Laguerre rule
    runs with k = p_plus/(p_plus - 1), the conjugate exponent of p_plus.
    """
    arr, scalar = _as_batch(t)
    if np.any(arr < 0.0):
        raise DomainError("eval_Gbar: argument must be nonnegative")
    p_plus = yf.window[1]
    k = p_plus / (p_plus - 1.0)
    return _restore(_laguerre_integral(yf._g_inv_pos, arr, k), scalar)


class GrowthEstimate(NamedTuple):
    p_minus_hat: float
    p_plus_hat: float
    t_at_min: float
    t_at_max: float

    def margins(self, yf: YoungFunction) -> tuple[float, float]:
        """Room inside the declared window at each end, p_minus_hat - p_minus
        and p_plus - p_plus_hat; negative where the sampled window escapes."""
        return self.p_minus_hat - yf.p_minus, yf.p_plus - self.p_plus_hat


def estimate_growth_bounds(yf: YoungFunction) -> GrowthEstimate:
    """Empirical growth window from 1 + t g'(t)/g(t) on the standard grid
    of GROWTH_GRID points, left out where g under- or overflows (all nan if
    nothing is left). The constructor keeps it as ``yf.growth``."""
    t = standard_grid(GROWTH_GRID)
    with np.errstate(all="ignore"):
        g = yf.g(t)
        ratio = 1.0 + t * yf.g_prime(t) / g
    keep = (g >= np.finfo(float).tiny) & np.isfinite(g) & np.isfinite(ratio)
    if not keep.any():
        return GrowthEstimate(np.nan, np.nan, np.nan, np.nan)
    t, ratio = t[keep], ratio[keep]
    i_min = int(np.argmin(ratio))
    i_max = int(np.argmax(ratio))
    return GrowthEstimate(float(ratio[i_min]), float(ratio[i_max]),
                          float(t[i_min]), float(t[i_max]))


def submultiplicativity_constant(yf: YoungFunction) -> float:
    """inf g(t1) g(t2) / g(t1 t2) over the SUBMULT_GRID-point standard grid
    squared."""
    t = standard_grid(SUBMULT_GRID)
    gt = yf.g(t)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.outer(gt, gt)
        cross = yf.g(np.outer(t, t))
        ratio = prod / cross
    return float(np.nanmin(ratio))


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
        vals = self.base._G_inv_pos(self._G1 * arr ** (self.q_star - 1.0))
        return _restore(vals, scalar)

    def phi(self, t):
        """Vectorized integral of phi_prime via integration by parts.

        Phi(t) = t sigma(t) - int_0^sigma(t) (G(sigma)/G(1))^beta dsigma
        with sigma = phi_prime and beta = 1/(qs-1). The integrand's
        elasticity is at least beta p_minus, so the Laguerre rule runs with
        k = 1 + beta p_minus; logs guard against overflow in the power.
        """
        arr, scalar = _as_batch(t)
        if np.any(arr < 0.0):
            raise DomainError("phi: argument must be nonnegative")
        out = np.zeros_like(arr)
        pos = arr > 0.0
        if pos.any():
            tv = arr[pos]
            beta = 1.0 / (self.q_star - 1.0)
            sig = self.base._G_inv_pos(self._G1 * tv ** (self.q_star - 1.0))

            def integrand(pts):
                with np.errstate(divide="ignore", over="ignore"):
                    logG = np.log(np.maximum(self.base._G_pos(pts), 1e-300))
                    return np.exp(beta * (logG - np.log(self._G1)))

            k = 1.0 + beta * self.base.window[0]
            out[pos] = tv * sig - _laguerre_integral(integrand, sig, k)
        return _restore(out, scalar)

    def mvt_constant(self) -> float:
        """min(1, inf Phi/(t Phi')) on the MVT_GRID-point standard grid; the
        factor that turns the secant slope bound into a two-sided mean value
        estimate."""
        t = standard_grid(MVT_GRID)
        ratio = self.phi(t) / (t * self.phi_prime(t))
        return float(min(1.0, ratio.min()))
