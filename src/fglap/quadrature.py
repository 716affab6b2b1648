"""Shared quadrature and root-finding primitives.

Everything here is vectorized over numpy arrays: the heavy callers
(conjugate evaluation, boundary-weight integrals, check batteries)
evaluate thousands of points per call and cannot afford per-scalar
adaptive quadrature. The Gauss-Laguerre rule is built with numpy alone;
the one Gauss-Legendre rule, eight points, is stored.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

# Newton steps allowed per point. Inside its growth window a shipped family
# needs at most 4 (the tests cap them at 6); a function that leaves its
# window runs out instead.
INVERT_MAX_ITER = 40


# the 8-point Gauss-Legendre rule on [-1, 1], the values of
# numpy.polynomial.legendre.leggauss(8) to the last bit, so that no run
# imports numpy.polynomial for them
LEGENDRE_8_NODES = (-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                    0.7966664774136267, 0.9602898564975362)
LEGENDRE_8_WEIGHTS = (0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                      0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                      0.22238103445337443, 0.10122853629037706)


def _laguerre_running_sum(n: int, alpha: float, x: np.ndarray):
    """P_n(x) and P_n(x) - P_(n-1)(x), where P_k = L_k^alpha / C(k + alpha, k).

    The running sum carries the difference d = P_k - P_(k-1) itself, so it
    never cancels where P_n is near zero.
    """
    d = -x / (alpha + 1.0)
    p = d + 1.0
    for k in range(1, n):
        d = -x / (k + alpha + 1.0) * p + (k / (k + alpha + 1.0)) * d
        p = p + d
    return p, d


@lru_cache(maxsize=64)
def gauss_laguerre(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre rule on [0, inf) with weight v^alpha e^(-v), cached.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch,
    Math. Comp. 23, 1969), polished by one Newton step on L_n^alpha, whose
    quotient L_n/L_n' is x P_n / (n (P_n - P_(n-1))). The weights come from
    the closed form w ~ 1/(L_(n-1) L_n'), formed in logs and normalized to
    sum to Gamma(alpha + 1): eigenvector weights lose all relative accuracy
    below ~1e-40, and the Laguerre integrals multiply w by e^v, v up to ~220.
    """
    k = np.arange(1, n)
    off = np.sqrt(k * (k + alpha))
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + alpha + 1.0)
                           + np.diag(off, 1) + np.diag(off, -1))
    p, d = _laguerre_running_sum(n, alpha, x)
    x = x - x * p / (n * d)
    p, d = _laguerre_running_sum(n, alpha, x)
    log_w = -np.log(np.abs(p - d)) - np.log(np.abs(d / x))
    w = np.exp(log_w - log_w.max())
    return x, w * (math.gamma(alpha + 1.0) / w.sum())


def invert_monotone(func, y, window: tuple[float, float], *, deriv=None,
                    rtol: float = 1e-9) -> np.ndarray:
    """Solve func(t) = y for an increasing func with func(0) = 0 whose
    elasticity t func'(t)/func(t) stays inside window = (e_lo, e_hi), e_lo > 0.

    The window brackets every root: func(t)/func(1) lies between t^e_lo and
    t^e_hi, so log t lies between log(y/func(1))/e_hi and
    log(y/func(1))/e_lo. Newton runs on log func against log t, where the
    slope is the elasticity: t deriv(t)/func(t) when ``deriv`` is given,
    else the secant slope of the last two iterates (the first anchored at
    t = 1); either is clamped to the window. A step leaving the bracket is
    replaced by the bracket's midpoint. A point stops after taking a step
    of at most rtol in log t; with ``deriv`` the error after that step is
    of order rtol^2, so the default ends at rounding level. Exact zeros map
    to zero. A point still moving after INVERT_MAX_ITER steps raises
    ConvergenceError: func left its window, or has no root.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("invert_monotone: target values must be finite")
    if np.any(y < 0.0):
        raise DomainError("invert_monotone: target values must be nonnegative")
    e_lo, e_hi = map(float, window)
    if not (0.0 < e_lo <= e_hi):
        raise DomainError("invert_monotone: the growth window needs 0 < e_lo <= e_hi")

    shape = y.shape
    y = y.ravel()
    out = np.zeros(y.size)
    live = np.flatnonzero(y > 0.0)
    if live.size == 0:
        return out.reshape(shape)[()]

    with np.errstate(all="ignore"):
        f1 = func(np.ones(1))[0]
        if deriv is not None:
            slope = float(np.clip(deriv(np.ones(1))[0] / f1, e_lo, e_hi))
        else:
            slope = 0.5 * (e_lo + e_hi)
        yl = y[live]
        ell = np.log(yl) - np.log(f1)  # y/f(1) can underflow
        # windows are verified to ~1e-9, and a pure power's bracket has width 0
        pad = 1e-9 * (1.0 + np.abs(ell))
        lo = np.minimum(ell / e_hi, ell / e_lo) - pad
        hi = np.maximum(ell / e_hi, ell / e_lo) + pad
        x = ell / slope
        t = np.exp(x)
        # secant memory starts at the anchor t = 1, where log(func/y) = -ell
        x_prev, phi_prev = np.zeros(live.size), -ell
        for _ in range(INVERT_MAX_ITER):
            f = func(t)
            phi = np.log(f / yl)
            hi = np.where(phi > 0.0, x, hi)
            lo = np.where(phi < 0.0, x, lo)
            if deriv is not None:
                s = t * deriv(t) / f
            else:
                s = (phi - phi_prev) / (x - x_prev)
                x_prev, phi_prev = x, phi
            step = np.where(phi == 0.0, 0.0, -phi / np.clip(s, e_lo, e_hi))
            # a step this small lands on a root whatever the bracket says: it
            # may round onto the bracket's end, and bisecting there would crawl
            done = np.abs(step) <= rtol
            x_new = x + step
            take = done | ((x_new > lo) & (x_new < hi))
            t = np.where(take, t * np.exp(step), np.exp(0.5 * (lo + hi)))
            x = np.where(take, x_new, 0.5 * (lo + hi))
            out[live[done]] = t[done]
            keep = ~done
            if not keep.any():
                return out.reshape(shape)[()]
            live, yl, t, x, lo, hi = (a[keep] for a in (live, yl, t, x, lo, hi))
            x_prev, phi_prev = x_prev[keep], phi_prev[keep]
    raise ConvergenceError(
        f"invert_monotone: {live.size} target(s) unresolved after {INVERT_MAX_ITER} "
        f"steps, e.g. y = {yl[0]:.6g}; the function leaves its growth window "
        f"{tuple(window)} or never reaches the target")
