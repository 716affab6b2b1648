"""Shared quadrature and root-finding primitives.

Everything here is vectorized over numpy arrays: the heavy callers
(conjugate evaluation, boundary-weight integrals, check batteries)
evaluate thousands of points per call and cannot afford per-scalar
adaptive quadrature.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import roots_genlaguerre

from .errors import ConvergenceError, DomainError

# Bracket guards for monotone root finding. Arguments outside this range
# overflow float64 for the growth rates we admit.
BRACKET_LO = 1e-300
BRACKET_HI = 1e300


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=64)
def gauss_laguerre(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre rule on [0, inf) with weight v^alpha e^(-v), cached."""
    return roots_genlaguerre(n, alpha)


def invert_monotone(func, y, *, lo: float = BRACKET_LO, hi: float = BRACKET_HI,
                    iters: int = 64) -> np.ndarray:
    """Solve func(t) = y for a strictly increasing func with func(0) = 0.

    Vectorized geometric bisection: brackets are refined through their
    geometric midpoint so the relative argument error halves in log space,
    reaching ~1e-14 relative accuracy in 64 iterations from the full
    [1e-300, 1e300] bracket. Exact zeros map to zero.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("invert_monotone: target values must be finite")
    if np.any(y < 0.0):
        raise DomainError("invert_monotone: target values must be nonnegative")

    scalar = y.ndim == 0
    y = np.atleast_1d(y).astype(float)
    out = np.zeros_like(y)
    live = y > 0.0
    if not live.any():
        return out[0] if scalar else out

    yl = y[live]
    lo_a = np.full(yl.shape, lo)
    hi_a = np.full(yl.shape, hi)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        f_lo = func(lo_a)
        f_hi = func(hi_a)
        if np.any(f_lo > yl) or np.any(f_hi < yl):
            raise ConvergenceError("invert_monotone: target escapes the global bracket")
        for _ in range(iters):
            mid = np.sqrt(lo_a * hi_a)
            below = func(mid) < yl
            lo_a = np.where(below, mid, lo_a)
            hi_a = np.where(below, hi_a, mid)
    out[live] = np.sqrt(lo_a * hi_a)
    return out[0] if scalar else out


def panel_edges_graded(upper, n_panels: int, ratio: float = 2.0) -> np.ndarray:
    """Geometric panel edges 0 < upper/r^k < ... < upper for singular integrands.

    Returns an array of shape upper.shape + (n_panels + 1,). The lowest edge
    is upper / ratio**(n_panels - 1); the first panel starts at zero so the
    decomposition is exact.
    """
    upper = np.asarray(upper, dtype=float)
    scale = ratio ** (-np.arange(n_panels - 1, -1.0, -1.0))
    edges = upper[..., None] * scale
    zero = np.zeros(upper.shape + (1,))
    return np.concatenate([zero, edges], axis=-1)


def integrate_panels(func, edges: np.ndarray, n_nodes: int = 12) -> np.ndarray:
    """Gauss-Legendre integration of a vectorized func over panel stacks.

    ``edges`` has shape batch + (n_panels + 1,); the result sums every panel
    and has shape batch.
    """
    x, w = gauss_legendre(n_nodes)
    lo = edges[..., :-1, None]
    hi = edges[..., 1:, None]
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    vals = func(mid + half * x)
    return np.sum(np.sum(vals * w, axis=-1) * half[..., 0], axis=-1)


def graded_panel_depth(exponent: float, rel_tol: float = 1e-13,
                       max_panels: int = 400) -> int:
    """Panels needed so the untreated mass of t^exponent below the lowest
    edge stays under rel_tol relative to the whole integral.

    Valid for exponent > -1; the closer to -1, the deeper the grading.
    """
    if exponent <= -1.0:
        raise DomainError("graded quadrature requires an integrable power at zero")
    depth = int(np.ceil(-np.log2(rel_tol) / (exponent + 1.0))) + 4
    return min(max(depth, 8), max_panels)


def adaptive_quad(func, a: float, b: float, *, rel_tol: float = 1e-10) -> float:
    """Scalar adaptive quadrature wrapper used by oracles and generic paths."""
    val, _ = integrate.quad(func, a, b, epsrel=rel_tol, epsabs=0.0, limit=400)
    return val
