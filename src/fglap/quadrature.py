"""Shared quadrature and root-finding primitives.

Everything here is vectorized over numpy arrays: the heavy callers
(conjugate evaluation, boundary-weight integrals, check batteries)
evaluate thousands of points per call and cannot afford per-scalar
adaptive quadrature. The quadrature rules are stored, not built: the one
truncated Gauss-Laguerre rule that every integral from zero uses, and the
eight-point Gauss-Legendre rule of the band.
"""

from __future__ import annotations

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


# the Gauss-Laguerre rule for the weight e^(-v) that every integral from
# zero uses: the leading 34 nodes and weights of the 64-point rule, those
# whose trailing weight mass, their own included, is at least 1e-20 of the
# total. The nodes dropped carry 1.2e-21 of the weight, and 5.7e-20 of the
# v-weighted mass that Lambda's sums see through their factor v/k. The nodes
# are the eigenvalues of the Jacobi matrix (Golub & Welsch, Math. Comp. 23,
# 1969) polished by one Newton step, and the weights come from the closed
# form w ~ 1/(L_63 L_64') in logs, normalized to sum to 1; they are stored
# to the last bit, so that no run calls LAPACK for them (the tests rebuild
# them and pin every bit)
LAGUERRE_A0_NODES = (0.02241587414670528, 0.1181225120967705, 0.2903657440180365,
                     0.539286221227979, 0.865037004648114, 1.2678140407752414,
                     1.7478596260594363, 2.3054637393075086, 2.9409651567252517,
                     3.6547526502072905, 4.447266343313094, 5.31899925449639,
                     6.270499046923654, 7.302370002587396, 8.415275239483025,
                     9.609939192796109, 10.887150383886372, 12.247764504244302,
                     13.692707845547506, 15.22298111152473, 16.83966365264874,
                     18.54391817085919, 20.336995948730234, 22.220242665950877,
                     24.195104875933254, 26.263137227118484, 28.426010527501028,
                     30.685520767525972, 33.04359923643783, 35.50232389114121,
                     38.06393216564647, 40.73083544445863, 43.50563546642153,
                     46.391142978616195)
LAGUERRE_A0_WEIGHTS = (0.05625284233902836, 0.11902398731242647, 0.1574964038621445,
                       0.16754705041577328, 0.15335285577923732, 0.12422105360933042,
                       0.09034230098648549, 0.05947775576835508, 0.03562751890403594,
                       0.019480410431166387, 0.009743594899382035, 0.004464310364166275,
                       0.0018753595813231292, 0.0007226469815750075,
                       0.0002554875328334984, 8.287143534396974e-05,
                       2.4656863967885595e-05, 6.726713878829682e-06,
                       1.681785369964096e-06, 3.8508129815466917e-07,
                       8.068728040990539e-08, 1.5457237067576937e-08,
                       2.7044801476174806e-09, 4.3167754754272066e-10,
                       6.277752541761464e-11, 8.306317376288971e-12,
                       9.984031787220192e-13, 1.0883538871166606e-13,
                       1.0740174034415918e-14, 9.575737231574438e-16,
                       7.697028023648616e-17, 5.5648811374540496e-18,
                       3.6097564090104356e-19, 2.0950953695489566e-20)


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
