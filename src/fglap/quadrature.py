"""Shared quadrature and root-finding primitives.

Everything here is vectorized over numpy arrays: the heavy callers
(conjugate evaluation, boundary-weight integrals, check batteries)
evaluate thousands of points per call and cannot afford per-scalar
adaptive quadrature. The quadrature rules are stored, not built: the two
truncated Gauss-Laguerre rules that every integral from zero uses, and the
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


# the generalized Gauss-Laguerre rules for the weight v^alpha e^(-v) that
# the integrals from zero use, alpha = 0 and 1: the leading nodes and weights
# of the 64-point rule, those whose trailing weight mass, their own included,
# is at least 1e-20 of the total (34 and 35 nodes). The nodes are the
# eigenvalues of the Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969)
# polished by one Newton step, and the weights come from the closed form
# w ~ 1/(L_(n-1) L_n') in logs, normalized to sum to Gamma(alpha + 1); they
# are stored to the last bit, so that no run calls LAPACK for them (the
# tests rebuild them and pin every bit)
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
LAGUERRE_A1_NODES = (0.05647320656425668, 0.18934772104680575, 0.39827820469549297,
                     0.6833709835583146, 1.0447907917824677, 1.4827500622755947,
                     1.997508098313454, 2.589371587380827, 3.2586955204404062,
                     4.00588435015592, 4.831393354276043, 5.7357302024342065,
                     6.719456735150557, 7.783190968801305, 8.927609343766134,
                     10.153449236088811, 11.461511756232065, 12.852664862083799,
                     14.327846817413901, 15.88807003160934, 17.53442532185635,
                     19.268086645137384, 21.090316354639988, 23.002471043643737,
                     25.006008049916254, 27.102492705424737, 29.293606430146262,
                     31.581155785424983, 33.96708262228713, 36.45347548415412,
                     39.042582452465695, 41.73682565908287, 44.53881773258445,
                     47.451380498769836, 50.47756632153382)
LAGUERRE_A1_WEIGHTS = (0.0050626117135460285, 0.02677610406487715, 0.06605305443298322,
                       0.11152621219346656, 0.14687995587872726, 0.16032780993861354,
                       0.14993660325935226, 0.12256053895462823, 0.08870679603124516,
                       0.05735033261776171, 0.03332403717944028, 0.017479705440780622,
                       0.008303305987807218, 0.0035802518197699247,
                       0.0014035969938181732, 0.0005008859762982708,
                       0.00016282825869696373, 4.8239133125368005e-05,
                       1.3026048155972931e-05, 3.2057585030683426e-06,
                       7.188265120843563e-07, 1.4678445632299096e-07,
                       2.7277817051114986e-08, 4.609469236714187e-09,
                       7.075741358588297e-10, 9.855337197689407e-11,
                       1.2438817515316232e-11, 1.420541798737407e-12,
                       1.4654909190387272e-13, 1.3632578075289509e-14,
                       1.1412240939301743e-15, 8.578476966287301e-17,
                       5.7763570042104085e-18, 3.4750710984650357e-19,
                       1.8624950934760323e-20)


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
