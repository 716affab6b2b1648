"""The nonlocal operator on the interval: strong form, weak form, residual.

The weak form is, by construction, the exact gradient of the discrete
modular assembled in `orlicz`: far pairs, the clipped band, and the
closed-form exterior strips all share their quadrature between energy and
form. Coercivity against the modular and honest energy identities then
hold at round-off level instead of at quadrature-error level.

Every entry point takes an `orlicz.OperatorConfig` and reads all geometry
from its cached `orlicz.Discretization` for the mesh size. With
du = (u_i - u_j) / ds over its far-pair kernel, each far term is one
expression: residual g(du) kr, Newton Jacobian 2 g'(du) kr / ds, weak
form g(du) dv kr (the energy is G(du) kr ds).

The strong-form evaluator is separate and deliberately different in
texture: graded panels against the |x - y|^(-1-s) singularity over the
first cell, exact piecewise-linear values at cell midpoints outside the
band, and the same closed-form exterior as the weak side.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DomainError
from .orlicz import (Discretization, GridFunction, OperatorConfig,
                     _require_zero_boundary)
from .quadrature import graded_panel_depth, integrate_panels, panel_edges_graded
from .young import YoungFunction


def _band_cells(yf: YoungFunction, disc: Discretization, sigma: np.ndarray,
                newton: bool = False) -> np.ndarray:
    """Per-cell x-integral, over both clipped windows, of the sigma-derivative
    of the band energy density, W(sigma, T) = G(sigma T^(1-s)) / (sigma (1-s)),
    or of dW/dsigma for Newton assembly, from the compact band points of
    `disc`. W is odd in sigma and zero at zero."""
    ex = 1.0 - disc.s
    cell = disc.band_cell
    sig = sigma[cell]
    live = sig != 0.0
    sig, rho = sig[live], disc.band_rho[live]
    args = sig * rho
    if newton:
        val = (yf.g(args) * rho * sig - yf.G(args)) / (sig ** 2 * ex)
    else:
        val = yf.G(args) / (sig * ex)
    return np.bincount(cell[live], weights=disc.band_w[live] * val,
                       minlength=sigma.size)


def _strip_e(yf: YoungFunction, disc: Discretization, c: np.ndarray,
             newton: bool = False) -> np.ndarray:
    """One-point exterior term [G(c a_l) + G(c a_r)] / (s c), odd in c; its
    c-derivative for Newton assembly."""
    out = np.zeros_like(c)
    nz = c != 0.0
    if not nz.any():
        return out
    cv = c[nz]

    def side(a):
        av = a[nz]
        if newton:
            return (yf.g(cv * av) * av * cv - yf.G(cv * av)) / (disc.s * cv ** 2)
        return yf.G(cv * av)

    val = side(disc.a_l) + side(disc.a_r)
    out[nz] = val if newton else val / (disc.s * cv)
    return out


def weak_form(cfg: OperatorConfig, u: GridFunction, v: GridFunction) -> float:
    """Ordered-pair bilinear pairing of the operator at u with the test
    function v; equals d/de of the modular energy of u + e v at e = 0."""
    disc = cfg.discretization(u.mesh.m)
    _require_zero_boundary(u)
    if not v.vanishes_on_boundary():
        raise DomainError("test functions must vanish on the boundary")
    if v.mesh.m != u.mesh.m:
        raise DomainError("u and v must share a mesh")
    yf = cfg.young
    mesh = u.mesh
    uv, vv = u.values, v.values

    far_mat = yf.g(disc.quotients(uv))
    far_mat *= np.subtract.outer(vv, vv)
    far_mat *= disc.kr
    far = float(far_mat.sum())

    cell = _band_cells(yf, disc, np.diff(uv) / mesh.h)
    band = float(np.sum(cell * (np.diff(vv) / mesh.h)))

    wi = mesh.weights[1:-1]
    strip = 2.0 * float(np.sum(wi * vv[1:-1] * _strip_e(yf, disc, uv[1:-1])))
    return far + band + strip


def residual(cfg: OperatorConfig, u: GridFunction, rhs) -> GridFunction:
    """Nodal residual of the weak problem: the i-th entry is the pairing
    with the hat function at node i minus the trapezoid-weighted load.
    Boundary entries are pinned to zero."""
    disc = cfg.discretization(u.mesh.m)
    _require_zero_boundary(u)
    yf = cfg.young
    mesh = u.mesh
    uv = u.values
    rhs_vals = rhs.values if isinstance(rhs, GridFunction) else np.asarray(rhs, float)

    far_mat = yf.g(disc.quotients(uv))
    far_mat *= disc.kr
    r = 2.0 * far_mat.sum(axis=1)

    cell = _band_cells(yf, disc, np.diff(uv) / mesh.h) / mesh.h
    r[1:] += cell
    r[:-1] -= cell

    r[1:-1] += 2.0 * mesh.weights[1:-1] * _strip_e(yf, disc, uv[1:-1])

    r[1:-1] -= mesh.weights[1:-1] * rhs_vals[1:-1]
    r[0] = r[-1] = 0.0
    return GridFunction(mesh, r)


def assemble_matrix(cfg: OperatorConfig, u: GridFunction) -> np.ndarray:
    """Interior-node residual Jacobian: symmetric and positive
    semidefinite."""
    disc = cfg.discretization(u.mesh.m)
    yf = cfg.young
    mesh = u.mesh
    uv = u.values
    m = mesh.m

    # far pairs: 2 g'(du) kr / ds
    jac = yf.g_prime(disc.quotients(uv))
    jac *= disc.kr
    jac /= disc.ds
    jac *= 2.0
    row = jac.sum(axis=1)
    np.negative(jac, out=jac)
    jac.flat[::m + 1] += row

    cp = _band_cells(yf, disc, np.diff(uv) / mesh.h, newton=True) / mesh.h ** 2
    k = np.arange(m - 1)
    np.add.at(jac, (k, k), cp)
    np.add.at(jac, (k + 1, k + 1), cp)
    np.add.at(jac, (k, k + 1), -cp)
    np.add.at(jac, (k + 1, k), -cp)

    idx = np.arange(1, m - 1)
    jac[idx, idx] += 2.0 * mesh.weights[1:-1] * _strip_e(yf, disc, uv[1:-1],
                                                         newton=True)

    return jac[1:-1, 1:-1]


# ---------------------------------------------------------------------------
# strong form


def _first_cell_integral(cfg: OperatorConfig, sigma: np.ndarray,
                         h: float) -> np.ndarray:
    """int_0^h g(sigma tau^(1-s)) tau^(-1-s) dtau, odd in sigma.

    The integrand scales like tau^(p(1-s)-2) at zero; panels are graded to
    match, which is where the p_minus (1-s) > 1 restriction bites.
    """
    yf = cfg.young
    s = cfg.s
    expo = yf.p_minus * (1.0 - s) - 2.0
    depth = graded_panel_depth(expo)
    edges = panel_edges_graded(np.full(sigma.shape, h), depth)
    sig = sigma[..., None, None]
    return integrate_panels(lambda tau: yf.g(sig * tau ** (1.0 - s)) * tau ** (-1.0 - s),
                            edges, n_nodes=16)


def apply_interior(cfg: OperatorConfig, u: GridFunction) -> np.ndarray:
    """Strong-form operator values at every interior node.

    Per node: graded quadrature of the slope-substituted first cell on each
    side, exact piecewise-linear midpoint sums for the remaining interior
    cells, and the closed-form exterior strips.

    Unlike the energy side, boundary values need not vanish: the evaluation
    at one interior node stays finite for any nodal data.
    """
    yf = cfg.young
    s = cfg.s
    if yf.p_minus * (1.0 - s) <= 1.0 + 1e-12:
        raise ConfigurationError(
            "strong-form evaluation needs p_minus (1 - s) > 1; the first-cell "
            "integral diverges otherwise")
    mesh = u.mesh
    uv = u.values
    h = mesh.h
    m = mesh.m
    interior = np.arange(1, m - 1)

    # first cell on each side: difference is exactly linear in tau there
    slopes = np.diff(uv) / h
    sig_l = slopes[interior - 1]    # u(x_i) - u(x_i - tau) = sig_l tau
    sig_r = -slopes[interior]       # u(x_i) - u(x_i + tau) = -sig_r_raw tau
    out = (_first_cell_integral(cfg, sig_l, h)
           + _first_cell_integral(cfg, sig_r, h))

    # beyond the first cell: midpoint cells tile (h, distance to each
    # endpoint) exactly; midpoint values of a hat-interpolant are averages
    mids = 0.5 * (uv[:-1] + uv[1:])
    ks = np.arange(1, m - 1)
    tau_k = (ks + 0.5) * h
    kern = tau_k ** (-1.0 - s)
    ui = uv[interior][:, None]
    for sgn, count in ((-1, interior), (1, (m - 1) - interior)):
        live = ks[None, :] <= (count - 1)[:, None]
        cell_idx = np.clip(interior[:, None] + sgn * (1 + ks[None, :])
                           + (0 if sgn < 0 else -1), 0, m - 2)
        diff = ui - mids[cell_idx]
        vals = yf.g(diff / tau_k[None, :] ** s) * kern[None, :] * h
        out += np.sum(vals * live, axis=1)

    # exterior strips, closed form: the weak side's term, carried once
    out += _strip_e(yf, cfg.discretization(m), uv[interior])
    return out


def apply(cfg: OperatorConfig, u: GridFunction, i: int) -> float:
    """Strong-form value at interior node index ``i``."""
    mesh = u.mesh
    i = int(i)
    if not (0 < i < mesh.m - 1):
        raise DomainError(f"node index {i} is not interior (mesh has "
                          f"{mesh.m} nodes)")
    return float(apply_interior(cfg, u)[i - 1])
