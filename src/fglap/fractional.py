"""The nonlocal operator on the interval: strong form, weak form, residual.

The residual, and with it the weak form, is by construction the exact
gradient of the discrete modular assembled in `orlicz`: far pairs, the
clipped band, and the closed-form exterior strips all share their
quadrature between energy and form. Coercivity against the modular and
honest energy identities then hold at round-off level instead of at
quadrature-error level.

Every entry point takes an `orlicz.OperatorConfig` and reads all geometry
from its cached `orlicz.Discretization` for the mesh size. With
du = (u_i - u_j) / ds over its far-pair kernel, each far term is one
expression: residual g(du) kr, Newton Jacobian 2 g'(du) kr / ds (the
energy is G(du) kr ds). The kernel leaves out the half trapezoid weight of
the end nodes, so the columns of nodes 0 and m - 1 are halved
(`orlicz._halve_boundary`) before the rows are summed. The weak form is
the residual paired with the test function's nodal values.

The far terms are m x m arrays. They are evaluated in place in
`orlicz._FAR`, the `young.Workspace` of three buffers (du, the g values,
and the Young kernels' scratch) that the energy shares, one per thread and
one mesh size at a time; ds and kr are read-only Toeplitz views of O(m)
storage. A residual or weak-form evaluation then allocates no m x m array
at all. The Jacobian allocates one: g' goes straight into the fresh matrix
whose interior it returns, for the caller to keep or modify. At m = 257 an
m x m array is 516 KiB, above glibc's mmap threshold, so each fresh
temporary cost its own page faults. A pass that reads a Toeplitz view is
not one contiguous loop: on the half rows at m = 257 it costs 8-16 us
more than over a dense array (2-core Xeon), so the Jacobian folds its
factor 2 into the negation and makes one pass fewer.

The band and strip terms are local: O(m) arguments, at which the residual
needs G and the Jacobian needs G, g and g'. `_local_G` is their one G
pass, one call on the band and strip arguments concatenated.
``residual(..., with_G=True)`` returns those G values with the residual,
and `assemble_matrix` takes them as ``G=`` at the same iterate, so a
Newton step evaluates G there once; the Jacobian still evaluates its own
g and g' terms. Without ``G=`` it makes the pass itself.

Even data on an odd mesh need only the rows of the nodes up to the centre
c = (m - 1) / 2, because the operator commutes with x -> -x. With
``even=True``, `residual` evaluates rows 0 ... c on the first c + 1 rows of
the same workspace buffers and mirrors them onto the rest; they equal the
full evaluation's rows bit for bit. `assemble_matrix` returns the Jacobian
rows 1 ... c over all interior columns, and `fold` adds each column to its
mirror's, so that the c half unknowns carry the whole even Newton step.

The strong-form evaluator is separate and deliberately different in
texture: the first cell, where the |x - y|^(-1-s) singularity sits, on
the Gauss-Laguerre rule that every integral from zero shares; exact
piecewise-linear values at cell midpoints outside the band; and the same
closed-form exterior as the weak side.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DomainError
from .orlicz import (_FAR, Discretization, GridFunction, OperatorConfig,
                     _halve_boundary, _require_zero_boundary)
from .young import YoungFunction, _laguerre_integral


def _band_points(disc: Discretization, sigma: np.ndarray):
    """The band points of `disc` where the cell slope sigma is nonzero:
    their cells, sigma there, window radii to the power 1 - s, weights."""
    cell = disc.band_cell
    sig = sigma[cell]
    live = sig != 0.0
    return cell[live], sig[live], disc.band_rho[live], disc.band_w[live]


def _strip_args(disc: Discretization,
                c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c a_l and c a_r at the nonzero entries of c, the values at the
    interior nodes from the first on (all of them, or those up to the
    centre)."""
    nz = c != 0.0
    cv = c[nz]
    return cv * disc.a_l[:c.size][nz], cv * disc.a_r[:c.size][nz]


def _G_parts(yf: YoungFunction, *parts: np.ndarray) -> list[np.ndarray]:
    """G at each of the argument arrays, in one call on their
    concatenation."""
    vals = yf.G(np.concatenate(parts))
    return np.split(vals, np.cumsum([p.size for p in parts[:-1]]))


def _local_G(yf: YoungFunction, disc: Discretization, sigma: np.ndarray,
             c: np.ndarray) -> list[np.ndarray]:
    """The one G pass of an iterate's local terms: G at the live band
    points of the cell slopes sigma, whose arguments are sigma rho, and
    at the `_strip_args` of the nodal values c."""
    _, sig, rho, _ = _band_points(disc, sigma)
    return _G_parts(yf, sig * rho, *_strip_args(disc, c))


def _band_cells(yf: YoungFunction, disc: Discretization, sigma: np.ndarray,
                G: np.ndarray, newton: bool = False) -> np.ndarray:
    """Per-cell x-integral, over both clipped windows, of the sigma-derivative
    of the band energy density, W(sigma, T) = G(sigma T^(1-s)) / (sigma (1-s)),
    or of dW/dsigma for Newton assembly, from the compact band points of
    `disc` and G at their live points (`_local_G`). W is odd in sigma and
    zero at zero."""
    ex = 1.0 - disc.s
    cell, sig, rho, w = _band_points(disc, sigma)
    if newton:
        val = (yf.g(sig * rho) * rho * sig - G) / (sig ** 2 * ex)
    else:
        val = G / (sig * ex)
    return np.bincount(cell, weights=w * val, minlength=sigma.size)


def _strip_e(yf: YoungFunction, disc: Discretization, c: np.ndarray,
             G_l: np.ndarray, G_r: np.ndarray, newton: bool = False) -> np.ndarray:
    """One-point exterior term [G(c a_l) + G(c a_r)] / (s c), odd in c, from
    the two G values at the nonzero c (`_local_G`); its c-derivative for
    Newton assembly."""
    out = np.zeros_like(c)
    nz = c != 0.0
    if not nz.any():
        return out
    cv = c[nz]

    def side(a, Ga):
        if newton:
            av = a[:c.size][nz]
            return (yf.g(cv * av) * av * cv - Ga) / (disc.s * cv ** 2)
        return Ga

    val = side(disc.a_l, G_l) + side(disc.a_r, G_r)
    out[nz] = val if newton else val / (disc.s * cv)
    return out


def weak_form(cfg: OperatorConfig, u: GridFunction, v: GridFunction) -> float:
    """Ordered-pair bilinear pairing of the operator at u with the test
    function v; equals d/de of the modular energy of u + e v at e = 0.
    It is the unloaded residual, whose entries are the pairings with the
    hat functions, paired with v's nodal values."""
    if not v.vanishes_on_boundary():
        raise DomainError("test functions must vanish on the boundary")
    if v.mesh.m != u.mesh.m:
        raise DomainError("u and v must share a mesh")
    return float(v.values @ residual(cfg, u, np.zeros(u.mesh.m)).values)


def mirror(half: np.ndarray) -> np.ndarray:
    """The even extension of values at the nodes up to the centre:
    ``half`` followed by its reverse without the centre entry."""
    return np.concatenate((half, half[-2::-1]))


def _rows(m: int, even: bool) -> int:
    """Rows an evaluation computes: all m nodes, or for even data on an odd
    mesh the nodes up to the centre, 0 ... (m - 1) / 2."""
    return (m + 1) // 2 if even else m


def residual(cfg: OperatorConfig, u: GridFunction, rhs, *,
             even: bool = False, with_G: bool = False):
    """Nodal residual of the weak problem: the i-th entry is the pairing
    with the hat function at node i minus the trapezoid-weighted load.
    Boundary entries are pinned to zero.

    With ``even`` (u and rhs even, m odd) only the rows up to the centre
    are evaluated, on the first rows of the far-pair kernel, and mirrored
    onto the rest; those rows equal the full evaluation's bit for bit.
    With ``with_G`` it returns the pair (residual, G), G being the band and
    strip G values it evaluated, for `assemble_matrix` at the same u and
    ``even``."""
    disc = cfg.discretization(u.mesh.m)
    _require_zero_boundary(u)
    yf = cfg.young
    mesh = u.mesh
    uv = u.values
    rhs_vals = rhs.values if isinstance(rhs, GridFunction) else np.asarray(rhs, float)
    k = _rows(mesh.m, even)

    with _FAR.take(disc.kr.shape) as (du, far_mat, work):
        du, far_mat, work = du[:k], far_mat[:k], work[:k]
        yf.g(disc.quotients(uv, out=du), out=far_mat, work=work)
        far_mat *= disc.kr[:k]
        r = 2.0 * _halve_boundary(far_mat).sum(axis=1)

    # band cell i couples nodes i and i + 1
    inner = slice(1, min(k, mesh.m - 1))
    sigma = np.diff(uv) / mesh.h
    G = _local_G(yf, disc, sigma, uv[inner])
    cell = _band_cells(yf, disc, sigma, G[0]) / mesh.h
    r[1:] += cell[:k - 1]
    r[:inner.stop] -= cell[:inner.stop]

    r[inner] += 2.0 * mesh.weights[inner] * _strip_e(yf, disc, uv[inner], *G[1:])
    r[inner] -= mesh.weights[inner] * rhs_vals[inner]
    if even:
        r = mirror(r)
    r[0] = r[-1] = 0.0
    res = GridFunction(mesh, r)
    return (res, G) if with_G else res


def assemble_matrix(cfg: OperatorConfig, u: GridFunction, *,
                    even: bool = False, G=None) -> np.ndarray:
    """Interior-node residual Jacobian: symmetric and positive
    semidefinite. A fresh array, the caller's to modify.

    With ``even`` (u even, m odd) only the rows of the interior nodes up
    to the centre c = (m - 1) / 2 are assembled: the block J[1:c+1, 1:-1]
    of shape (c, m - 2), for `fold` to reduce to the half unknowns.
    ``G`` is the band and strip G values that ``residual(..., with_G=True)``
    returned at this u and ``even``; without it they are evaluated here.
    The g and g' terms are always evaluated here."""
    disc = cfg.discretization(u.mesh.m)
    yf = cfg.young
    mesh = u.mesh
    uv = u.values
    n = mesh.m - 2
    k = _rows(mesh.m, even)
    rows = slice(1, min(k, mesh.m - 1))    # the interior nodes assembled
    count = rows.stop - 1
    sigma = np.diff(uv) / mesh.h
    if G is None:
        G = _local_G(yf, disc, sigma, uv[rows])

    # far pairs: 2 g'(du) kr / ds, zero on near pairs and the diagonal,
    # written straight into the fresh matrix whose interior is returned
    with _FAR.take(disc.kr.shape) as (du, _, work):
        pair = yf.g_prime(disc.quotients(uv, out=du[:k]), work=work[:k])
    pair *= disc.kr[:k]
    pair /= disc.ds[:k]
    row = 2.0 * _halve_boundary(pair).sum(axis=1)
    jac = np.multiply(pair, -2.0, out=pair)[rows, 1:-1]

    # band cell k couples nodes k and k + 1; node i sees cells i and i - 1;
    # the centre row keeps its coupling to node c + 1, which `fold` maps
    # back onto node c - 1
    cp = _band_cells(yf, disc, sigma, G[0], newton=True) / mesh.h ** 2
    diag = row[rows] + cp[1:count + 1]
    diag += cp[:count]
    diag += 2.0 * mesh.weights[rows] * _strip_e(yf, disc, uv[rows], *G[1:],
                                                newton=True)
    jac.flat[::n + 1] += diag
    jac.flat[1::n + 1] -= cp[1:min(count, n - 1) + 1]
    jac.flat[n::n + 1] -= cp[1:count]
    return jac


def fold(block: np.ndarray) -> np.ndarray:
    """The even-data Newton matrix on the half unknowns: the (c, m - 2)
    block of `assemble_matrix` with column j plus its mirror column
    m - 3 - j, for j below the centre column, which is kept once. A mirrored
    half step delta then satisfies J delta = fold(block) delta_h on the rows
    up to the centre."""
    c = block.shape[0]
    block[:, :c - 1] += block[:, :c - 1:-1]
    return block[:, :c]


# ---------------------------------------------------------------------------
# strong form


def _first_cell_integral(cfg: OperatorConfig, sigma: np.ndarray,
                         h: float) -> np.ndarray:
    """int_0^h g(sigma tau^(1-s)) tau^(-1-s) dtau, odd in sigma.

    With y = |sigma| tau^(1-s) and e = 1/(1-s) it is
    e |sigma|^(s e) int_0^(|sigma| h^(1-s)) g(y) y^(-e) dy, on the Laguerre
    rule sized as for G, k = window[0] - e: positive exactly under the
    window[0] (1-s) > 1 that `apply_interior` enforces. The integrand is
    formed in logs, since y^(-e) overflows where g underflows, and is zero
    below the smallest normal float, which loses a fraction ~(tiny/y)^k of
    the integral: under 1e-15 for k >= 0.05.
    """
    yf = cfg.young
    e = 1.0 / (1.0 - cfg.s)

    def integrand(y, **_):
        out = np.zeros_like(y)
        pos = y >= np.finfo(float).tiny
        with np.errstate(divide="ignore"):
            out[pos] = np.exp(np.log(yf.g(y[pos])) - e * np.log(y[pos]))
        return out

    mag = np.abs(sigma)
    upper = mag * h ** (1.0 - cfg.s)
    vals = _laguerre_integral(integrand, upper, yf.window[0] - e)
    return np.sign(sigma) * e * mag ** (cfg.s * e) * vals


def apply_interior(cfg: OperatorConfig, u: GridFunction) -> np.ndarray:
    """Strong-form operator values at every interior node.

    Per node: the slope-substituted first cell on each side on the
    Gauss-Laguerre rule, exact piecewise-linear midpoint sums for the
    remaining interior cells, and the closed-form exterior strips.

    Unlike the energy side, boundary values need not vanish: the evaluation
    at one interior node stays finite for any nodal data.
    """
    yf = cfg.young
    s = cfg.s
    if yf.window[0] * (1.0 - s) <= 1.0 + 1e-12:
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
    disc = cfg.discretization(m)
    c = uv[interior]
    out += _strip_e(yf, disc, c, *_G_parts(yf, *_strip_args(disc, c)))
    return out


def apply(cfg: OperatorConfig, u: GridFunction, i: int) -> float:
    """Strong-form value at interior node index ``i``."""
    mesh = u.mesh
    i = int(i)
    if not (0 < i < mesh.m - 1):
        raise DomainError(f"node index {i} is not interior (mesh has "
                          f"{mesh.m} nodes)")
    return float(apply_interior(cfg, u)[i - 1])
