"""The nonlocal operator on the interval: strong form, weak form, residual.

The residual, and with it the weak form, is by construction the exact
gradient of the discrete modular assembled in `orlicz`: far pairs and local
terms share their quadrature between energy and form, so coercivity against
the modular and the energy identities hold at round-off level instead of at
quadrature-error level.

Every entry point takes an `orlicz.OperatorConfig` and reads all geometry
from its cached `orlicz.Discretization` for the mesh size. With
du = (u_i - u_j) / ds over its far-pair kernel, each far term is one
expression: residual g(du) kr, Newton Jacobian 2 g'(du) kr / ds (the
energy is G(du) kr ds). The kernel leaves out the half trapezoid weight of
the end nodes, so the columns of nodes 0 and m - 1 are halved
(`orlicz._halve_boundary`) before the rows are summed. The weak form is
the residual paired with the test function's nodal values.

The far terms are m x m arrays, evaluated in place in the far-pair
buffers `orlicz._FAR`: three reused arrays (du, the Young values, and the
Young kernels' scratch), per thread and of one mesh size at a time, which
the energy in `orlicz` shares. ds and kr are read-only views, so a
residual or weak-form evaluation allocates no m x m array; the Jacobian
allocates the one it returns.

The local terms are the `Discretization`'s list of local points.
`_local_G` is their one G pass, which `residual` can hand on to
`assemble_matrix` at the same iterate, and `_local_sums` sums each
argument's first or second derivative with a ``np.bincount``.

Even data on an odd mesh need only the rows of the nodes up to the centre
c = (m - 1) / 2, because the operator commutes with x -> -x: `residual`
and `assemble_matrix` take ``even=True`` for that, and `fold` reduces the
Jacobian's rows to the c half unknowns.

The strong-form evaluator is separate and deliberately different in
texture: the first cell, where the |x - y|^(-1-s) singularity sits, on
the Gauss-Laguerre rule that every integral from zero shares; exact
piecewise-linear values at cell midpoints outside the band; and the same
closed-form exterior as the weak side, from the local kernel with the
slopes zeroed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DomainError
from .orlicz import (_FAR, Discretization, GridFunction, OperatorConfig,
                     _halve_boundary, _require_zero_boundary)
from .young import YoungFunction, _laguerre_integral


def _live(disc: Discretization, x: np.ndarray):
    """The local points of `disc` whose argument in x (`local_args`) is
    nonzero: their index into x, x there, their factor r and weight W."""
    arg = disc.loc_arg
    xp = x[arg]
    live = xp != 0.0
    return arg[live], xp[live], disc.loc_r[live], disc.loc_w[live]


def _local_G(yf: YoungFunction, disc: Discretization,
             x: np.ndarray) -> np.ndarray:
    """The one G pass of the local terms at the arguments x: G(x r) at
    the live points."""
    _, xp, r, _ = _live(disc, x)
    return yf.G(xp * r)


def _local_sums(yf: YoungFunction, disc: Discretization, x: np.ndarray,
                G: np.ndarray, newton: bool = False) -> np.ndarray:
    """Per argument of x, the x-derivative of the local energy
    W Lambda(|x| r) summed over its points, W G(x r) / x, or with
    ``newton`` its second derivative W (g(x r) r x - G(x r)) / x^2, from
    G at the live points (`_local_G`). Both are odd in x and zero at
    zero."""
    arg, xp, r, w = _live(disc, x)
    if newton:
        val = (yf.g(xp * r) * r * xp - G) / xp ** 2
    else:
        val = G / xp
    return np.bincount(arg, weights=w * val, minlength=x.size)


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

    With ``even`` (u and rhs even, m odd) only rows 0 ... c, c = (m - 1) / 2,
    are evaluated, on the first c + 1 rows of the workspace buffers, and
    mirrored onto the rest; they equal the full evaluation's rows bit for
    bit. The local terms, O(m), are summed over all their points either
    way. With ``with_G`` it returns the pair (residual, G), G being the
    local terms' G values it evaluated (`_local_G`), for `assemble_matrix`
    at the same u."""
    disc = cfg.discretization(u.mesh.m)
    _require_zero_boundary(u)
    yf = cfg.young
    mesh = u.mesh
    uv = u.values
    rhs_vals = rhs.values if isinstance(rhs, GridFunction) else np.asarray(rhs, float)
    k = _rows(mesh.m, even)

    du, far_mat, work = (buf[:k] for buf in _FAR.take(disc.kr.shape))
    yf.g(disc.quotients(uv, out=du), out=far_mat, work=work)
    far_mat *= disc.kr[:k]
    r = 2.0 * _halve_boundary(far_mat).sum(axis=1)

    # the local sums per slope, scattered onto nodes by differencing (slope
    # i is (u_(i+1) - u_i) / h), then per interior node
    inner = slice(1, min(k, mesh.m - 1))
    x = disc.local_args(uv)
    G = _local_G(yf, disc, x)
    sums = _local_sums(yf, disc, x, G)
    cell = sums[:mesh.m - 1] / mesh.h
    r[1:] += cell[:k - 1]
    r[:inner.stop] -= cell[:inner.stop]
    r[inner] += sums[mesh.m - 1:][:inner.stop - 1]
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
    ``G`` is the local terms' G values that ``residual(..., with_G=True)``
    returned at this u, so that a Newton step evaluates G there once;
    without it they are evaluated here. The g and g' terms are always
    evaluated here."""
    disc = cfg.discretization(u.mesh.m)
    yf = cfg.young
    mesh = u.mesh
    uv = u.values
    n = mesh.m - 2
    k = _rows(mesh.m, even)
    rows = slice(1, min(k, mesh.m - 1))    # the interior nodes assembled
    count = rows.stop - 1
    x = disc.local_args(uv)
    if G is None:
        G = _local_G(yf, disc, x)

    # far pairs: 2 g'(du) kr / ds, zero on near pairs and the diagonal,
    # written straight into the fresh matrix whose interior is returned; a
    # pass over a Toeplitz view is not one contiguous loop, so the factor 2
    # rides on the negation rather than on a pass of its own
    du, _, work = _FAR.take(disc.kr.shape)
    pair = yf.g_prime(disc.quotients(uv, out=du[:k]), work=work[:k])
    pair *= disc.kr[:k]
    pair /= disc.ds[:k]
    row = 2.0 * _halve_boundary(pair).sum(axis=1)
    jac = np.multiply(pair, -2.0, out=pair)[rows, 1:-1]

    # slope k couples nodes k and k + 1; node i sees slopes i and i - 1;
    # the centre row keeps its coupling to node c + 1, which `fold` maps
    # back onto node c - 1
    sums = _local_sums(yf, disc, x, G, newton=True)
    cp = sums[:mesh.m - 1] / mesh.h ** 2
    diag = row[rows] + cp[1:count + 1]
    diag += cp[:count]
    diag += sums[mesh.m - 1:][:count]
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

    def integrand(y):
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

    # exterior strips, closed form: the weak side's node sums with the
    # slopes zeroed, over their factor 2 w_i (both ordered pairs, and the
    # node's trapezoid weight)
    disc = cfg.discretization(m)
    x = disc.local_args(uv)
    x[:m - 1] = 0.0
    out += (_local_sums(yf, disc, x, _local_G(yf, disc, x))[m - 1:]
            / (2.0 * mesh.weights[1:-1]))
    return out

