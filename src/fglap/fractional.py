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
energy is G(du) kr ds). The Jacobian's off-diagonal entries are one
product g'(du) kj with the cached kernel kj = -2 kr / ds, and its
diagonal is minus their row sums. The kernel leaves out the half
trapezoid weight of the end nodes, so the columns of nodes 0 and m - 1
are halved (`orlicz._halve_boundary`) before the rows are summed. The
weak form is the residual paired with the test function's nodal values.

Except on the FFT path below, the far terms are m x m arrays, evaluated
in the far-pair buffers `orlicz._FAR`, per thread and of one mesh size
at a time, which the
energy in `orlicz` shares: one reused m x m buffer and two row-block
scratches of `orlicz.FAR_BLOCK_BYTES` each. Every far-pair pass runs
over the buffer's rows in blocks (`_FarPairBuffers.blocks`), so that a
block's Young values and their scratch stay in cache: `residual` writes
du into the buffer block by block and sums g(du) kr per row in a
scratch, and `assemble_matrix` evaluates g'(du) of a block in a scratch
and writes g'(du) kj over that block of du. The Jacobian is returned as
a view of the one buffer. Rows are independent, so the blocks change no
row's value. ds, kr and kj are read-only views, so no evaluation
allocates an m x m array.

The local terms are the `Discretization`'s list of local points.
`_local_G` is their one G pass, and `_local_sums` sums each argument's
first or second derivative with a ``np.bincount``.

A Newton step evaluates the residual and then the Jacobian at one
iterate, and both need the local G values and the quotients du. So
`residual` records in ``_FAR.last`` its operator config, a copy of u's
nodal values, the rows of du it filled, its G values and its unloaded
rows (the far and local sums before the load is subtracted), and
`assemble_matrix` reuses G and du when the config is equal, the values
are equal and the rows suffice; otherwise it evaluates both. A second
`residual` at the same config, values and rows, such as the first one of
a Newton solve warm-started from the previous solve's last iterate,
subtracts its load from the recorded rows. Every `take` of the buffers
clears the record, so it never outlives the quotients it describes, and
since it keys on values, a caller may edit u in place between the calls.

For g(t) = t^3 (power 4, the family of most shipped configs) at
s <= 1/2 on meshes of at least 257 nodes, every far sum is a few products
with one symmetric Toeplitz matrix, each one FFT (`orlicz.ToeplitzFar`):
there `residual` expands the cube (`_toeplitz_rows`), the energy the
fourth power, and the Newton step never forms J but takes products with
it from a `JacobianProduct`; nothing there is an m x m array, and
`_FAR` is released, not taken. That is where every Newton system of the
mesh goes to conjugate gradients, so no factorization needs the matrix
(the gate is `orlicz.OperatorConfig.toeplitz_far`). One full residual
at m = 4097 takes about 2 to 6 ms there against 80 ms in the buffers,
whose 8 m^2 bytes are 134 MB at that size. Its far rows sit within 1e-12 of
the dense ones, relative to their largest entry (`orlicz.FFT_BAND`). Its
record, ``_FAR.spectral``, does for it what ``_FAR.last`` does for the
buffers, and also hands C u and C u^2 to the `JacobianProduct` at the
same values.

Even data on an odd mesh need only the rows of the nodes up to the centre
c = (m - 1) / 2, because the operator commutes with x -> -x: `residual`
and `assemble_matrix` take ``even=True`` for that, and `fold` reduces the
Jacobian's rows to the c half unknowns.

The Newton solver in `solver` solves for its direction in the returned
buffer view, or with the `JacobianProduct`: by conjugate gradients,
which need only products with the
matrix and its diagonal, to a tolerance that shrinks with the Newton
residual, on systems of at least 128 unknowns at s <= 1/2, and by
LAPACK's LU otherwise. The Jacobian is symmetric, and so is the
folded block once its rows below the centre's are doubled (see `fold`).

The strong-form evaluator is separate and deliberately different in
texture: the first cell, where the |x - y|^(-1-s) singularity sits, on
the Gauss-Laguerre rule that every integral from zero shares; exact
piecewise-linear values at cell midpoints outside the band; and the same
closed-form exterior as the weak side, from the local kernel with the
slopes zeroed.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError, DomainError
from .orlicz import (_FAR, Discretization, GridFunction, OperatorConfig,
                     ToeplitzFar, _halve_boundary, _require_zero_boundary)
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


def diagonal_view(a: np.ndarray) -> np.ndarray:
    """The entries a[i, i], i < len(a), of a 2-D array with at least as
    many columns as rows, as a writable view."""
    return as_strided(a, (len(a),), (a.strides[0] + a.strides[1],))


def mirror(half: np.ndarray) -> np.ndarray:
    """The even extension of values at the nodes up to the centre:
    ``half`` followed by its reverse without the centre entry."""
    return np.concatenate((half, half[-2::-1]))


def _rows(m: int, even: bool) -> int:
    """Rows an evaluation computes: all m nodes, or for even data on an odd
    mesh the nodes up to the centre, 0 ... (m - 1) / 2."""
    return (m + 1) // 2 if even else m


def residual(cfg: OperatorConfig, u: GridFunction, rhs: np.ndarray, *,
             even: bool = False) -> GridFunction:
    """Nodal residual of the weak problem: the i-th entry is the pairing
    with the hat function at node i minus the trapezoid-weighted load.
    Boundary entries are pinned to zero. It leaves the record
    ``_FAR.last`` for `assemble_matrix` at the same u (on the FFT path
    ``_FAR.spectral``, for `JacobianProduct`), and for itself: called
    again under this config at u's values with the same rows, it
    subtracts the new load from the recorded unloaded rows, bit for bit
    what a fresh evaluation gives, and touches neither the far-pair
    buffers nor the record.

    With ``even`` (u and rhs even, m odd) only rows 0 ... c, c = (m - 1) / 2,
    are evaluated, on the first c + 1 rows of the far-pair buffer, and
    mirrored onto the rest; they equal the full evaluation's rows bit for
    bit. The local terms, O(m), are summed over all their points either
    way."""
    _require_zero_boundary(u)
    mesh = u.mesh
    uv = u.values
    k = _rows(mesh.m, even)
    inner = slice(1, min(k, mesh.m - 1))
    toe = cfg.toeplitz_far(mesh.m)
    last = _FAR.last if toe is None else _FAR.spectral
    if (last is not None and last[0] == cfg and last[2] == k
            and np.array_equal(last[1], uv)):
        r = last[4].copy()
    else:
        disc = cfg.discretization(mesh.m)
        yf = cfg.young
        r = np.zeros(k)
        if toe is not None:
            _FAR.release()
            r[inner], cu = _toeplitz_rows(toe, uv, inner)
        else:
            # the quotients stay in the buffer, g(du) kr lives in a scratch
            _FAR.take(disc.kr.shape)
            with np.errstate(over="ignore"):
                for block, du, vals, work in _FAR.blocks(k):
                    yf._g_pos(disc.quotients(uv, du, block.start), vals, work)
                    vals *= disc.kr[block]
                    np.add.reduce(_halve_boundary(vals), 1, out=r[block])
            r *= 2.0

        # the local sums per slope, scattered onto nodes by differencing
        # (slope i is (u_(i+1) - u_i) / h), then per interior node
        x = disc.local_args(uv)
        G = _local_G(yf, disc, x)
        sums = _local_sums(yf, disc, x, G)
        cell = sums[:mesh.m - 1] / mesh.h
        r[1:] += cell[:k - 1]
        r[:inner.stop] -= cell[:inner.stop]
        r[inner] += sums[mesh.m - 1:][:inner.stop - 1]
        record = (cfg, uv.copy(), k, G, r.copy())
        if toe is None:
            _FAR.last = record
        else:
            _FAR.spectral = record + (cu,)
    r[inner] -= mesh.weights[inner] * rhs[inner]
    if even:
        r = mirror(r)
    r[0] = r[-1] = 0.0
    return GridFunction(mesh, r)


def _toeplitz_rows(toe: ToeplitzFar, uv: np.ndarray,
                   rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """The far sums 2 sum_j c h_j (u_i - u_j)^3 of the interior nodes i in
    ``rows`` on the FFT path: 2 [u^3 C h - 3 u^2 C u + 3 u C u^2 - C u^3]
    beyond the near diagonals, and on them the differences cubed. Also
    C u and C u^2 at every interior node, which `JacobianProduct` reuses."""
    u = uv[1:-1]
    pw = np.empty((3, u.size))
    np.multiply(u, u, out=pw[1])
    np.multiply(pw[1], u, out=pw[2])
    pw[0] = u
    products = toe.products(pw)
    lo, hi = rows.start - 1, rows.stop - 1
    u, pw, cu = u[lo:hi], pw[:, lo:hi], products[:, lo:hi]
    far = pw[2] * toe.ch[lo:hi]
    far -= 3.0 * pw[1] * cu[0]
    far += 3.0 * u * cu[1]
    far -= cu[2]
    far += np.vecdot(toe.near_terms(uv, rows, 3), toe.near)
    far *= 2.0
    return far, products[:2]


def assemble_matrix(cfg: OperatorConfig, u: GridFunction, *,
                    even: bool = False) -> np.ndarray:
    """Interior-node residual Jacobian: symmetric and positive
    semidefinite. It is a view of the far-pair buffer (`orlicz._FAR`),
    the caller's to modify but valid only until the next far-pair
    evaluation on this thread; copy it to keep it.

    With ``even`` (u even, m odd) only the rows of the interior nodes up
    to the centre c = (m - 1) / 2 are assembled: the block J[1:c+1, 1:-1]
    of shape (c, m - 2), for `fold` to reduce in place to the half
    unknowns. Right after a `residual` under this config at u's values
    it reuses that residual's local G values and quotients; the g' terms
    are always evaluated here."""
    disc = cfg.discretization(u.mesh.m)
    yf = cfg.young
    mesh = u.mesh
    uv = u.values
    n = mesh.m - 2
    k = _rows(mesh.m, even)
    rows = slice(1, min(k, mesh.m - 1))    # the interior nodes assembled
    count = rows.stop - 1
    x = disc.local_args(uv)
    last = _FAR.last
    reuse = (last is not None and last[0] == cfg and last[2] >= k
             and np.array_equal(last[1], uv))
    G = last[3] if reuse else _local_G(yf, disc, x)

    # far pairs: the off-diagonal entries -2 g'(du) kr / ds, zero on near
    # pairs and the diagonal, in one product with the kernel kj, written
    # over the quotients in the buffer whose interior is returned; the
    # diagonal is minus their row sums
    pair = _FAR.take(disc.kr.shape)
    row = np.empty(k)
    with np.errstate(over="ignore"):
        for block, du, vals, work in _FAR.blocks(k):
            if not reuse:
                disc.quotients(uv, du, block.start)
            np.multiply(yf._g_prime_pos(du, vals, work), disc.kj[block],
                        out=du)
            np.add.reduce(_halve_boundary(du), 1, out=row[block])
    np.negative(row, out=row)
    jac = pair[rows, 1:-1]

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


class JacobianProduct:
    """The residual Jacobian at u on the FFT path (`orlicz.ToeplitzFar`) as
    the product and diagonal that conjugate gradients take, with no m x m
    array. Its unknowns are the interior nodes, or with ``even`` those up
    to the centre c = (m - 1) / 2, where it stands for the symmetric
    D fold(J) = E^T J E of `fold`: ``jac @ v`` is D times the rows up to
    the centre of J mirror(v), and `diagonal` is D times J's diagonal
    there, since the mirror entries vanish for even u.

    The far terms off the diagonal are -6 c h_j (u_i - u_j)^2: by FFT,
    -6 [u^2 C v - 2 u C (u v) + C (u^2 v)] beyond the near diagonals, and
    on them one banded product over the offsets of ``ToeplitzFar.near``,
    which also holds the local tridiagonal and, in its centre column,
    ``diag``: J's diagonal on those rows, which the caller may shift
    (`solver._newton` adds its load derivative and Levenberg shift there)
    before the first product. `dense` assembles the same matrix for a
    factorization."""

    def __init__(self, cfg: OperatorConfig, u: GridFunction, toe: ToeplitzFar,
                 even: bool):
        mesh = u.mesh
        uv = u.values
        m = mesh.m
        k = (m - 1) // 2 if even else m - 2
        rows = slice(1, k + 1)
        self.cfg, self.u, self.even, self.toe = cfg, u, even, toe
        inner = uv[1:-1]
        disc = cfg.discretization(m)
        x = disc.local_args(uv)
        # right after a `residual` at u's values, its record holds G and
        # C u, C u^2 at every interior node
        last = _FAR.spectral
        if last is not None and last[0] == cfg and np.array_equal(last[1], uv):
            G, cu = last[3], last[5][:, :k]
        else:
            G = _local_G(cfg.young, disc, x)
            cu = toe.products(np.stack((inner, inner * inner)))[:, :k]
        lead, sq = inner[:k], inner[:k] * inner[:k]
        # C (u v) is weighed by 12 u on the rows, C (u^2 v) by -6 before the
        # product, which `__matmul__` forms from these
        self._coef = np.stack((-6.0 * sq, 12.0 * lead))
        self._powers = np.stack((inner, -6.0 * inner * inner))
        # the near diagonals and, in their centre column, the far diagonal
        # 6 sum_j c h_j (u_i - u_j)^2 and the local terms, as
        # `assemble_matrix` adds them
        band = toe.near_terms(uv, rows, 2)
        far = 6.0 * (sq * toe.ch[:k] - 2.0 * lead * cu[0] + cu[1]
                     + np.vecdot(band, toe.near))
        band *= -6.0 * toe.near
        reach = band.shape[1] // 2
        diag = band[:, reach]
        diag[:] = far
        sums = _local_sums(cfg.young, disc, x, G, newton=True)
        cp = sums[:m - 1] / mesh.h ** 2
        diag += cp[1:k + 1]
        diag += cp[:k]
        diag += sums[m - 1:][:k]
        band[:, reach + 1] -= cp[1:k + 1]
        band[:, reach - 1] -= cp[:k]
        self.diag = diag
        self._band = band
        # the product's operands, with the near diagonals' zero margins, and
        # the FFT's arrays
        self._x = np.zeros((3, m - 2 + 2 * reach))
        self._inner = self._x[:, reach:-reach]
        self._window = toe.windows(self._x[0])[:k]
        self._fft = (np.empty((3, toe.size // 2 + 1), complex),
                     np.empty((3, toe.size)))

    def diagonal(self) -> np.ndarray:
        if not self.even:
            return self.diag
        out = 2.0 * self.diag
        out[-1] = self.diag[-1]
        return out

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        w = mirror(v) if self.even else v
        x = self._inner
        x[0] = w
        np.multiply(self._powers, w, out=x[1:])
        cv = self.toe.products(x, out=self._fft)[:, :self.diag.size]
        out = np.multiply(self._coef, cv[:2]).sum(0)
        out += cv[2]
        out += np.vecdot(self._band, self._window)
        if self.even:
            out[:-1] *= 2.0
        return out

    def dense(self) -> np.ndarray:
        """The same matrix assembled, for a factorization: `assemble_matrix`
        at u, folded with ``even``, with ``diag`` as its diagonal and, with
        ``even``, the rows below the centre doubled."""
        jac = assemble_matrix(self.cfg, self.u, even=self.even)
        a = fold(jac) if self.even else jac
        diagonal_view(a)[:] = self.diag
        if self.even:
            a[:-1] *= 2.0
        return a


def jacobian_product(cfg: OperatorConfig, u: GridFunction, *,
                     even: bool = False) -> JacobianProduct | None:
    """The Jacobian at u as a `JacobianProduct` where the far pairs go by
    FFT (`orlicz.OperatorConfig.toeplitz_far`), None elsewhere."""
    toe = cfg.toeplitz_far(u.mesh.m)
    return None if toe is None else JacobianProduct(cfg, u, toe, even)


def fold(block: np.ndarray) -> np.ndarray:
    """The even-data Newton matrix on the half unknowns: the (c, m - 2)
    block of `assemble_matrix` with column j plus its mirror column
    m - 3 - j, for j below the centre column, which is kept once. A mirrored
    half step delta then satisfies J delta = fold(block) delta_h on the rows
    up to the centre.

    fold(block) is the c rows of J E up to the centre, E the mirror map
    from the half unknowns to all interior ones. It is not symmetric, but
    D fold(block) = E^T J E is, with D = diag(2, ..., 2, 1): a row below
    the centre stands for itself and its mirror row, which J's reflection
    symmetry makes equal."""
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
    sig_r = -slopes[interior]       # u(x_i) - u(x_i + tau) = sig_r tau
    out = (_first_cell_integral(cfg, sig_l, h)
           + _first_cell_integral(cfg, sig_r, h))

    # beyond the first cells: midpoint cells tile the rest of (-1, 1)
    # exactly; midpoint values of a hat-interpolant are averages. Cell c
    # lies at tau = |i - c - 1/2| h from node i, and the two cells beside
    # the node, at h / 2, are the first cells
    mids = 0.5 * (uv[:-1] + uv[1:])
    tau = np.abs(interior[:, None] - np.arange(m - 1) - 0.5) * h
    vals = (yf.g((uv[interior][:, None] - mids) / tau ** s)
            * tau ** (-1.0 - s) * h)
    out += np.sum(vals, axis=1, where=tau > h)

    # exterior strips, closed form: the weak side's node sums with the
    # slopes zeroed, over their factor 2 w_i (both ordered pairs, and the
    # node's trapezoid weight)
    disc = cfg.discretization(m)
    x = disc.local_args(uv)
    x[:m - 1] = 0.0
    out += (_local_sums(yf, disc, x, _local_G(yf, disc, x))[m - 1:]
            / (2.0 * mesh.weights[1:-1]))
    return out

