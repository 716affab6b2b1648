"""Meshes, grid functions, the operator config, and discrete Orlicz
energies on (-1, 1).

The nonlocal modular splits the ordered-pair double integral into far
pairs, node pairs more than one index apart with trapezoid weights in both
variables, and local terms, the band |x - y| < h and the exterior strips
(u = 0 outside the interval), each a weighted Lambda(|x| r) through the
primitive Lambda(Y) = int_0^Y G(tau)/tau dtau. `Discretization` holds the
geometry of both kinds of term for one mesh size. The energies here take
an `OperatorConfig` and read that geometry, and evaluate their far terms
in the far-pair buffers `_FAR`, a block of rows at a time, exactly as the
residual, Jacobian and weak form in `fractional` do, so that the weak
form is the exact gradient of the modular energy. The Luxemburg gauge
inverts the modular along u's ray with the growth-window inverter of
`quadrature`.

For power 4, g(t) = t^3, at s <= CG_MAX_S on meshes of at least 257
nodes the far terms take no buffer: `ToeplitzFar` expands the powers of
u_i - u_j into products with one Toeplitz matrix, each one FFT, and sums
the nearest diagonals directly, so the energy, the residual and the
Newton products cost O(m log m) time and O(m) memory where the buffers
take 8 m^2 bytes (2.1 GB at m = 16385). There every Newton system goes
to conjugate gradients, which need only products, so no matrix is ever
formed (see `OperatorConfig.toeplitz_far`). Its far energy is summed in
long double, since the expansion cancels up to 2e4-fold.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError, DomainError
from .quadrature import LEGENDRE_8_NODES, LEGENDRE_8_WEIGHTS, invert_monotone
from .young import PowerYoung, YoungFunction

# sup-norm gap to its mirror image below which a grid function counts as even
EVEN_TOL = 1e-9

# Bytes of each row-block scratch of the far-pair buffers: a far-pair pass
# takes the rows of the m x m buffer this many bytes at a time, so that a
# block's Young values and their scratch stay in cache. A residual plus a
# Jacobian took the same time to within 2 % for 256, 384 and 512 kB at
# m = 513, 1025 and 2049 (2-vCPU Xeon, 2 MB of L2 per core). 384 kB keeps
# every m <= 257, where an m x m array fits in L2 and blocking gains
# nothing, in at most two blocks, since each block adds a few microseconds
# of calls.
FAR_BLOCK_BYTES = 384 * 1024

# `solver` solves a Newton system of at least CG_MIN_UNKNOWNS unknowns at an
# order s of at most CG_MAX_S by conjugate gradients, which need only
# products with the matrix. The power-4 far pairs go by FFT (`ToeplitzFar`)
# exactly where every Newton system of the mesh does: s <= CG_MAX_S and
# (m - 1) // 2 >= CG_MIN_UNKNOWNS, that is m >= 257, so that no Newton
# matrix is formed there.
CG_MIN_UNKNOWNS = 128
CG_MAX_S = 0.5

# Offsets d = 2 ... FFT_BAND of the FFT path's far pairs are summed
# directly, in the difference form c_d (u_i - u_(i+d))^k, and only the
# kernel beyond them goes by FFT: the FFT expands the power, whose terms
# cancel most where c_d is largest. The residual's largest gap to the
# dense sum, relative to its largest entry, over m = 257, 1025, 4097 and
# s = 0.1, 0.3, 0.5 (`scripts/fft_band_sweep.py`), is at m = 4097,
# s = 1/2: 1.1e-10 with no band, 3.6e-12 at 8, 1.1e-12 at 16, 7.2e-13 at
# 20 and 3.5e-13 at 24. The band's work grows with its width.
FFT_BAND = 20


class _FarPairBuffers(threading.local):
    """The far-pair buffers that `fractional` describes, per thread and of
    one mesh size at a time: ``buffer``, one reused m x m float64 array,
    two row-block scratches of FAR_BLOCK_BYTES each, and ``last``, the
    record of the residual whose quotients the buffer holds (see
    `fractional`). Every `take` clears the record, since the buffer is
    then overwritten. ``spectral`` is the record of the last residual on
    the FFT path (`ToeplitzFar`), which holds no buffer: an evaluation
    there `release`s them."""

    shape = None
    buffer = None
    scratch = ()
    views = None
    last = None
    spectral = None

    def take(self, shape: tuple[int, int]) -> np.ndarray:
        if shape != self.shape:
            self.buffer = self.views = None    # drop the old size first
            self.scratch = ()
            rows = max(1, FAR_BLOCK_BYTES // (8 * shape[1]))
            self.buffer = np.empty(shape)
            self.scratch = tuple(np.empty((min(rows, shape[0]), shape[1]))
                                 for _ in range(2))
            self.views = {}
            self.shape = shape
        self.last = None
        return self.buffer

    def release(self) -> None:
        """Drop the buffers and the record: a mesh whose far pairs go by
        FFT holds none."""
        self.shape = self.buffer = self.views = self.last = None
        self.scratch = ()

    def blocks(self, k: int) -> list:
        """The first k rows of the buffer in as few blocks of equal height
        as the scratches hold: per block the slice of its rows, those rows
        of the buffer, and the two scratches cut to its height. Made once
        per k and buffer size."""
        views = self.views.get(k)
        if views is None:
            step = -(-k // -(-k // len(self.scratch[0])))
            views = self.views[k] = [
                (rows, self.buffer[rows],
                 *(s[:rows.stop - rows.start] for s in self.scratch))
                for rows in (slice(lo, min(lo + step, k))
                             for lo in range(0, k, step))]
        return views


_FAR = _FarPairBuffers()


class Mesh:
    """Uniform nodes on [-1, 1] including the endpoints.

    Node weights are trapezoidal. Two meshes are interchangeable whenever
    their node counts agree, so `OperatorConfig.discretization` keys on
    ``m`` rather than on a mesh object.
    """

    def __init__(self, m: int):
        if m < 9:
            raise ConfigurationError(f"mesh needs at least 9 nodes, got {m}")
        self.m = int(m)
        self.h = 2.0 / (self.m - 1)
        self.nodes = np.linspace(-1.0, 1.0, self.m)
        self.weights = np.full(self.m, self.h)
        self.weights[0] = self.weights[-1] = self.h / 2.0

    def middle_half(self) -> np.ndarray:
        return np.abs(self.nodes) <= 0.5 + 1e-12

    def coarse_index_in(self, fine: "Mesh") -> np.ndarray:
        """Indices of this mesh's nodes inside a nested finer mesh, whose
        m - 1 is a multiple, at least twice, of this mesh's."""
        step, rem = divmod(fine.m - 1, self.m - 1)
        if rem != 0 or step < 2:
            raise ConfigurationError(
                f"a mesh with {fine.m} nodes does not refine one with {self.m}")
        return np.arange(self.m) * step

    def __repr__(self):
        return f"Mesh(m={self.m})"


@dataclass
class GridFunction:
    """Nodal values on a mesh, read as piecewise linear and zero outside."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.m,):
            raise DomainError(
                f"expected {self.mesh.m} nodal values, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid function values must be finite")

    @classmethod
    def zeros(cls, mesh: Mesh) -> "GridFunction":
        return cls(mesh, np.zeros(mesh.m))

    def vanishes_on_boundary(self) -> bool:
        return self.values[0] == 0.0 and self.values[-1] == 0.0

    def is_even(self) -> bool:
        return bool(np.max(np.abs(self.values - self.values[::-1]))
                    <= EVEN_TOL)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


# ---------------------------------------------------------------------------
# the operator config and its cached discretization


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """The symmetric m x m matrix T[i, j] = c[|i - j|] as a read-only view
    of the 2m - 1 values c[m-1], ..., c[1], c[0], ..., c[m-1]: row i starts
    i entries before c[0]."""
    m = c.size
    full = _frozen(np.concatenate((c[:0:-1], c)))
    return as_strided(full[m - 1:], (m, m), (-full.itemsize, full.itemsize),
                      writeable=False)


def _halve_boundary(far: np.ndarray, rows: bool = False) -> np.ndarray:
    """Scale the columns of the end nodes 0 and m - 1, and with ``rows``
    their rows too, by the half trapezoid weight that the kernel ``kr``
    leaves out. Scaling by 0.5 is exact."""
    far[:, ::far.shape[1] - 1] *= 0.5
    if rows:
        far[::far.shape[0] - 1] *= 0.5
    return far


@dataclass(frozen=True, eq=False)
class Discretization:
    """Geometry shared by the energy, residual, Jacobian, weak form and the
    strong form's exterior, for one mesh size and order s. Built and cached
    by `OperatorConfig.discretization`; every array is read-only because
    all callers share it.

    * far-pair kernel: ``ds = dist^s`` and ``kr = h^2 / dist^(1+s)`` on
      node pairs more than one index apart, ds = 1 and kr = 0 on near pairs,
      so each far term is one expression in du = (u_i - u_j) / ds, and
      ``kj = -2 kr / ds``, the Jacobian's kernel, which folds its factor,
      sign and quotient into one product with g'(du). All three
      depend on d = |i - j| alone and are read-only Toeplitz views of one
      vector of 2m - 1 values each (`_toeplitz`). kr carries the interior
      weights w_i w_j = h^2; the end nodes 0 and m - 1 weigh h/2, which
      `_halve_boundary` applies to the far terms. On the 2^k + 1 meshes
      d h is exact, so the kernels equal the dense
      w_i w_j / |x_i - x_j|^(1+s) bit for bit;
    * local points: the band and the exterior strips as one flat list.
      Point j carries an index ``loc_arg[j]`` into the local arguments
      x = [the m - 1 cell slopes, the m - 2 interior nodal values]
      (`local_args`), a factor ``loc_r[j]`` and a weight ``loc_w[j]``; its
      energy is loc_w Lambda(|x| loc_r). The first ``n_band`` points are
      the band, integrated exactly for piecewise linear functions: x a cell
      slope, r a window radius min(h, distance to the endpoint) to the
      power 1 - s, and loc_w an x-quadrature weight over 1 - s. The radius
      is h on every cell-side but the outer sides of the two end cells,
      where it is the distance to the endpoint. Each cell is one point with
      the x-rule's whole weight per unclipped side, and each clipped side
      keeps the 8 Gauss-Legendre nodes, ample for the linear radius.
      The rest are the strips, in closed form after the substitution
      w = z^(-s), two per interior node: x the nodal value, r = d^(-s) for its
      distance d to each endpoint, and loc_w = 2 w_i / s, w_i the node's
      trapezoid weight and the factor 2 for the ordered pairs (x, y) and
      (y, x) that both cross the boundary.
    """

    h: float
    ds: np.ndarray
    kr: np.ndarray
    kj: np.ndarray
    loc_arg: np.ndarray
    loc_r: np.ndarray
    loc_w: np.ndarray
    n_band: int

    def local_args(self, uv: np.ndarray) -> np.ndarray:
        """x = [the cell slopes, the interior nodal values] of nodal
        values ``uv``: the arguments that ``loc_arg`` indexes."""
        return np.concatenate((np.diff(uv) / self.h, uv[1:-1]))

    def quotients(self, uv: np.ndarray, out: np.ndarray,
                  lo: int = 0) -> np.ndarray:
        """du = (u_i - u_j) / ds: far-pair difference quotients, plain
        differences on near pairs (where kr vanishes), written into ``out``
        for the rows i = lo, lo + 1, ... that it has room for."""
        rows = slice(lo, lo + out.shape[0])
        np.copyto(out, uv[rows, None])    # numpy buffers no operand of a copy
        out -= uv
        out /= self.ds[rows]
        return out


@dataclass(frozen=True)
class OperatorConfig:
    """The operator: growth family and order s, validated here once. The
    discretization itself has no settings: a one-cell band and the exact
    exterior."""

    young: YoungFunction
    s: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ConfigurationError(f"s must lie in (0, 1), got {self.s}")

    def discretization(self, m: int) -> Discretization:
        """The shared geometry of the uniform m-node mesh. The cache keys on
        (m, s) and keeps no Young family alive."""
        return _discretization(m, self.s)

    def toeplitz_far(self, m: int) -> "ToeplitzFar | None":
        """The far pairs of the m-node mesh by FFT where that path serves:
        g(t) = t^3 (power 4), s <= CG_MAX_S and (m - 1) // 2 >=
        CG_MIN_UNKNOWNS. None elsewhere, where they run in the buffers
        `_FAR`. Cached on (m, s) like the discretization."""
        yf = self.young
        if (isinstance(yf, PowerYoung) and yf.p == 4.0 and self.s <= CG_MAX_S
                and (m - 1) // 2 >= CG_MIN_UNKNOWNS):
            return _toeplitz_far(m, self.s)
        return None


@lru_cache(maxsize=32)
def _discretization(m: int, s: float) -> Discretization:
    mesh = Mesh(m)
    # the kernels at index offset d; offsets 0 and 1 are near pairs
    dist = np.arange(m) * mesh.h
    dist[:2] = 1.0
    ds = np.power(dist, s)
    kr = (mesh.h * mesh.h) / np.power(dist, 1.0 + s)
    kr[:2] = 0.0

    # band: a point per cell for its unclipped sides, then the x-nodes of
    # the clipped sides, the first cell's left and the last cell's right
    gx, gw = np.array(LEGENDRE_8_NODES), np.array(LEGENDRE_8_WEIGHTS)
    xq = (gx + 1.0) * (mesh.h / 2.0)
    xw = gw * (mesh.h / 2.0)
    sides = np.full(m - 1, 2.0)
    sides[[0, -1]] = 1.0
    band_arg = np.concatenate((np.arange(m - 1), np.repeat([0, m - 2], gx.size)))
    band_rho = np.concatenate((np.full(m - 1, mesh.h), 1.0 + (mesh.nodes[0] + xq),
                               1.0 - (mesh.nodes[-2] + xq))) ** (1.0 - s)
    band_w = np.concatenate((sides * xw.sum(), xw, xw))

    # strips: a point toward each endpoint per interior node, whose local
    # argument follows the m - 1 slopes
    x = mesh.nodes[1:-1]
    strip_a = np.stack(((1.0 + x) ** (-s), (1.0 - x) ** (-s)), axis=1).ravel()
    loc_arg = np.concatenate((band_arg, np.repeat(np.arange(m - 1, 2 * m - 3), 2)))
    loc_r = np.concatenate((band_rho, strip_a))
    loc_w = np.concatenate((band_w / (1.0 - s),
                            np.repeat(2.0 * mesh.weights[1:-1] / s, 2)))
    return Discretization(mesh.h, _toeplitz(ds), _toeplitz(kr),
                          _toeplitz(-2.0 * kr / ds),
                          *map(_frozen, (loc_arg, loc_r, loc_w)), band_arg.size)


@dataclass(frozen=True, eq=False)
class ToeplitzFar:
    """The far pairs of g(t) = t^3 on one mesh as products with one
    symmetric Toeplitz matrix. With c_d = kr_d / ds_d^3 (0 for d <= 1)
    every far term is c_|i-j| h_j (u_i - u_j)^k, h_j the end-node halving,
    so expanding the power leaves sums of c against powers of u. Only the
    kernel beyond the near diagonals, C with ``kernel`` c_d for
    d > FFT_BAND, goes that way: `products` applies C to interior values
    by one batched real FFT of length ``size``, a power of two of at least
    2 (m - 2) - 1, on the circulant embedding (Chan and Ng, SIAM Rev. 38,
    1996), whose spectrum is real: ``spectrum`` holds each of its values
    twice, for the real and imaginary parts of a complex entry, which
    multiplies the complex spectrum of x in one real pass. ``ch`` is C h at the
    interior nodes. The near diagonals 2 <= |d| <= FFT_BAND are summed
    directly (`near_terms`): ``near`` holds c_|d| over the offsets
    d = -FFT_BAND ... FFT_BAND, zero for |d| <= 1, and ``halving`` the
    weights h_j padded with FFT_BAND zeros at each end. Nothing here is an
    m x m array, and `numpy.fft` is imported only when one is built.

    The energy's expansion cancels far more than the residual's rows: its
    terms are up to 2e4 times its value at m = 4097, s = 1/2. So
    `energy` runs in long double, on a spectrum and a C h of its own that
    its first call builds."""

    size: int
    kernel: np.ndarray
    spectrum: np.ndarray
    ch: np.ndarray
    near: np.ndarray
    halving: np.ndarray

    def products(self, x: np.ndarray, spectrum: np.ndarray | None = None,
                 out: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """C applied to each row of x, the values at the m - 2 interior
        nodes, in the precision of x and ``spectrum`` (by default
        ``spectrum``). ``out``, arrays for the complex spectrum of x and
        for the circular products, spares allocating them."""
        spec, circ = (None, None) if out is None else out
        spec = np.fft.rfft(x, self.size, out=spec)
        view = spec.view(x.dtype)
        np.multiply(view, self.spectrum if spectrum is None else spectrum, out=view)
        return np.fft.irfft(spec, self.size, out=circ)[..., :x.shape[-1]]

    def windows(self, pad: np.ndarray) -> np.ndarray:
        """The rows pad[i : i + 2 FFT_BAND + 1] of a vector padded with
        FFT_BAND entries at each end, as one strided view that shares
        pad's memory: row i holds the values at the offsets of ``near``
        from entry i of the unpadded vector. It is made in about a
        microsecond, a tenth of what `sliding_window_view` takes."""
        step = pad.strides[0]
        return np.ndarray((pad.size - self.near.size + 1, self.near.size),
                          pad.dtype, pad, strides=(step, step))

    def near_terms(self, uv: np.ndarray, rows: slice, power: int) -> np.ndarray:
        """h_(i+d) (u_i - u_(i+d))^power, power 2, 3 or 4, for the nodes i
        of ``rows`` and the offsets d of ``near``, zero off the mesh, from
        nodal values ``uv``: one row per node and one column per offset,
        for ``near`` to weigh (`np.vecdot` sums a row against it)."""
        reach = self.near.size // 2
        pad = np.zeros(uv.size + 2 * reach)
        pad[reach:-reach] = uv
        diff = uv[rows, None] - self.windows(pad)[rows]
        out = diff * diff
        if power == 3:
            out *= diff
        elif power == 4:
            out *= out
        out *= self.windows(self.halving)[rows]
        return out

    @cached_property
    def _wide(self) -> tuple[np.ndarray, np.ndarray]:
        return _embedding(self.kernel.astype(np.longdouble), self.size)

    def energy(self, uv: np.ndarray) -> float:
        """The far part of the modular, the sum over ordered pairs of
        G(du) kr ds h_i h_j = c h_i h_j (u_i - u_j)^4 / 4, for nodal values
        uv vanishing at both ends: beyond the near diagonals, in long
        double, 1/2 sum u^4 C h - 2 sum u^3 C u + 3/2 sum u^2 C u^2 over
        the interior; on them, the differences to the fourth."""
        spectrum, ch = self._wide
        u = uv[1:-1].astype(np.longdouble)
        sq = u * u
        cu = self.products(np.stack((u, sq)), spectrum)
        far = 0.5 * (sq @ (sq * ch)) - 2.0 * ((sq * u) @ cu[0]) + 1.5 * (sq @ cu[1])
        rows = np.vecdot(self.near_terms(uv, slice(None), 4), self.near)
        rows[::rows.size - 1] *= 0.5
        return float(far) + 0.25 * float(rows.sum())


def _embedding(kernel: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The real spectrum of the circulant embedding of length ``size`` of
    the Toeplitz matrix c_|i-j| on the m - 2 interior nodes, c = ``kernel``
    over d = 0 ... m - 1, each value twice (see `ToeplitzFar`), and C h at
    those nodes, in the kernel's precision."""
    m = kernel.size
    n = m - 2
    # first column c_0 ... c_(n-1), zeros, c_(n-1) ... c_1
    col = np.zeros(size, kernel.dtype)
    col[:n] = kernel[:n]
    col[size - n + 1:] = kernel[n - 1:0:-1]
    # C h at interior node i: the offsets up to i and up to m - 1 - i, with
    # the end nodes at half weight. The sum over d <= j is the total less
    # the tail beyond j, summed from the far end, where c_d is smallest: a
    # plain cumulative sum loses up to 1e-14 of C h, which the residual's
    # expansion then magnifies
    tail = np.append(np.cumsum(kernel[::-1])[::-1], 0.0)
    head = tail[0] - tail[1:]
    i = np.arange(1, m - 1)
    ch = head[i] + head[m - 1 - i] - 0.5 * (kernel[i] + kernel[m - 1 - i])
    return _frozen(np.repeat(np.fft.rfft(col).real, 2)), _frozen(ch)


@lru_cache(maxsize=4)
def _toeplitz_far(m: int, s: float) -> ToeplitzFar:
    disc = _discretization(m, s)
    c = disc.kr[0] / disc.ds[0] ** 3    # c_d for d = 0 ... m - 1
    far = c.copy()
    far[:FFT_BAND + 1] = 0.0
    size = 1 << (2 * m - 6).bit_length()    # at least 2 (m - 2) - 1
    near = c[np.abs(np.arange(-FFT_BAND, FFT_BAND + 1))]
    halving = np.zeros(m + 2 * FFT_BAND)
    halving[FFT_BAND:-FFT_BAND] = 1.0
    halving[[FFT_BAND, -FFT_BAND - 1]] = 0.5
    return ToeplitzFar(size, _frozen(far), *_embedding(far, size),
                       _frozen(near), _frozen(halving))


def _require_zero_boundary(u: GridFunction) -> None:
    if not u.vanishes_on_boundary():
        raise DomainError(
            "nonlocal energies need boundary values exactly zero; "
            "the exterior strip diverges otherwise")


# ---------------------------------------------------------------------------
# Luxemburg gauge


def _luxemburg(modular, u: GridFunction, window: tuple[float, float]) -> float:
    """Gauge lam with modular(u/lam) = 1. Along the ray of the unit-sup
    direction u_hat = u/||u||_inf, mu -> modular(mu u_hat) grows with
    elasticity inside the family's growth window, so the growth-window
    inverter (secant slopes) returns mu, and lam = ||u||_inf / mu scales
    exactly with u. Its last step is at most 1e-12 in log mu and the
    secant error after it far smaller, so modular(u/lam) = 1 to rounding."""
    sup = u.sup_norm()
    if sup == 0.0:
        return 0.0
    unit = u.values / sup

    def rho(mu: np.ndarray) -> np.ndarray:
        return np.array([modular(GridFunction(u.mesh, mk * unit)) for mk in mu])

    return sup / float(invert_monotone(rho, 1.0, window, rtol=1e-12))


# ---------------------------------------------------------------------------
# nonlocal modular


def modular_W(cfg: OperatorConfig, u: GridFunction) -> float:
    return modular_W_parts(cfg, u)["total"]


def modular_W_parts(cfg: OperatorConfig, u: GridFunction) -> dict:
    """Far, band and strip pieces of the nonlocal modular, and their total.
    G of the far-pair quotients is evaluated in place in the far-pair
    buffer, a block of rows at a time, and the far piece is one sum over
    the whole buffer, so its value does not depend on the blocks."""
    disc = cfg.discretization(u.mesh.m)
    _require_zero_boundary(u)
    yf = cfg.young
    v = u.values

    toe = cfg.toeplitz_far(u.mesh.m)
    if toe is not None:
        _FAR.release()
        far = toe.energy(v)
    else:
        far_mat = _FAR.take(disc.kr.shape)
        with np.errstate(over="ignore"):
            for block, vals, work, _ in _FAR.blocks(len(far_mat)):
                disc.quotients(v, vals, block.start)
                yf._G_pos(np.abs(vals, out=vals), vals, work)
                vals *= disc.kr[block]
                vals *= disc.ds[block]
        far = float(_halve_boundary(far_mat, rows=True).sum())

    local = disc.loc_w * yf.lam(np.abs(disc.local_args(v))[disc.loc_arg]
                                * disc.loc_r)
    band = float(local[:disc.n_band].sum())
    strip = float(local[disc.n_band:].sum())
    return {"far": far, "band": band, "strip": strip,
            "total": far + band + strip}


def luxemburg_seminorm_W(cfg: OperatorConfig, u: GridFunction) -> float:
    """Gauge seminorm of the nonlocal modular, by `_luxemburg`."""
    return _luxemburg(lambda v: modular_W(cfg, v), u, cfg.young.window)
