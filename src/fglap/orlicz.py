"""Meshes, grid functions, the operator config, and discrete Orlicz
energies on (-1, 1).

The nonlocal modular splits the ordered-pair double integral into far
pairs, node pairs more than one index apart with trapezoid weights in both
variables, and local terms, the band |x - y| < h and the exterior strips
(u = 0 outside the interval), each a weighted Lambda(|x| r) through the
primitive Lambda(Y) = int_0^Y G(tau)/tau dtau. `Discretization` holds the
geometry of both kinds of term for one mesh size. The energies here take
an `OperatorConfig` and read that geometry, and evaluate their far terms
in the far-pair buffers `_FAR`, exactly as the residual, Jacobian and
weak form in `fractional` do, so that the weak form is the exact gradient
of the modular energy. The Luxemburg gauges invert the modular along u's
ray with the growth-window inverter of `quadrature`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError, DomainError
from .quadrature import gauss_legendre, invert_monotone
from .young import YoungFunction

# x-quadrature order on the clipped band cell-sides; ample for the linear
# clipping near the endpoints (unclipped sides need one point)
_BAND_XQ = 8
# sup-norm gap to its mirror image below which a grid function counts as even
EVEN_TOL = 1e-9


class _FarPairBuffers(threading.local):
    """The far-pair buffers that `fractional` describes: three reused
    float64 arrays per thread, of one shape at a time."""

    shape = None
    buffers = ()

    def take(self, shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
        if shape != self.shape:
            self.buffers = ()    # drop the old size before allocating
            self.buffers = tuple(np.empty(shape) for _ in range(3))
            self.shape = shape
        return self.buffers


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
      so each far term is one expression in du = (u_i - u_j) / ds. Both
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
      power 1 - s, and loc_w an x-quadrature weight over 1 - s. A cell-side
      whose radius is h at every x-node is one point carrying the rule's
      whole weight (a cell with both sides unclipped, twice that); only the
      left side of the first cell and the right side of the last are
      clipped, and they keep all _BAND_XQ Gauss-Legendre nodes. The rest
      are the strips, in closed form after the substitution w = z^(-s),
      two per interior node: x the nodal value, r = d^(-s) for its
      distance d to each endpoint, and loc_w = 2 w_i / s, w_i the node's
      trapezoid weight and the factor 2 for the ordered pairs (x, y) and
      (y, x) that both cross the boundary.
    """

    h: float
    ds: np.ndarray
    kr: np.ndarray
    loc_arg: np.ndarray
    loc_r: np.ndarray
    loc_w: np.ndarray
    n_band: int

    def local_args(self, uv: np.ndarray) -> np.ndarray:
        """x = [the cell slopes, the interior nodal values] of nodal
        values ``uv``: the arguments that ``loc_arg`` indexes."""
        return np.concatenate((np.diff(uv) / self.h, uv[1:-1]))

    def quotients(self, uv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """du = (u_i - u_j) / ds: far-pair difference quotients, plain
        differences on near pairs (where kr vanishes); into ``out`` if
        given, for the first rows i that ``out`` has room for."""
        du = np.empty(self.ds.shape) if out is None else out
        k = du.shape[0]
        np.copyto(du, uv[:k, None])    # numpy buffers no operand of a copy
        du -= uv
        du /= self.ds[:k]
        return du


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


@lru_cache(maxsize=32)
def _discretization(m: int, s: float) -> Discretization:
    mesh = Mesh(m)
    # the kernels at index offset d; offsets 0 and 1 are near pairs
    dist = np.arange(m) * mesh.h
    dist[:2] = 1.0
    ds = np.power(dist, s)
    kr = (mesh.h * mesh.h) / np.power(dist, 1.0 + s)
    kr[:2] = 0.0

    gx, gw = gauss_legendre(_BAND_XQ)
    xq = mesh.nodes[:-1, None] + (gx[None, :] + 1.0) * (mesh.h / 2.0)
    xw = gw * (mesh.h / 2.0)
    # radius[side, cell, node], side 0 toward -1 and side 1 toward +1
    radius = np.minimum(mesh.h, np.stack((1.0 + xq, 1.0 - xq)))
    clipped = np.any(radius < mesh.h, axis=2)
    full = 2 - clipped.sum(axis=0)    # unclipped sides per cell
    keep = full > 0
    side, cut = np.nonzero(clipped)
    band_arg = np.concatenate((np.flatnonzero(keep), np.repeat(cut, _BAND_XQ)))
    band_rho = np.concatenate((np.full(keep.sum(), mesh.h),
                               radius[side, cut].ravel())) ** (1.0 - s)
    band_w = np.concatenate((full[keep] * xw.sum(), np.tile(xw, cut.size)))

    # strips: a point toward each endpoint per interior node, whose local
    # argument follows the m - 1 slopes
    x = mesh.nodes[1:-1]
    strip_a = np.stack(((1.0 + x) ** (-s), (1.0 - x) ** (-s)), axis=1).ravel()
    loc_arg = np.concatenate((band_arg, np.repeat(np.arange(m - 1, 2 * m - 3), 2)))
    loc_r = np.concatenate((band_rho, strip_a))
    loc_w = np.concatenate((band_w / (1.0 - s),
                            np.repeat(2.0 * mesh.weights[1:-1] / s, 2)))
    return Discretization(mesh.h, _toeplitz(ds), _toeplitz(kr),
                          *map(_frozen, (loc_arg, loc_r, loc_w)), band_arg.size)


def _require_zero_boundary(u: GridFunction) -> None:
    if not u.vanishes_on_boundary():
        raise DomainError(
            "nonlocal energies need boundary values exactly zero; "
            "the exterior strip diverges otherwise")


# ---------------------------------------------------------------------------
# local modular and norm


def modular_LG(u: GridFunction, yf: YoungFunction) -> float:
    """Trapezoid integral of G(|u|) over the interval."""
    return float(np.sum(u.mesh.weights * yf.G(u.values)))


def luxemburg_norm_LG(u: GridFunction, yf: YoungFunction) -> float:
    """Scaling lam with modular_LG(u/lam) = 1."""
    return _luxemburg(lambda v: modular_LG(v, yf), u, yf.window)


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
    """Far, band and strip pieces of the nonlocal modular, and their total."""
    disc = cfg.discretization(u.mesh.m)
    _require_zero_boundary(u)
    yf = cfg.young
    v = u.values

    du, far_mat, work = _FAR.take(disc.kr.shape)
    yf.G(disc.quotients(v, out=du), out=far_mat, work=work)
    far_mat *= disc.kr
    far_mat *= disc.ds
    far = float(_halve_boundary(far_mat, rows=True).sum())

    local = disc.loc_w * yf.lam(np.abs(disc.local_args(v))[disc.loc_arg]
                                * disc.loc_r)
    band = float(local[:disc.n_band].sum())
    strip = float(local[disc.n_band:].sum())
    return {"far": far, "band": band, "strip": strip,
            "total": far + band + strip}


def luxemburg_seminorm_W(cfg: OperatorConfig, u: GridFunction) -> float:
    """Gauge seminorm of the nonlocal modular, found as for the local norm."""
    return _luxemburg(lambda v: modular_W(cfg, v), u, cfg.young.window)
