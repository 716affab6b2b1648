"""Meshes, grid functions, the operator config, and discrete Orlicz
energies on (-1, 1).

The nonlocal modular splits the ordered-pair double integral into three
regions that the operator module reuses with identical quadrature, so the
weak form is the exact gradient of the modular energy:

* far pairs: node pairs more than one index apart, trapezoid weights in
  both variables;
* band: |x - y| below one cell width h, integrated exactly for piecewise
  linear functions through the one-argument primitive
  Lambda(Y) = int_0^Y G(tau)/tau dtau, with the window clipped near the
  endpoints. Only the two end cells see a clipped window, so the band is
  stored compactly: an 8-point x-rule on the two clipped cell-sides and one
  point per cell, carrying the whole rule's weight, for its unclipped
  sides, whose radius is h at every x-node;
* strips: the exterior contribution (u = 0 outside the interval), in
  closed form through Lambda after the substitution w = z^(-s).

Every energy here, like the residual, Jacobian and weak form in
`fractional`, takes an `OperatorConfig` and reads all three regions'
geometry from the one cached `Discretization` that
`OperatorConfig.discretization` returns per mesh size, so none of them
rebuilds pair geometry or takes distance powers per call. The Luxemburg
gauges invert the modular along u's ray with the growth-window inverter
of `quadrature`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError
from .quadrature import gauss_legendre, invert_monotone
from .young import YoungFunction

# x-quadrature order on the clipped band cell-sides; ample for the linear
# clipping near the endpoints (unclipped sides need one point)
_BAND_XQ = 8


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
        """Indices of this mesh's nodes inside a nested finer mesh."""
        step, rem = divmod(fine.m - 1, self.m - 1)
        if rem != 0:
            raise ConfigurationError(
                f"meshes with {self.m} and {fine.m} nodes do not nest")
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

    def copy(self) -> "GridFunction":
        return GridFunction(self.mesh, self.values.copy())

    def vanishes_on_boundary(self, tol: float = 0.0) -> bool:
        return abs(self.values[0]) <= tol and abs(self.values[-1]) <= tol

    def is_even(self, tol: float = 1e-9) -> bool:
        return bool(np.max(np.abs(self.values - self.values[::-1])) <= tol)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


# ---------------------------------------------------------------------------
# the operator config and its cached discretization


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Discretization:
    """Geometry shared by the energy, residual, Jacobian, weak form and the
    strong form's exterior, for one mesh size and order s. Built and cached
    by `OperatorConfig.discretization`; every array is read-only because
    all callers share it.

    * far-pair kernel: ``ds = dist^s`` and ``kr = w_i w_j / dist^(1+s)`` on
      node pairs more than one index apart, ds = 1 and kr = 0 on near pairs,
      so each far term is one expression in du = (u_i - u_j) / ds;
    * band: a flat list of points, each a cell index ``band_cell``, a
      window radius min(h, distance to the endpoint) to the power 1 - s,
      ``band_rho``, and an x-quadrature weight ``band_w``. A cell-side whose
      radius is h at every x-node is one point carrying the rule's whole
      weight (a cell with both sides unclipped, twice that); only the left
      side of the first cell and the right side of the last are clipped,
      and they keep all 8 Gauss-Legendre nodes. That is m + 15 points in
      place of 16 (m - 1); per-cell sums are a ``np.bincount`` over
      ``band_cell``;
    * strips: d^(-s) per side at the interior nodes, ``a_l`` and ``a_r``.
    """

    s: float
    ds: np.ndarray
    kr: np.ndarray
    band_cell: np.ndarray
    band_rho: np.ndarray
    band_w: np.ndarray
    a_l: np.ndarray
    a_r: np.ndarray

    def quotients(self, uv: np.ndarray) -> np.ndarray:
        """du = (u_i - u_j) / ds: far-pair difference quotients, plain
        differences on near pairs (where kr vanishes)."""
        du = np.subtract.outer(uv, uv)
        du /= self.ds
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
    idx = np.arange(m)
    near = np.abs(np.subtract.outer(idx, idx)) <= 1
    dist = np.abs(np.subtract.outer(mesh.nodes, mesh.nodes))
    dist[near] = 1.0
    ds = np.power(dist, s)
    kr = np.outer(mesh.weights, mesh.weights)
    kr /= np.power(dist, 1.0 + s, out=dist)
    kr[near] = 0.0

    gx, gw = gauss_legendre(_BAND_XQ)
    xq = mesh.nodes[:-1, None] + (gx[None, :] + 1.0) * (mesh.h / 2.0)
    xw = gw * (mesh.h / 2.0)
    # radius[side, cell, node], side 0 toward -1 and side 1 toward +1
    radius = np.minimum(mesh.h, np.stack((1.0 + xq, 1.0 - xq)))
    clipped = np.any(radius < mesh.h, axis=2)
    full = 2 - clipped.sum(axis=0)    # unclipped sides per cell
    keep = full > 0
    side, cut = np.nonzero(clipped)
    band_cell = np.concatenate((np.flatnonzero(keep), np.repeat(cut, _BAND_XQ)))
    band_rho = np.concatenate((np.full(keep.sum(), mesh.h),
                               radius[side, cut].ravel())) ** (1.0 - s)
    band_w = np.concatenate((full[keep] * xw.sum(), np.tile(xw, cut.size)))

    x = mesh.nodes[1:-1]
    return Discretization(s, *map(_frozen, (ds, kr, band_cell, band_rho, band_w,
                                            (1.0 + x) ** (-s), (1.0 - x) ** (-s))))


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
    s = cfg.s
    mesh = u.mesh
    v = u.values

    far_mat = yf.G(disc.quotients(v))
    far_mat *= disc.kr
    far_mat *= disc.ds
    far = float(far_mat.sum())

    slope = np.abs(np.diff(v)) / mesh.h
    band = float(np.sum(disc.band_w * yf.lam(slope[disc.band_cell]
                                             * disc.band_rho)) / (1.0 - s))

    wi = mesh.weights[1:-1]
    c = np.abs(v[1:-1])
    strip = float(np.sum(wi * (yf.lam(c * disc.a_l) + yf.lam(c * disc.a_r))) / s)

    # ordered pairs: both (x, y) and (y, x) cross the boundary
    total = far + band + 2.0 * strip
    return {"far": far, "band": band, "strip": 2.0 * strip, "total": total}


def luxemburg_seminorm_W(cfg: OperatorConfig, u: GridFunction) -> float:
    """Gauge seminorm of the nonlocal modular, found as for the local norm."""
    return _luxemburg(lambda v: modular_W(cfg, v), u, cfg.young.window)
