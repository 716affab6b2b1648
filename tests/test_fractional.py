"""Nonlocal operator: weak form as the exact gradient of the discrete
energy, coercivity, monotonicity, and strong-form point values against
closed forms."""

import numpy as np
import pytest

from fglap.errors import ConfigurationError, DomainError
import fglap.fractional as fractional
from fglap.fractional import (apply, apply_interior, assemble_matrix,
                              residual, weak_form)
from fglap.orlicz import (GridFunction, Mesh, OperatorConfig, modular_W,
                          modular_W_parts)
from fglap.quadrature import gauss_legendre
from fglap.young import PowerYoung


def bump_on(mesh):
    return GridFunction(mesh, 1.0 - mesh.nodes ** 2)


class TestConfigValidation:
    def test_s_window(self, power4):
        with pytest.raises(ConfigurationError):
            OperatorConfig(young=power4, s=0.0)
        with pytest.raises(ConfigurationError):
            OperatorConfig(young=power4, s=1.0)


class TestWeakForm:
    def test_gradient_of_energy(self, families, mesh33):
        # weak_form(u, v) is the directional derivative of the nonlocal
        # modular; central differences agree to near machine precision
        u = bump_on(mesh33)
        vv = np.sin(np.pi * mesh33.nodes) ** 2 * (1.0 - mesh33.nodes ** 2)
        v = GridFunction(mesh33, vv)
        for yf in families:
            cfg = OperatorConfig(young=yf, s=0.3)
            eps = 1e-6
            up = GridFunction(mesh33, u.values + eps * v.values)
            um = GridFunction(mesh33, u.values - eps * v.values)
            fd = (modular_W(cfg, up) - modular_W(cfg, um)) / (2.0 * eps)
            wf = weak_form(cfg, u, v)
            # difference noise ~ 1e-16 |E| / eps caps the attainable match
            assert wf == pytest.approx(fd, rel=1e-8)

    def test_coercivity(self, families, mesh33):
        # pairing with u itself dominates p_minus times the modular;
        # equality holds for the pure power family
        u = bump_on(mesh33)
        for yf in families:
            cfg = OperatorConfig(young=yf, s=0.3)
            ratio = weak_form(cfg, u, u) / modular_W(cfg, u)
            assert ratio >= yf.p_minus * (1.0 - 1e-8)
        p4 = PowerYoung(4.0)
        cfg = OperatorConfig(young=p4, s=0.3)
        assert weak_form(cfg, u, u) / modular_W(cfg, u) == pytest.approx(4.0, rel=1e-12)

    def test_linear_in_test_function(self, power4, mesh33):
        cfg = OperatorConfig(young=power4, s=0.3)
        u = bump_on(mesh33)
        vv = np.sin(np.pi * mesh33.nodes) ** 2
        vv[0] = vv[-1] = 0.0  # float sine leaves ~1e-32 at the endpoints
        v1 = GridFunction(mesh33, vv)
        v2 = GridFunction(mesh33, (1.0 - mesh33.nodes ** 2) ** 2)
        lhs = weak_form(cfg, u, GridFunction(mesh33, 2.0 * v1.values - 0.5 * v2.values))
        rhs = 2.0 * weak_form(cfg, u, v1) - 0.5 * weak_form(cfg, u, v2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_pairing(self, power4, mesh33):
        # <A u - A v, (u - v)^+> >= 0 for the odd increasing kernel
        cfg = OperatorConfig(young=power4, s=0.3)
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.uniform(0.0, 1.0, mesh33.m)
            b = rng.uniform(0.0, 1.0, mesh33.m)
            a[0] = a[-1] = b[0] = b[-1] = 0.0
            u, v = GridFunction(mesh33, a), GridFunction(mesh33, b)
            w = GridFunction(mesh33, np.maximum(a - b, 0.0))
            gap = weak_form(cfg, u, w) - weak_form(cfg, v, w)
            assert gap >= -1e-10

    def test_pairing_matches_strong_form(self, power4):
        # ordered-pairs weak form equals twice the nodal pairing with the
        # strong form, up to discretization
        mesh = Mesh(65)
        cfg = OperatorConfig(young=power4, s=0.3)
        u = bump_on(mesh)
        v = GridFunction(mesh, np.sin(np.pi * mesh.nodes) ** 2 * (1.0 - mesh.nodes ** 2))
        strong = apply_interior(cfg, u)
        pair = 2.0 * float(np.sum(mesh.weights[1:-1] * v.values[1:-1] * strong))
        assert weak_form(cfg, u, v) == pytest.approx(pair, rel=5e-3)


class TestStrongForm:
    def test_plateau_closed_form(self, power4, mesh33):
        # u == c: only the exterior contributes, 2 c^3 / (4 s) at the center
        cfg = OperatorConfig(young=power4, s=0.3)
        c = 0.7
        plateau = GridFunction(mesh33, np.full(mesh33.m, c))
        got = apply(cfg, plateau, mesh33.m // 2)
        assert got == pytest.approx(2.0 * c ** 3 / 1.2, rel=1e-12)

    def test_interior_index_required(self, power4, mesh33):
        cfg = OperatorConfig(young=power4, s=0.3)
        u = bump_on(mesh33)
        for bad in (0, mesh33.m - 1, -1, mesh33.m):
            with pytest.raises(DomainError):
                apply(cfg, u, bad)

    def test_even_symmetry(self, power4, mesh33):
        cfg = OperatorConfig(young=power4, s=0.3)
        vals = apply_interior(cfg, bump_on(mesh33))
        assert np.max(np.abs(vals - vals[::-1])) <= 1e-10

    def test_center_value_converges(self, power4):
        # (1 - x^2) at the origin: 2 (1/(6-4s) + 1/(4s)) = 2.0833...
        # with s = 0.3; second-order error decay
        cfg = OperatorConfig(young=power4, s=0.3)
        a_star = 2.0 * (1.0 / 4.8 + 1.0 / 1.2)
        errs = []
        for m in (33, 65, 129):
            mesh = Mesh(m)
            errs.append(abs(apply(cfg, bump_on(mesh), m // 2) - a_star))
        assert errs[-1] <= 6e-5
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    @pytest.mark.xfail(reason="observed Richardson ratio approaches 4 from "
                              "above at every mesh triple", strict=True)
    def test_richardson_ratio_bracket(self, power4):
        # the second-order limit is approached from above, so the literal
        # (1.5, 4.0] bracket just misses; kept as a strict expected failure
        cfg = OperatorConfig(young=power4, s=0.3)
        vals = [apply(cfg, bump_on(Mesh(m)), m // 2) for m in (33, 65, 129)]
        ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
        assert 1.5 <= ratio <= 4.0


# ---------------------------------------------------------------------------
# the shared discretization against the per-call formulas it replaced


def random_interior(mesh, seed):
    vals = np.random.default_rng(seed).uniform(0.1, 1.5, mesh.m)
    vals[0] = vals[-1] = 0.0
    return GridFunction(mesh, vals)


class _Reference:
    """The operator pieces built per call, as before the far-pair kernel
    was cached: a boolean far mask, distances set to 1 on near pairs, the
    trapezoid weight matrix, distance powers taken on every evaluation and
    np.where masking, band radii raised to 1 - s inside each formula, and
    strip coefficients rebuilt from the nodes."""

    def __init__(self, cfg, m):
        self.yf, self.s = cfg.young, cfg.s
        mesh = self.mesh = Mesh(m)
        idx = np.arange(m)
        self.mask = np.abs(idx[:, None] - idx[None, :]) > 1
        self.dist = np.where(
            self.mask, np.abs(mesh.nodes[:, None] - mesh.nodes[None, :]), 1.0)
        self.ww = np.outer(mesh.weights, mesh.weights)
        gx, gw = gauss_legendre(8)
        xq = mesh.nodes[:-1, None] + (gx[None, :] + 1.0) * (mesh.h / 2.0)
        self.xw = np.broadcast_to(gw * (mesh.h / 2.0), xq.shape)
        self.radii = (np.minimum(mesh.h, 1.0 + xq), np.minimum(mesh.h, 1.0 - xq))
        x = mesh.nodes[1:-1]
        self.sides = [(1.0 + x) ** (-cfg.s), (1.0 - x) ** (-cfg.s)]

    def du(self, uv):
        return (uv[:, None] - uv[None, :]) / self.dist ** self.s

    def band_w(self, sigma, newton=False):
        yf, ex = self.yf, 1.0 - self.s
        total = 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            for radii in self.radii:
                args = sigma * radii ** ex
                if newton:
                    val = ((yf.g(args) * radii ** ex * sigma - yf.G(args))
                           / (sigma ** 2 * ex))
                else:
                    val = yf.G(args) / (sigma * ex)
                total = total + np.where(sigma != 0.0, val, 0.0)
        return np.sum(self.xw * total, axis=1)

    def strip(self, c, slope=False):
        yf, s = self.yf, self.s
        out = 0.0
        for a in self.sides:
            if slope:
                out = out + (yf.g(c * a) * a * c - yf.G(c * a)) / (s * c ** 2)
            else:
                out = out + yf.G(c * a) / (s * c)
        return out

    def energy(self, uv):
        yf, s, mesh = self.yf, self.s, self.mesh
        far = np.sum(np.where(self.mask, self.ww * yf.G(self.du(uv)) / self.dist, 0.0))
        slope = np.abs(np.diff(uv))[:, None] / mesh.h
        band = np.sum(self.xw * sum(yf.lam(slope * r ** (1.0 - s))
                                    for r in self.radii)) / (1.0 - s)
        c = np.abs(uv[1:-1])
        strip = sum(np.sum(mesh.weights[1:-1] * yf.lam(c * a)) / s
                    for a in self.sides)
        return far + band + 2.0 * strip

    def residual(self, uv):
        mesh = self.mesh
        far = np.where(self.mask, self.ww * self.yf.g(self.du(uv))
                       / self.dist ** (1.0 + self.s), 0.0)
        r = 2.0 * far.sum(axis=1)
        cell = self.band_w(np.diff(uv)[:, None] / mesh.h) / mesh.h
        r[1:] += cell
        r[:-1] -= cell
        r[1:-1] += 2.0 * mesh.weights[1:-1] * self.strip(uv[1:-1])
        r[0] = r[-1] = 0.0
        return r

    def jacobian(self, uv):
        mesh, m = self.mesh, self.mesh.m
        far = np.where(self.mask, 2.0 * self.ww * self.yf.g_prime(self.du(uv))
                       / self.dist ** (1.0 + 2.0 * self.s), 0.0)
        jac = np.diag(far.sum(axis=1)) - far
        cp = self.band_w(np.diff(uv)[:, None] / mesh.h, newton=True) / mesh.h ** 2
        k = np.arange(m - 1)
        np.add.at(jac, (k, k), cp)
        np.add.at(jac, (k + 1, k + 1), cp)
        np.add.at(jac, (k, k + 1), -cp)
        np.add.at(jac, (k + 1, k), -cp)
        idx = np.arange(1, m - 1)
        jac[idx, idx] += 2.0 * mesh.weights[1:-1] * self.strip(uv[1:-1], slope=True)
        return jac[1:-1, 1:-1]

    def weak_form(self, uv, vv):
        mesh = self.mesh
        dv = vv[:, None] - vv[None, :]
        far = np.sum(np.where(self.mask, self.ww * self.yf.g(self.du(uv)) * dv
                              / self.dist ** (1.0 + self.s), 0.0))
        band = np.sum(self.band_w(np.diff(uv)[:, None] / mesh.h)
                      * np.diff(vv) / mesh.h)
        strip = 2.0 * np.sum(mesh.weights[1:-1] * vv[1:-1] * self.strip(uv[1:-1]))
        return far + band + strip


def assert_close(got, ref, rel):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


class TestSharedDiscretization:
    def test_residual_is_weak_form_against_hats(self, families, mesh33):
        # the unloaded residual's entry at an interior node is the weak
        # form against that node's hat function
        u = random_interior(mesh33, 5)
        for yf in families:
            cfg = OperatorConfig(young=yf, s=0.3)
            r = residual(cfg, u, np.zeros(mesh33.m)).values
            for i in range(1, mesh33.m - 1):
                hat = GridFunction(mesh33, np.eye(mesh33.m)[i])
                assert weak_form(cfg, u, hat) == pytest.approx(
                    r[i], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [17, 33])
    def test_matches_per_call_formulas(self, families, m):
        mesh = Mesh(m)
        u = random_interior(mesh, 7)
        v = random_interior(mesh, 8)
        for yf in families:
            cfg = OperatorConfig(young=yf, s=0.3)
            ref = _Reference(cfg, m)
            assert_close(residual(cfg, u, np.zeros(m)).values,
                         ref.residual(u.values), 1e-13)
            assert_close(assemble_matrix(cfg, u),
                         ref.jacobian(u.values), 1e-13)
            assert weak_form(cfg, u, v) == pytest.approx(
                ref.weak_form(u.values, v.values), rel=1e-13)
            parts = modular_W_parts(cfg, u)
            assert parts["total"] == pytest.approx(ref.energy(u.values), rel=1e-13)

    @pytest.mark.parametrize("name", ["power4", "log221"])
    @pytest.mark.parametrize("newton", [False, True])
    def test_band_evaluates_each_window_once(self, name, newton, request,
                                             monkeypatch):
        # unclipped cell-sides share the radius h at every x-node, so the
        # band needs one point per cell plus the 8 nodes of each of the two
        # clipped sides; 2m + 12 points allow one per unclipped side
        yf = request.getfixturevalue(name)
        m = 65
        disc = OperatorConfig(young=yf, s=0.3).discretization(m)
        points = []
        G = yf.G
        monkeypatch.setattr(yf, "G", lambda t: points.append(np.size(t)) or G(t))
        sigma = np.diff(random_interior(Mesh(m), 9).values) / Mesh(m).h
        fractional._band_cells(yf, disc, sigma, newton=newton)
        assert 0 < sum(points) <= 2 * m + 12

    def test_cached_arrays_are_read_only(self):
        cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
        disc = cfg.discretization(33)
        assert disc is cfg.discretization(33)
        arrays = {name: val for name, val in vars(disc).items()
                  if isinstance(val, np.ndarray)}
        assert sum(a.shape == (33, 33) for a in arrays.values()) == 2
        for name, arr in arrays.items():
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0


class TestOverflow:
    @pytest.mark.parametrize("height,near_finite", [(5e7, True), (2e8, False)])
    def test_spike_raises_domain_error(self, height, near_finite):
        # near pairs lie within the one-cell band, h < 1, so the band cells'
        # argument sigma*rho is at least any near pair's plain difference,
        # and G >= g where g overflows: the band cells overflow first, and
        # masking near pairs before g would change nothing
        cfg = OperatorConfig(young=PowerYoung(40.0), s=0.1)
        mesh = Mesh(17)
        uv = np.zeros(mesh.m)
        uv[8] = height
        disc = cfg.discretization(mesh.m)
        with np.errstate(over="ignore"):
            near_g = cfg.young.g(disc.quotients(uv)[disc.kr == 0.0])
        assert np.all(np.isfinite(near_g)) == near_finite
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            residual(cfg, GridFunction(mesh, uv), np.zeros(mesh.m))
