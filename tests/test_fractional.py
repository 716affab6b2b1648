"""Nonlocal operator: weak form as the exact gradient of the discrete
energy, coercivity, monotonicity, and strong-form point values against
closed forms."""

import sys
import threading

import numpy as np
import pytest

from fglap.errors import ConfigurationError, DomainError
import fglap.fractional as fractional
import fglap.orlicz as orlicz
from fglap.fractional import (JacobianMatrix, apply_interior, assemble_matrix,
                              fold, jacobian, mirror, residual, weak_form)
from fglap.orlicz import (GridFunction, Mesh, OperatorConfig, modular_W,
                          modular_W_parts)
from fglap.young import DoublePowerYoung, PowerYoung

from conftest import dense_far_kernels, traced_peak

# orders that keep a family's far pairs in the dense buffers at m >= 257:
# power 4 goes by FFT there at s <= 1/2
DENSE_ORDER = {"power4": 0.6}


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
        got = apply_interior(cfg, plateau)[mesh33.m // 2 - 1]
        assert got == pytest.approx(2.0 * c ** 3 / 1.2, rel=1e-12)

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
            errs.append(abs(apply_interior(cfg, bump_on(mesh))[m // 2 - 1]
                            - a_star))
        assert errs[-1] <= 6e-5
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("name", ["power4", "dp34", "log221"])
    def test_matches_the_cell_loop(self, name, request):
        # per interior node: the two first cells from _first_cell_integral,
        # the midpoint rule on every other cell of (-1, 1), and the
        # exterior strips in closed form, int_d^inf g(u tau^(-s))
        # tau^(-1-s) dtau = G(u d^(-s)) / (s u) for d = 1 -/+ x_i
        yf = request.getfixturevalue(name)
        s = 0.3
        cfg = OperatorConfig(young=yf, s=s)
        mesh = Mesh(17)
        x, h = mesh.nodes, mesh.h
        u = (1.0 - x ** 2) * (0.3 + np.sin(5.0 * x))
        want = []
        for i in range(1, mesh.m - 1):
            sigma = np.array([u[i] - u[i - 1], u[i] - u[i + 1]]) / h
            total = float(np.sum(fractional._first_cell_integral(cfg, sigma, h)))
            for c in range(mesh.m - 1):
                if c in (i - 1, i):
                    continue
                tau = abs(i - c - 0.5) * h
                diff = u[i] - 0.5 * (u[c] + u[c + 1])
                total += h * yf.g(diff / tau ** s) * tau ** (-1.0 - s)
            for d in (1.0 + x[i], 1.0 - x[i]):
                total += yf.G(u[i] * d ** -s) / (s * u[i])
            want.append(total)
        got = apply_interior(cfg, GridFunction(mesh, u))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.xfail(reason="observed Richardson ratio approaches 4 from "
                              "above at every mesh triple", strict=True)
    def test_richardson_ratio_bracket(self, power4):
        # the second-order limit is approached from above, so the literal
        # (1.5, 4.0] bracket just misses; kept as a strict expected failure
        cfg = OperatorConfig(young=power4, s=0.3)
        vals = [apply_interior(cfg, bump_on(Mesh(m)))[m // 2 - 1]
                for m in (33, 65, 129)]
        ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
        assert 1.5 <= ratio <= 4.0


# ---------------------------------------------------------------------------
# the strong form's first cell on the Gauss-Laguerre rule

# int_0^(1/16) g(sigma tau^(1-s)) tau^(-1-s) dtau at FIRST_CELL_SIGMA, frozen
# from mpmath (40 digits, tanh-sinh on the substituted integral over y)
FIRST_CELL_SIGMA = (-2.5, 0.3, 1.7)
FIRST_CELL_FROZEN = {
    ("dp34", 0.1): (-0.037441096224233944, 0.0004827906302486618, 0.016654646776715725),
    ("dp34", 0.3): (-0.3281637993198392, 0.003977429319873078, 0.14300720772241796),
    ("dp34", 0.5): (-4.1015625, 0.0466875, 1.7520624999999999),
    ("log221", 0.1): (-0.02501235728354153, 0.00033314296819494043, 0.011256448215435007),
    ("log221", 0.3): (-0.21431617366577096, 0.0027368483695531577, 0.0951558756743565),
    ("log221", 0.5): (-2.6102149549726272, 0.03202501966297935, 1.1452800907833585),
}


class TestFirstCell:
    SIGMA = np.array([-40.0, -2.5, -0.3, 0.0, 0.3, 1.7, 2.5, 40.0])

    @pytest.mark.parametrize("p,s", [(4.0, 0.1), (4.0, 0.3), (4.0, 0.5), (40.0, 0.1),
                                     (40.0, 0.3), (40.0, 0.5), (40.0, 0.9)])
    @pytest.mark.parametrize("h", [1.0 / 256, 1.0 / 16, 0.5])
    def test_power_closed_form(self, p, s, h):
        # sign(sigma) |sigma|^(p-1) h^beta / beta, beta = (p-1)(1-s) - s
        cfg = OperatorConfig(young=PowerYoung(p), s=s)
        beta = (p - 1.0) * (1.0 - s) - s
        want = np.sign(self.SIGMA) * np.abs(self.SIGMA) ** (p - 1.0) * h ** beta / beta
        got = fractional._first_cell_integral(cfg, self.SIGMA, h)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert got[3] == 0.0

    @pytest.mark.parametrize("key", list(FIRST_CELL_FROZEN), ids=lambda k: f"{k[0]}-s{k[1]:g}")
    def test_matches_frozen_mpmath(self, key, request):
        cfg = OperatorConfig(young=request.getfixturevalue(key[0]), s=key[1])
        got = fractional._first_cell_integral(cfg, np.array(FIRST_CELL_SIGMA), 1.0 / 16)
        np.testing.assert_allclose(got, FIRST_CELL_FROZEN[key], rtol=1e-12, atol=0.0)

    def test_admissibility_reads_the_verified_window(self, mesh33):
        # p_minus (1 - s) > 1 is decided by window[0], not the declared claim
        u = bump_on(mesh33)
        modest = PowerYoung(4.0)
        modest.p_minus = 2.2  # 2.2 * 0.4 < 1, but the window gives 4 * 0.4 > 1
        np.testing.assert_array_equal(
            apply_interior(OperatorConfig(young=modest, s=0.6), u),
            apply_interior(OperatorConfig(young=PowerYoung(4.0), s=0.6), u))
        boastful = PowerYoung(2.5)
        boastful.p_minus = 10.0  # 10 * 0.3 > 1, but the window gives 2.5 * 0.3 < 1
        with pytest.raises(ConfigurationError, match=r"p_minus \(1 - s\) > 1"):
            apply_interior(OperatorConfig(young=boastful, s=0.7), u)


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
        gx, gw = np.polynomial.legendre.leggauss(8)
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

    @pytest.mark.parametrize("m", [17, 33])
    def test_band_and_strip_match_per_call_formulas(self, families, m):
        # each local piece on its own, the reference energy's formulas for
        # them; their sum with the far part is the reference energy
        mesh = Mesh(m)
        u = random_interior(mesh, 7)
        slope = np.abs(np.diff(u.values))[:, None] / mesh.h
        c = np.abs(u.values[1:-1])
        for yf in families:
            cfg = OperatorConfig(young=yf, s=0.3)
            ref, s = _Reference(cfg, m), cfg.s
            band = np.sum(ref.xw * sum(yf.lam(slope * r ** (1.0 - s))
                                       for r in ref.radii)) / (1.0 - s)
            strip = 2.0 * sum(np.sum(mesh.weights[1:-1] * yf.lam(c * a)) / s
                              for a in ref.sides)
            parts = modular_W_parts(cfg, u)
            assert parts["band"] == pytest.approx(band, rel=1e-13)
            assert parts["strip"] == pytest.approx(strip, rel=1e-13)
            assert parts["far"] + band + strip == pytest.approx(
                ref.energy(u.values), rel=1e-13)

    @pytest.mark.parametrize("name", ["power4", "log221"])
    @pytest.mark.parametrize("newton", [False, True])
    def test_band_evaluates_each_window_once(self, name, newton, request,
                                             monkeypatch):
        # unclipped cell-sides share the radius h at every x-node, so the
        # band needs one point per cell plus the 8 nodes of each of the two
        # clipped sides; 2m + 12 points allow one per unclipped side. The
        # strips add two points per interior node. The residual and the
        # Jacobian share that one G pass
        yf = request.getfixturevalue(name)
        m = 65
        disc = OperatorConfig(young=yf, s=0.3).discretization(m)
        points = []
        G = yf.G
        monkeypatch.setattr(yf, "G", lambda t: points.append(np.size(t)) or G(t))
        x = disc.local_args(random_interior(Mesh(m), 9).values)
        _, local_G = fractional._local_sums(yf, disc, x, newton=newton)
        assert [size for size in points if size] == [local_G.size]
        assert 0 < local_G.size <= 2 * m + 12 + 2 * (m - 2)

    @pytest.mark.parametrize("m", [33, 257])
    def test_jacobian_kernel_is_minus_twice_kr_over_ds(self, m):
        # kj = -2 kr / ds, with the end nodes' half weights applied as kr's
        disc = OperatorConfig(young=PowerYoung(4.0), s=0.3).discretization(m)
        ds, kr = dense_far_kernels(Mesh(m), 0.3)
        want = -2.0 * kr / ds
        got = fractional._halve_boundary(np.array(disc.kj), rows=True)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert not disc.kj.flags.writeable
        # a Toeplitz view spanning 2m - 1 values
        low, high = np.lib.array_utils.byte_bounds(disc.kj)
        assert high - low == (2 * m - 1) * disc.kj.itemsize

    @pytest.mark.parametrize("name", ["power4", "dp34", "log221"])
    @pytest.mark.parametrize("even", [False, True])
    def test_assembly_is_the_dense_kernel_jacobian(self, name, even, request):
        # far pairs -2 g'(du) kr / ds off the diagonal and minus their row
        # sums on it, from conftest's dense kernels, plus the local terms
        yf = request.getfixturevalue(name)
        cfg = OperatorConfig(young=yf, s=0.3)
        m = 65
        mesh = Mesh(m)
        u = TestEvenFold.even_case(m)[0]
        ds, kr = dense_far_kernels(mesh, 0.3)
        far = 2.0 * yf.g_prime((u.values[:, None] - u.values) / ds) * kr / ds
        want = np.diag(far.sum(axis=1)) - far
        disc = cfg.discretization(m)
        x = disc.local_args(u.values)
        sums, _ = fractional._local_sums(yf, disc, x, newton=True)
        cp = sums[:m - 1] / mesh.h ** 2
        k = np.arange(m - 1)
        for i, j, sign in ((k, k, 1.0), (k + 1, k + 1, 1.0), (k, k + 1, -1.0),
                           (k + 1, k, -1.0)):
            want[i, j] += sign * cp
        want = want[1:-1, 1:-1]
        want[np.diag_indices(m - 2)] += sums[m - 1:]
        got = assemble_matrix(cfg, u, even=even)
        want = want[:got.shape[0]]
        assert got.shape == ((m - 1) // 2 if even else m - 2, m - 2)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_cached_arrays_are_read_only(self):
        cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
        disc = cfg.discretization(33)
        assert disc is cfg.discretization(33)
        arrays = {name: val for name, val in vars(disc).items()
                  if isinstance(val, np.ndarray)}
        # the Toeplitz views ds, kr and kj
        assert sum(a.shape == (33, 33) for a in arrays.values()) == 3
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
            du = disc.quotients(uv, out=np.empty(disc.ds.shape))
            near_g = cfg.young.g(du[disc.kr == 0.0])
        assert np.all(np.isfinite(near_g)) == near_finite
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            residual(cfg, GridFunction(mesh, uv), np.zeros(mesh.m))


class TestEvenFold:
    """Even data on an odd mesh: the rows up to the centre of the residual
    and the Jacobian, the latter folded onto the half unknowns."""

    @staticmethod
    def even_case(m):
        mesh = Mesh(m)
        x = mesh.nodes
        half = ((1.0 - x ** 2) ** 0.7 * (1.0 + 0.3 * np.cos(3.0 * x)))[:m // 2 + 1]
        return GridFunction(mesh, mirror(half)), mirror((2.0 + x ** 2)[:m // 2 + 1])

    @pytest.mark.parametrize("name", ["power4", "dp34", "log221"])
    def test_half_residual_is_the_full_rows(self, name, request):
        cfg = OperatorConfig(young=request.getfixturevalue(name), s=0.3)
        u, rhs = self.even_case(33)
        k = 17
        full = residual(cfg, u, rhs).values
        half = residual(cfg, u, rhs, even=True).values
        assert np.array_equal(half[:k], full[:k])
        assert np.array_equal(half, mirror(half[:k]))
        # the rows are views of the one workspace, whose shape stays m x m
        assert fractional._FAR.shape == (33, 33)

    @pytest.mark.parametrize("name", ["power4", "dp34", "log221"])
    def test_folded_matrix_is_the_mirrored_product(self, name, request):
        # the centre row's band coupling to node c + 1 folds onto node c - 1;
        # without it the centre entry of the product is off
        cfg = OperatorConfig(young=request.getfixturevalue(name), s=0.3)
        u, _ = self.even_case(33)
        c = 16
        # copied: the next assembly reuses the buffer the block lives in
        block = assemble_matrix(cfg, u, even=True).copy()
        assert block.shape == (c, 31)
        dh = np.random.default_rng(7).uniform(-1.0, 1.0, c)
        want = (assemble_matrix(cfg, u) @ mirror(dh))[:c]
        got = fold(block) @ dh
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("even", [False, True])
    def test_shift_on_diag_lands_before_the_fold(self, power4, even):
        # JacobianMatrix.diag is a writable view of block[i, i], i < len(block),
        # so a shift added there is in `dense`, the fold taken after it
        cfg = OperatorConfig(young=power4, s=0.3)
        u, _ = self.even_case(65)
        block = assemble_matrix(cfg, u, even=even).copy()
        want = block.copy()
        jac = JacobianMatrix(block, even)
        i = np.arange(len(block))
        assert jac.diag.flags.writeable and np.shares_memory(jac.diag, block)
        assert np.array_equal(jac.diag, want[i, i])
        shift = np.random.default_rng(7).uniform(1.0, 2.0, len(block))
        jac.diag += shift
        want[i, i] += shift
        assert np.array_equal(jac.dense(), fold(want) if even else want)


class TestFarPairWorkspace:
    """The far-pair terms run in per-thread reused buffers: no m x m array
    is allocated per residual, energy or Jacobian, which is a view of the
    buffers."""

    M = 257

    @pytest.mark.parametrize("name", ["power4", "dp34", "log221"])
    def test_no_square_temporaries(self, name, request):
        cfg = OperatorConfig(young=request.getfixturevalue(name), s=0.3)
        m = self.M
        u = random_interior(Mesh(m), 3)
        doubles = 8 * m * m
        assert traced_peak(lambda: residual(cfg, u, np.zeros(m))) < 0.5 * doubles
        assert traced_peak(lambda: assemble_matrix(cfg, u)) < 0.5 * doubles
        v = random_interior(Mesh(m), 4)
        assert traced_peak(lambda: weak_form(cfg, u, v)) < 0.5 * doubles

    @pytest.mark.parametrize("name", ["power4", "dp34", "log221"])
    def test_energy_has_no_square_temporaries(self, name, request):
        # G of the far-pair quotients runs in the same buffers, and the far
        # sum is the dense kernels' sum bit for bit
        yf = request.getfixturevalue(name)
        s = DENSE_ORDER.get(name, 0.3)
        cfg = OperatorConfig(young=yf, s=s)
        m = self.M
        mesh = Mesh(m)
        u = random_interior(mesh, 3)
        assert cfg.toeplitz_far(m) is None
        assert traced_peak(lambda: modular_W_parts(cfg, u)) < 0.5 * 8 * m * m
        ds, kr = dense_far_kernels(mesh, s)
        du = (u.values[:, None] - u.values) / ds
        far = float((yf.G(du) * kr * ds).sum())
        parts = modular_W_parts(cfg, u)
        assert parts["far"] == far
        assert parts["total"] == far + parts["band"] + parts["strip"]

    def test_jacobian_lives_in_the_buffers(self, power4):
        # the Jacobian is the interior of the buffer that held the residual's
        # quotients, and the next far-pair evaluation overwrites it
        cfg = OperatorConfig(young=power4, s=0.3)
        u, _ = TestEvenFold.even_case(33)
        for even in (False, True):
            jac = assemble_matrix(cfg, u, even=even)
            held = fractional._FAR.buffer
            assert np.shares_memory(jac, held)
            assert np.array_equal(jac, held[1:jac.shape[0] + 1, 1:-1])
            keep = jac.copy()
            residual(cfg, u, np.zeros(33), even=even)
            assert not np.array_equal(jac, keep)

    @staticmethod
    def assembly(cfg, u, passes, even=False):
        """A copy of the assembly at u, and whether it reused quotients,
        read off the `quotient_passes` counter ``passes``."""
        before = passes[0]
        return assemble_matrix(cfg, u, even=even).copy(), passes[0] == before

    def test_reused_quotients_match_fresh_ones(self, power4, log221,
                                               quotient_passes):
        # the residual's quotients serve the assembly at the same u, once;
        # the assembly's own take clears the record
        u, rhs = TestEvenFold.even_case(33)
        for yf in (power4, log221):
            cfg = OperatorConfig(young=yf, s=0.3)
            for even in (False, True):
                want, _ = self.assembly(cfg, u, quotient_passes, even)
                residual(cfg, u, rhs, even=even)
                for reuse in (True, False):
                    jac, reused = self.assembly(cfg, u, quotient_passes, even)
                    assert reused == reuse and np.array_equal(jac, want)
            # half rows cannot serve a full assembly
            full, _ = self.assembly(cfg, u, quotient_passes)
            for even, reuse in ((True, False), (False, True)):
                residual(cfg, u, rhs, even=even)
                jac, reused = self.assembly(cfg, u, quotient_passes)
                assert reused == reuse and np.array_equal(jac, full)

    @pytest.mark.parametrize("s", [0.3, 0.7])
    def test_another_config_assembles_afresh(self, power4, log221, s,
                                             quotient_passes):
        # G depends on the family and the quotients on s, so a residual at
        # the same u under another config serves neither
        u, rhs = TestEvenFold.even_case(33)
        cfg = OperatorConfig(young=log221, s=s)
        want, _ = self.assembly(cfg, u, quotient_passes)
        for other in (OperatorConfig(young=power4, s=s),
                      OperatorConfig(young=log221, s=1.0 - s)):
            residual(other, u, rhs)
            jac, reused = self.assembly(cfg, u, quotient_passes)
            assert not reused and np.array_equal(jac, want)

    def test_values_edited_in_place_assemble_afresh(self, power4, quotient_passes):
        # the record keeps a copy of u's values, not the array itself
        u, rhs = TestEvenFold.even_case(33)
        cfg = OperatorConfig(young=power4, s=0.3)
        edited = u.values.copy()
        edited[5] += 1e-3
        want, _ = self.assembly(cfg, GridFunction(u.mesh, edited), quotient_passes)
        residual(cfg, u, rhs)
        u.values[5] += 1e-3
        jac, reused = self.assembly(cfg, u, quotient_passes)
        assert not reused and np.array_equal(jac, want)

    def test_a_take_in_between_assembles_afresh(self, power4, quotient_passes):
        # an energy at the same u, or a residual at another v, overwrites
        # the buffers in between
        u, rhs = TestEvenFold.even_case(33)
        v = random_interior(Mesh(33), 8)
        cfg = OperatorConfig(young=power4, s=0.3)
        want, _ = self.assembly(cfg, u, quotient_passes)
        for between in (lambda: modular_W(cfg, u), lambda: residual(cfg, v, rhs)):
            residual(cfg, u, rhs)
            between()
            jac, reused = self.assembly(cfg, u, quotient_passes)
            assert not reused and np.array_equal(jac, want)

    def test_repeated_residual_reuses_the_unloaded_rows(self, power4, log221,
                                                        quotient_passes):
        # a second residual at the same config, values and rows subtracts
        # its load from the recorded rows: bit for bit a fresh evaluation,
        # without a quotient pass, and the record stays for the assembly
        u, rhs = TestEvenFold.even_case(33)
        for yf in (power4, log221):
            cfg = OperatorConfig(young=yf, s=0.3)
            for even in (False, True):
                residual(cfg, u, rhs, even=even)
                record = fractional._FAR.last
                before = quotient_passes[0]
                hit = residual(cfg, u, 2.0 * rhs, even=even).values
                assert quotient_passes[0] == before
                assert fractional._FAR.last is record
                _, reused = self.assembly(cfg, u, quotient_passes, even)
                assert reused
                fractional._FAR.last = None
                fresh = residual(cfg, u, 2.0 * rhs, even=even).values
                assert quotient_passes[0] == before + 1
                assert np.array_equal(hit, fresh)
            # the other row count evaluates afresh, both ways
            for even in (False, True):
                before = quotient_passes[0]
                residual(cfg, u, rhs, even=even)
                assert quotient_passes[0] == before + 1

    def test_threads_reproduce_serial_results(self, power4, log221):
        # two meshes in flight at once: each thread must keep its own buffers
        cases = [(OperatorConfig(young=yf, s=0.3), random_interior(Mesh(m), m))
                 for yf in (power4, log221) for m in (129, 257)]
        serial = [residual(cfg, u, np.zeros(u.mesh.m)).values for cfg, u in cases]
        rounds = 15
        matched = [0] * (2 * len(cases))

        def work(j):
            cfg, u = cases[j % len(cases)]
            for _ in range(rounds):
                got = residual(cfg, u, np.zeros(u.mesh.m)).values
                matched[j] += np.array_equal(got, serial[j % len(cases)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(j,))
                       for j in range(len(matched))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert matched == [rounds] * len(matched)


class TestRowBlocks:
    """At m = 1025 every far-pair pass takes the buffer's rows in several
    blocks. Rows are independent and the energy keeps its one sum over
    the whole buffer, so each result equals the dense one bit for bit."""

    M = 1025

    @pytest.fixture
    def one_block(self, monkeypatch):
        """Switch to scratches that hold all m rows, so that every pass is
        one dense block over the whole buffer; the buffers are rebuilt at
        the normal size afterwards."""
        def switch():
            monkeypatch.setattr(orlicz, "FAR_BLOCK_BYTES", 8 * self.M * self.M)
            fractional._FAR.shape = None
        yield switch
        fractional._FAR.shape = None

    @staticmethod
    def evaluate(cfg, u, rhs):
        out = {"far": modular_W_parts(cfg, u)["far"]}
        for even in (False, True):
            out[even] = residual(cfg, u, rhs, even=even).values
            jac = assemble_matrix(cfg, u, even=even)
            out[even, "jac"] = jac.copy()
        out["fold"] = fold(jac).copy()
        return out

    @pytest.mark.parametrize("name", ["power4", "dp34", "log221"])
    def test_blocks_equal_one_dense_block(self, name, request, one_block):
        yf = request.getfixturevalue(name)
        s = DENSE_ORDER.get(name, 0.3)
        cfg = OperatorConfig(young=yf, s=s)
        m = self.M
        assert cfg.toeplitz_far(m) is None
        u, rhs = TestEvenFold.even_case(m)
        got = self.evaluate(cfg, u, rhs)
        for k in (m, (m + 1) // 2):
            assert len(list(fractional._FAR.blocks(k))) >= 2
        one_block()
        want = self.evaluate(cfg, u, rhs)
        assert len(list(fractional._FAR.blocks(m))) == 1
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key
        ds, kr = dense_far_kernels(Mesh(m), s)
        du = (u.values[:, None] - u.values) / ds
        assert got["far"] == float((yf.G(du) * kr * ds).sum())

    @pytest.mark.parametrize("name", ["power4", "dp34", "log221"])
    def test_one_square_array_and_no_square_temporaries(self, name, request):
        cfg = OperatorConfig(young=request.getfixturevalue(name),
                             s=DENSE_ORDER.get(name, 0.3))
        m = self.M
        u, rhs = TestEvenFold.even_case(m)
        square = 8 * m * m
        for even in (False, True):
            assert traced_peak(lambda: residual(cfg, u, rhs, even=even)) < square
            assert traced_peak(lambda: assemble_matrix(cfg, u, even=even)) < square
        assert traced_peak(lambda: modular_W_parts(cfg, u)) < square
        arrays = [val for val in vars(fractional._FAR).values()
                  if isinstance(val, np.ndarray)]
        arrays += list(fractional._FAR.scratch)
        assert [a.shape for a in arrays].count((m, m)) == 1
        assert sorted(a.nbytes for a in arrays)[:-1] == [
            fractional._FAR.scratch[0].nbytes] * 2
        assert fractional._FAR.scratch[0].nbytes <= orlicz.FAR_BLOCK_BYTES


class TestMixedPowers:
    """The paper's (p, q)-Laplacian case: the double-power family's g is
    the sum of the two powers' g, so every quantity linear in G, g or g'
    is the sum of the two power families' quantities. At m = 257 power 4
    takes the FFT path (`orlicz.ToeplitzFar`), power 3 and the mixed
    family the far-pair buffers. Largest gaps measured, relative to the
    largest entry: 3.0e-15 (residual), 1.1e-15 (J v), 3.7e-16 (Jacobian),
    2.1e-16 (modular), 2.2e-16 (strong form)."""

    QUANTITIES = {
        "residual": lambda cfg, u: residual(cfg, u, np.zeros(u.mesh.m)).values,
        "jacobian": lambda cfg, u: jacobian(cfg, u) @ np.random.default_rng(
            u.mesh.m).uniform(-1.0, 1.0, u.mesh.m - 2),
        "assemble_matrix": lambda cfg, u: assemble_matrix(cfg, u).copy(),
        "modular_W": lambda cfg, u: np.array([modular_W(cfg, u)]),
        "apply_interior": apply_interior,
    }

    @pytest.mark.parametrize("quantity", list(QUANTITIES))
    @pytest.mark.parametrize("m", [33, 65, 257])
    @pytest.mark.parametrize("p1,p2", [(3.0, 4.0), (2.5, 8.0)])
    def test_sum_of_the_two_powers(self, p1, p2, m, quantity):
        mesh = Mesh(m)
        x = mesh.nodes
        u = GridFunction(mesh, (1.0 - x ** 2) * (1.3 + 0.4 * np.sin(3.0 * x)))
        value = self.QUANTITIES[quantity]
        mixed = value(OperatorConfig(young=DoublePowerYoung(p1, p2), s=0.3), u)
        summed = sum(value(OperatorConfig(young=PowerYoung(p), s=0.3), u)
                     for p in (p1, p2))
        assert np.max(np.abs(mixed - summed)) <= 1e-14 * np.max(np.abs(summed))
