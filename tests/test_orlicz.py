"""Discrete Orlicz energies: local modular and gauge, the nonlocal modular
with its far/band/strip split, and the seminorm built on it."""

import numpy as np
import pytest

import fglap.orlicz as orlicz
from fglap.errors import ConfigurationError, DomainError
from fglap.orlicz import (
    GridFunction,
    Mesh,
    OperatorConfig,
    _discretization,
    luxemburg_seminorm_W,
    modular_W,
    modular_W_parts,
)
from fglap.young import PowerYoung, eval_Gbar

import oracles
from conftest import dense_far_kernels, traced_peak
from oracles import luxemburg_norm_LG, modular_LG


def sine_corpus(mesh, n, seed=42):
    """Random 4-term sine series, endpoints forced to exact zero."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        coef = rng.normal(size=4) / np.arange(1, 5) ** 2
        vals = sum(c * np.sin(np.pi * k * (mesh.nodes + 1) / 2)
                   for k, c in enumerate(coef, start=1))
        vals[0] = vals[-1] = 0.0
        out.append(GridFunction(mesh, vals))
    return out


class TestMesh:
    def test_basic_geometry(self):
        mesh = Mesh(33)
        assert mesh.h == pytest.approx(2.0 / 32.0)
        assert mesh.nodes[0] == -1.0 and mesh.nodes[-1] == 1.0
        # trapezoidal weights integrate constants exactly
        assert float(mesh.weights.sum()) == pytest.approx(2.0, rel=1e-14)

    def test_minimum_size(self):
        Mesh(9)
        with pytest.raises(ConfigurationError):
            Mesh(8)

    def test_refined_keeps_nodes(self):
        coarse = Mesh(17)
        fine = Mesh(2 * coarse.m - 1)
        idx = coarse.coarse_index_in(fine)
        assert np.allclose(fine.nodes[idx], coarse.nodes)

    def test_nesting_rejected(self):
        with pytest.raises(ConfigurationError):
            Mesh(33).coarse_index_in(Mesh(49))

    @pytest.mark.parametrize("fine", [33, 17])
    def test_refinement_must_be_finer(self, fine):
        # a nested mesh refines only when its m - 1 is at least twice as large
        with pytest.raises(ConfigurationError):
            Mesh(33).coarse_index_in(Mesh(fine))


class TestGridFunction:
    def test_shape_checked(self):
        mesh = Mesh(9)
        with pytest.raises(DomainError):
            GridFunction(mesh, np.zeros(10))

    def test_finite_checked(self):
        mesh = Mesh(9)
        vals = np.zeros(9)
        vals[4] = np.inf
        with pytest.raises(DomainError):
            GridFunction(mesh, vals)

    def test_evenness_helper(self):
        mesh = Mesh(9)
        even = GridFunction(mesh, mesh.nodes ** 2)
        odd = GridFunction(mesh, mesh.nodes)
        assert even.is_even() and not odd.is_even()


class TestLocalModular:
    def test_constant_exact(self, power4):
        # G(1) = 1/4 over an interval of length 2
        for m in (9, 33, 65):
            one = GridFunction(Mesh(m), np.ones(m))
            assert modular_LG(one, power4) == pytest.approx(0.5, rel=1e-14)

    def test_cone_second_order(self, power3):
        # int G(1-|x|) = 2/(3*4) = 1/6; trapezoid error contracts by 4x
        errs = []
        for m in (33, 65, 129):
            mesh = Mesh(m)
            cone = GridFunction(mesh, 1.0 - np.abs(mesh.nodes))
            errs.append(abs(modular_LG(cone, power3) - 1.0 / 6.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


class TestLuxemburgGauge:
    def test_constant_closed_form(self, power4):
        # rho(u/lam) = 2 (1/lam)^4 / 4 = 1 at lam = (1/2)^{1/4}
        one = GridFunction(Mesh(33), np.ones(33))
        assert luxemburg_norm_LG(one, power4) == pytest.approx(0.5 ** 0.25, rel=1e-9)

    def test_homogeneity(self, power4):
        mesh = Mesh(33)
        u = GridFunction(mesh, np.cos(mesh.nodes))
        base = luxemburg_norm_LG(u, power4)
        scaled = luxemburg_norm_LG(GridFunction(mesh, 3.0 * u.values), power4)
        assert scaled == pytest.approx(3.0 * base, rel=1e-9)

    def test_unit_ball_characterization(self, dp34):
        # modular of u / ||u|| equals one, and the two-branch power bounds
        # min/max(lam^{p-}, lam^{p+}) sandwich the modular
        mesh = Mesh(33)
        u = GridFunction(mesh, 1.0 - mesh.nodes ** 2)
        norm = luxemburg_norm_LG(u, dp34)
        unit = GridFunction(mesh, u.values / norm)
        assert modular_LG(unit, dp34) == pytest.approx(1.0, abs=1e-6)
        rho = modular_LG(u, dp34)
        lo = min(norm ** dp34.p_minus, norm ** dp34.p_plus)
        hi = max(norm ** dp34.p_minus, norm ** dp34.p_plus)
        assert lo - 1e-6 <= rho <= hi + 1e-6

    def test_duality_bound(self, power4):
        # |int u v| <= 2 ||u||_G ||v||_Gbar; empirical worst ratio ~0.61.
        # The conjugate of t^4/4 is t^{4/3}/(4/3), so its gauge is explicit.
        mesh = Mesh(33)
        rng = np.random.default_rng(3)
        pc = 4.0 / 3.0
        assert eval_Gbar(power4, 1.0) == pytest.approx(1.0 / pc, rel=1e-9)

        def gauge_bar(v):
            rho1 = float(np.sum(mesh.weights * np.abs(v.values) ** pc / pc))
            return rho1 ** (1.0 / pc)

        worst = 0.0
        for _ in range(15):
            u = GridFunction(mesh, rng.normal(size=mesh.m))
            v = GridFunction(mesh, rng.normal(size=mesh.m))
            lhs = abs(float(np.sum(mesh.weights * u.values * v.values)))
            worst = max(worst, lhs / (luxemburg_norm_LG(u, power4) * gauge_bar(v)))
        assert worst <= 2.0


class TestNonlocalModular:
    def test_boundary_values_must_vanish(self, power4):
        mesh = Mesh(33)
        u = GridFunction(mesh, np.ones(mesh.m))
        with pytest.raises(DomainError):
            modular_W(OperatorConfig(power4, 0.3), u)

    def test_parts_sum_to_total(self, power4):
        mesh = Mesh(33)
        bump = GridFunction(mesh, 1.0 - mesh.nodes ** 2)
        parts = modular_W_parts(OperatorConfig(power4, 0.3), bump)
        assert parts["total"] == pytest.approx(
            parts["far"] + parts["band"] + parts["strip"], rel=1e-12)
        assert parts["total"] == modular_W(OperatorConfig(power4, 0.3), bump)

    def test_cone_refinement(self, power4):
        coarse = Mesh(33)
        dense = Mesh(257)
        cfg = OperatorConfig(power4, 0.3)
        vals = [modular_W(cfg, GridFunction(m, 1.0 - np.abs(m.nodes)))
                for m in (coarse, dense)]
        assert vals[0] == pytest.approx(vals[1], rel=0.02)

    def test_families_share_one_discretization(self, power4):
        # the cache keys on (m, s) alone, so a second family at the same
        # mesh size and order reuses the first one's entry
        mesh = Mesh(37)
        bump = GridFunction(mesh, 1.0 - mesh.nodes ** 2)
        misses = _discretization.cache_info().misses
        for yf in (power4, PowerYoung(6.0)):
            modular_W(OperatorConfig(yf, 0.3), bump)
        assert _discretization.cache_info().misses - misses == 1


class TestToeplitzKernels:
    """The far-pair kernels depend on the index offset alone and are stored
    as one vector each; the end nodes' half weights come in where the far
    terms are formed."""

    @staticmethod
    def weighted(disc):
        return disc.ds, orlicz._halve_boundary(np.array(disc.kr), rows=True)

    @pytest.mark.parametrize("m", [33, 65, 129, 257, 513])
    def test_views_are_the_dense_kernels(self, m):
        # on 2^k + 1 meshes the node differences are exactly d h
        ds, kr = self.weighted(_discretization(m, 0.3))
        dense_ds, dense_kr = dense_far_kernels(Mesh(m), 0.3)
        assert np.array_equal(ds, dense_ds)
        assert np.array_equal(kr, dense_kr)

    def test_non_dyadic_mesh_within_ulps(self):
        # h = 2/99 is no binary fraction: linspace rounds each node, and
        # x_i - x_j near the ends carries that rounding relative to d h
        # (10 ulp in ds and 46 in kr measured)
        ds, kr = self.weighted(_discretization(100, 0.3))
        dense_ds, dense_kr = dense_far_kernels(Mesh(100), 0.3)
        assert np.all(np.abs(ds - dense_ds) <= 64 * np.spacing(dense_ds))
        assert np.all(np.abs(kr - dense_kr) <= 64 * np.spacing(dense_kr))
        assert np.array_equal(kr == 0.0, dense_kr == 0.0)

    def test_build_holds_no_square_array(self):
        # O(m) storage: two m x m arrays would be 64 MiB here
        build = _discretization.__wrapped__
        assert traced_peak(lambda: build(2049, 0.3)) < 2 ** 20


class TestNonlocalSeminorm:
    def test_homogeneity(self, power4):
        mesh = Mesh(33)
        u = GridFunction(mesh, 1.0 - mesh.nodes ** 2)
        cfg = OperatorConfig(power4, 0.3)
        base = luxemburg_seminorm_W(cfg, u)
        scaled = luxemburg_seminorm_W(cfg, GridFunction(mesh, 2.5 * u.values))
        assert scaled == pytest.approx(2.5 * base, rel=1e-8)

    def test_poincare_ratio_stable(self, power4):
        # local gauge is controlled by the nonlocal one on a corpus of
        # sine series; bound and mesh-stability of the worst ratio
        worst = {}
        for m in (33, 65):
            mesh = Mesh(m)
            rs = [luxemburg_norm_LG(u, power4)
                  / luxemburg_seminorm_W(OperatorConfig(power4, 0.3), u)
                  for u in sine_corpus(mesh, 20)]
            worst[m] = max(rs)
        assert worst[33] <= 1.0
        assert worst[33] == pytest.approx(worst[65], rel=0.10)

    def test_bisection_survives_overflow(self):
        # for a pure power the gauge is W(u)^(1/p); with p = 60 scales far
        # below it overflow G, on near pairs as well as far ones, and the
        # gauge must still come out right
        cfg = OperatorConfig(PowerYoung(60.0), 0.3)
        mesh = Mesh(17)
        u = GridFunction(mesh, 1.0 - mesh.nodes ** 2)
        with np.errstate(over="ignore", invalid="ignore"):
            tiny = GridFunction(mesh, u.values / 1e-6)
            assert not np.isfinite(modular_W(cfg, tiny))
            got = luxemburg_seminorm_W(cfg, u)
        assert got == pytest.approx(modular_W(cfg, u) ** (1.0 / 60.0), rel=1e-8)



def tilted_bump(mesh, scale=1.0):
    inner = 1.0 - mesh.nodes ** 2
    return GridFunction(mesh, scale * inner * (1.0 + 0.5 * mesh.nodes))


class TestGaugeInverter:
    """Both gauges invert the modular along u's ray with the growth-window
    inverter: pure powers in closed form, the rest to rounding level, in a
    handful of modular evaluations, and exactly homogeneous."""

    @pytest.mark.parametrize("p", [4.0, 60.0])
    def test_power_seminorm_closed_form(self, p):
        # rho(u/lam) = W(u) lam^(-p) for a pure power
        cfg = OperatorConfig(PowerYoung(p), 0.3)
        u = tilted_bump(Mesh(33))
        assert luxemburg_seminorm_W(cfg, u) == pytest.approx(
            modular_W(cfg, u) ** (1.0 / p), rel=1e-12)

    @pytest.mark.parametrize("name", ["dp34", "log221"])
    def test_unit_modular_at_the_gauge(self, name, request):
        yf = request.getfixturevalue(name)
        cfg = OperatorConfig(yf, 0.3)
        mesh = Mesh(33)
        for u in (tilted_bump(mesh), tilted_bump(mesh, 40.0)):
            lam = luxemburg_norm_LG(u, yf)
            unit = GridFunction(mesh, u.values / lam)
            assert modular_LG(unit, yf) == pytest.approx(1.0, abs=1e-12)
            lam = luxemburg_seminorm_W(cfg, u)
            unit = GridFunction(mesh, u.values / lam)
            assert modular_W(cfg, unit) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("c", [1e-14, 1.0, 1e14])
    def test_exact_scaling(self, families, c):
        mesh = Mesh(33)
        u, cu = tilted_bump(mesh), tilted_bump(mesh, c)
        for yf in families:
            cfg = OperatorConfig(yf, 0.3)
            assert luxemburg_norm_LG(cu, yf) == pytest.approx(
                c * luxemburg_norm_LG(u, yf), rel=1e-13, abs=0.0)
            assert luxemburg_seminorm_W(cfg, cu) == pytest.approx(
                c * luxemburg_seminorm_W(cfg, u), rel=1e-13, abs=0.0)

    def test_zero_function_has_zero_gauge(self, power4):
        zero = GridFunction.zeros(Mesh(17))
        assert luxemburg_norm_LG(zero, power4) == 0.0
        assert luxemburg_seminorm_W(OperatorConfig(power4, 0.3), zero) == 0.0

    def test_few_modular_evaluations(self, families, monkeypatch):
        calls = {}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(module, name, counted)

        counting(oracles, "modular_LG")
        counting(orlicz, "modular_W")
        mesh = Mesh(33)
        for yf in families:
            for u in (tilted_bump(mesh), tilted_bump(mesh, 1e3)):
                calls.update(modular_LG=0, modular_W=0)
                luxemburg_norm_LG(u, yf)
                luxemburg_seminorm_W(OperatorConfig(yf, 0.3), u)
                assert 1 <= calls["modular_LG"] <= 6, (yf.label, calls)
                assert 1 <= calls["modular_W"] <= 6, (yf.label, calls)
