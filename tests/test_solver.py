"""Solve pipeline: the auxiliary monotone problem, the frozen-coefficient
fixed point, the stage scheme, barriers, and the report diagnostics."""

import numpy as np
import pytest

import fglap.solver as solver
from fglap.errors import ConfigurationError, ConvergenceError, DomainError
from fglap.fractional import apply_interior, residual, weak_form
from fglap.orlicz import GridFunction, Mesh, OperatorConfig
from fglap.solver import (
    ProblemData,
    barrier_check,
    boundary_energy_report,
    fixed_point_S,
    holder_exponent_fit,
    monotone_scheme,
    solve_auxiliary,
)
from fglap.young import LogTypeYoung, PowerYoung

from conftest import stalled_matrix


@pytest.fixture(scope="module")
def cfg(power4_module):
    return OperatorConfig(young=power4_module, s=0.3)


@pytest.fixture(scope="module")
def power4_module():
    return PowerYoung(4.0)


def unit_data(mesh, q=0.5, case="main1", **kw):
    return ProblemData(f=GridFunction(mesh, np.ones(mesh.m)),
                       q=GridFunction(mesh, np.full(mesh.m, float(q))),
                       case=case, **kw)


class TestProblemData:
    def test_case_names(self, mesh33):
        with pytest.raises(ConfigurationError):
            unit_data(mesh33, case="main3")

    def test_sign_constraints(self, mesh33):
        f = GridFunction(mesh33, -np.ones(mesh33.m))
        q = GridFunction(mesh33, np.full(mesh33.m, 0.5))
        with pytest.raises(ConfigurationError):
            ProblemData(f=f, q=q)

    def test_mesh_agreement(self, mesh33, mesh65):
        f = GridFunction(mesh33, np.ones(mesh33.m))
        q = GridFunction(mesh65, np.full(mesh65.m, 0.5))
        with pytest.raises(ConfigurationError):
            ProblemData(f=f, q=q)

    def test_main1_strip_bound(self, mesh33):
        # q = 1.5 near the boundary is not a main1 configuration
        with pytest.raises(ConfigurationError):
            unit_data(mesh33, q=1.5)

    def test_main2_needs_q_star(self, mesh33):
        with pytest.raises(ConfigurationError):
            unit_data(mesh33, q=1.5, case="main2")
        unit_data(mesh33, q=1.5, case="main2", q_star=2.0)

    def test_main2_strip_bound(self, mesh33):
        with pytest.raises(ConfigurationError):
            unit_data(mesh33, q=2.5, case="main2", q_star=2.0)

    def test_interior_singularity_allowed_in_main1(self, mesh33):
        # large q is fine strictly inside; the strip constraint is local
        qv = np.where(np.abs(mesh33.nodes) < 0.5, 3.0, 0.5)
        ProblemData(f=GridFunction(mesh33, np.ones(mesh33.m)),
                    q=GridFunction(mesh33, qv))

    def test_truncated_load(self, mesh33):
        data = unit_data(mesh33)
        data.f.values[:] = 7.0
        assert np.all(data.truncated_load(4) == 4.0)
        assert np.all(data.truncated_load(16) == 7.0)

    def test_singular_rhs_formula(self, mesh33):
        data = unit_data(mesh33, q=0.5)
        u = GridFunction(mesh33, np.full(mesh33.m, 3.0))
        got = data.singular_rhs(u, 4)
        want = 1.0 * (3.0 + 0.25) ** -0.5
        assert np.allclose(got, want, rtol=1e-14)


class TestAuxiliary:
    def test_zero_load(self, cfg, mesh33):
        u, stats = solve_auxiliary(cfg, mesh33, np.zeros(mesh33.m))
        assert u.sup_norm() == 0.0

    def test_negative_load_rejected(self, cfg, mesh33):
        rhs = np.full(mesh33.m, -1.0)
        with pytest.raises(DomainError):
            solve_auxiliary(cfg, mesh33, rhs)

    def test_power_homogeneity(self, cfg, mesh33):
        # A(t u) = t^{p-1} A(u) for the pure power family, so scaling the
        # load by 8 = 2^3 doubles the solution
        u1, _ = solve_auxiliary(cfg, mesh33, np.ones(mesh33.m))
        u2, _ = solve_auxiliary(cfg, mesh33, 8.0 * np.ones(mesh33.m))
        assert np.max(np.abs(u2.values - 2.0 * u1.values)) <= 1e-6

    def test_residual_small_and_perturbation_grows(self, cfg, mesh33):
        rhs = np.ones(mesh33.m)
        u, stats = solve_auxiliary(cfg, mesh33, rhs)
        res = np.abs(residual(cfg, u, rhs).values)
        assert res.max() <= 1e-7
        assert res.max() == pytest.approx(stats["residual_sup"], rel=1e-9)
        bumped = u.values.copy()
        bumped[mesh33.m // 2] += 0.1
        res2 = np.abs(residual(cfg, GridFunction(mesh33, bumped), rhs).values)
        assert res2.max() > 10.0 * res.max()

    def test_strong_form_half_of_load(self, cfg, mesh33):
        # the pairing identity <A u, hat_i> = 2 w_i (strong value) turns
        # the weak equation into strong = rhs/2 at interior nodes
        rhs = np.ones(mesh33.m)
        u, _ = solve_auxiliary(cfg, mesh33, rhs)
        inner = np.abs(mesh33.nodes[1:-1]) < 0.8  # away from kink effects
        got = apply_interior(cfg, u)[inner]
        assert np.max(np.abs(got - 0.5)) < 0.05

    def test_solution_positive_inside(self, cfg, mesh33):
        u, _ = solve_auxiliary(cfg, mesh33, np.ones(mesh33.m))
        assert np.all(u.values[1:-1] > 0.0)
        assert u.values[0] == 0.0 and u.values[-1] == 0.0

    def test_refinement_agreement(self, cfg, mesh33, mesh65):
        ua, _ = solve_auxiliary(cfg, mesh33, np.ones(mesh33.m))
        ub, _ = solve_auxiliary(cfg, mesh65, np.ones(mesh65.m))
        idx = mesh33.coarse_index_in(mesh65)
        rel = np.max(np.abs(ua.values - ub.values[idx])) / ub.sup_norm()
        assert rel <= 0.02

    def test_energy_identity(self, cfg, mesh33):
        # at the discrete solution the self-pairing equals the loaded
        # integral exactly (the solution is its own nodal test function),
        # up to the Newton residual
        rhs = np.ones(mesh33.m)
        u, _ = solve_auxiliary(cfg, mesh33, rhs)
        lhs = weak_form(cfg, u, u)
        rhs_pair = float(np.sum(mesh33.weights * rhs * u.values))
        assert lhs == pytest.approx(rhs_pair, rel=1e-6)

    def test_iteration_cap(self, cfg, mesh33):
        with pytest.raises(ConvergenceError):
            solve_auxiliary(cfg, mesh33, np.ones(mesh33.m), max_iter=1)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_iteration_cap_below_one_rejected(self, cfg, mesh33, max_iter):
        with pytest.raises(ConfigurationError, match="max_iter"):
            solve_auxiliary(cfg, mesh33, np.ones(mesh33.m), max_iter=max_iter)

    def test_nan_load_rejected(self, cfg, mesh33):
        rhs = np.ones(mesh33.m)
        rhs[5] = np.nan
        with pytest.raises(DomainError, match="load"):
            solve_auxiliary(cfg, mesh33, rhs)

    @pytest.mark.parametrize("height", [0.0, 1.0])
    def test_warm_start_on_other_mesh_rejected(self, cfg, mesh33, mesh65, height):
        warm = GridFunction(mesh65, height * (1.0 - mesh65.nodes ** 2))
        with pytest.raises(ConfigurationError, match=r"65 nodes.*33"):
            solve_auxiliary(cfg, mesh33, np.ones(mesh33.m), warm_start=warm)


class TestFixedPoint:
    def test_zero_exponent_reduces_to_auxiliary(self, cfg, mesh33):
        data = unit_data(mesh33, q=0.0)
        u, stats = fixed_point_S(cfg, data, 4)
        ua, _ = solve_auxiliary(cfg, mesh33, np.ones(mesh33.m))
        assert np.max(np.abs(u.values - ua.values)) == 0.0
        assert stats["iterations"] <= 3

    def test_zero_load(self, cfg, mesh33):
        data = ProblemData(f=GridFunction.zeros(mesh33),
                           q=GridFunction(mesh33, np.full(mesh33.m, 0.5)))
        u, _ = fixed_point_S(cfg, data, 4)
        assert u.sup_norm() == 0.0

    def test_solves_regularized_equation(self, cfg, mesh33):
        data = unit_data(mesh33)
        n = 4
        u, stats = fixed_point_S(cfg, data, n)
        rhs = data.singular_rhs(u, n)
        res = np.abs(residual(cfg, u, rhs).values)
        assert res.max() <= 1e-6

    def test_stats_contract(self, cfg, mesh33):
        _, stats = fixed_point_S(cfg, unit_data(mesh33), 2)
        assert {"iterations", "last_diff", "residual_sup"} <= set(stats)


@pytest.fixture(scope="module")
def report(cfg, mesh33):
    return monotone_scheme(cfg, unit_data(mesh33), mesh=mesh33,
                           n_schedule=(1, 2, 4, 8))


class TestScheme:
    def test_stagewise_monotone(self, report):
        for a, b in zip(report.solutions, report.solutions[1:]):
            assert float((b.values - a.values).min()) >= -1e-7

    def test_even_symmetry(self, report):
        assert report.final.is_even(tol=1e-8)

    def test_middle_floor_positive(self, report):
        assert report.l_middle > 0.0
        mid = report.final.values[report.mesh.middle_half()]
        assert report.l_middle == pytest.approx(float(mid.min()), rel=1e-12)

    def test_energies_recorded(self, report):
        assert len(report.energies) == len(report.n_values) == 4
        assert all(e > 0.0 for e in report.energies)
        assert report.energy_case == "main1"

    def test_alpha_estimate(self, report):
        assert 0.0 < report.alpha_hat <= 1.0
        assert report.holder_seminorm > 0.0

    def test_diffs_shrink(self, report):
        assert report.sup_diffs[-1] < report.sup_diffs[0]

    def test_monotone_in_load(self, cfg, mesh33):
        small = monotone_scheme(cfg, unit_data(mesh33), mesh=mesh33,
                                n_schedule=(1, 2, 4))
        data_big = ProblemData(f=GridFunction(mesh33, 1.2 * np.ones(mesh33.m)),
                               q=GridFunction(mesh33, np.full(mesh33.m, 0.5)))
        big = monotone_scheme(cfg, data_big, mesh=mesh33, n_schedule=(1, 2, 4))
        gap = big.final.values - small.final.values
        assert float(gap.min()) >= -1e-9

    def test_schedule_starts_at_one(self, cfg, mesh33):
        # n = 0 would divide by zero in the truncated load (t + 1/n)^(-q)
        with pytest.raises(ConfigurationError):
            monotone_scheme(cfg, unit_data(mesh33), mesh=mesh33, n_schedule=(0, 1))


class TestCoupledStages:
    @pytest.mark.parametrize("p,s", [(40.0, 0.5), (20.0, 0.1)])
    def test_steep_power_auxiliary(self, p, s):
        mesh = Mesh(17)
        cfg = OperatorConfig(young=PowerYoung(p), s=s)
        rhs = np.ones(mesh.m)
        u, stats = solve_auxiliary(cfg, mesh, rhs)
        # the default tolerance, 1e-8 (1 + max rhs)
        assert float(np.max(np.abs(residual(cfg, u, rhs).values))) <= 2e-8
        assert stats["residual_sup"] <= 2e-8

    def test_overflowing_trial_rejected(self):
        # the first full Newton step from the cone overshoots by ~5e7 and
        # g = t^39 overflows there; that trial must count as a failed one
        mesh = Mesh(17)
        cfg = OperatorConfig(young=PowerYoung(40.0), s=0.1)
        rhs = np.random.default_rng(5122).uniform(0.1, 2.0, mesh.m)
        u, stats = solve_auxiliary(cfg, mesh, rhs)
        assert stats["residual_sup"] <= 1e-8 * (1.0 + rhs.max())
        assert np.all(u.values[1:-1] > 0.0)
        assert stats["line_search_backtracks"] >= 1

    @pytest.mark.parametrize("yf,s", [(PowerYoung(20.0), 0.1),
                                      (PowerYoung(40.0), 0.3),
                                      (LogTypeYoung(30.0, 2.0, 1.0), 0.3)])
    def test_steep_families_complete(self, yf, s, mesh33):
        report = monotone_scheme(OperatorConfig(young=yf, s=s),
                                 unit_data(mesh33), mesh=mesh33,
                                 n_schedule=(1, 2, 4, 8))
        assert report.n_values == [1, 2, 4, 8]
        # stage rhs is at most f n^q = 8^0.5, which bounds the tolerance
        assert all(r <= 1e-8 * (1.0 + 8.0 ** 0.5) for r in report.residual_sups)

    def test_stages_match_fixed_point_oracle(self, families, mesh33):
        # the coupled Newton stage and the paper's frozen-term iteration
        # solve the same truncated problem
        data = unit_data(mesh33)
        for yf in families:
            cfg = OperatorConfig(young=yf, s=0.3)
            report = monotone_scheme(cfg, data, mesh=mesh33,
                                     n_schedule=(1, 2, 4, 8))
            for n, u in zip(report.n_values, report.solutions):
                u_fp, _ = fixed_point_S(cfg, data, n)
                assert np.max(np.abs(u.values - u_fp.values)) <= 1e-6, (yf, n)

    def test_failure_names_the_stage(self, cfg, monkeypatch):
        mesh = Mesh(17)
        monkeypatch.setattr(solver, "assemble_matrix", stalled_matrix)
        with pytest.raises(ConvergenceError, match=r"^stage n = 3 \(m = 17\) exhausted"):
            monotone_scheme(cfg, unit_data(mesh), mesh=mesh, n_schedule=(3, 6))
        with pytest.raises(ConvergenceError, match=r"^auxiliary solve exhausted"):
            solve_auxiliary(cfg, mesh, np.ones(mesh.m))


class TestConeSeed:
    @pytest.mark.parametrize("name", ["power4", "dp34", "log221"])
    def test_seed_solves_summed_equation(self, name, request, mesh33):
        # the seed's scale solves sum A(t cone) = sum w rhs to 1e-3 in t,
        # so the summed residual is off by at most ~(p_plus - 1) 1e-3
        yf = request.getfixturevalue(name)
        cfg = OperatorConfig(young=yf, s=0.3)
        rhs = np.random.default_rng(3).uniform(0.1, 2.0, mesh33.m)
        u0, evaluations = solver._seed_from_cone(cfg, mesh33, rhs, "seed")
        total = float(np.sum(residual(cfg, GridFunction(mesh33, u0), rhs).values))
        load = float(np.sum(mesh33.weights[1:-1] * rhs[1:-1]))
        assert abs(total) <= 1e-3 * (yf.p_plus - 1.0) * load
        assert 2 <= evaluations <= 6

    def test_stats_count_seed_evaluations(self, cfg, mesh33):
        rhs = np.random.default_rng(4).uniform(0.1, 2.0, mesh33.m)
        u, cold = solve_auxiliary(cfg, mesh33, rhs)
        _, warm = solve_auxiliary(cfg, mesh33, rhs, warm_start=u)
        _, zero = solve_auxiliary(cfg, mesh33, np.zeros(mesh33.m))
        assert cold["seed_evaluations"] >= 2
        assert warm["seed_evaluations"] == 0 and zero["seed_evaluations"] == 0

    def test_only_the_first_stage_is_seeded(self, report):
        assert report.seed_evaluations[0] >= 2
        assert report.seed_evaluations[1:] == [0] * (len(report.n_values) - 1)


def count_residuals(monkeypatch):
    """Wrap the solver's residual: count its calls and record, per
    `_newton` call, every (u, rhs) it ran on that was already seen there."""
    calls, repeats, seen = [0], [], set()
    residual_, newton_ = solver.residual, solver._newton

    def counted(cfg, u, rhs):
        calls[0] += 1
        key = (u.values.tobytes(), np.asarray(rhs, dtype=float).tobytes())
        if key in seen:
            repeats.append(key)
        seen.add(key)
        return residual_(cfg, u, rhs)

    def scoped(*args, **kw):
        seen.clear()
        return newton_(*args, **kw)

    monkeypatch.setattr(solver, "residual", counted)
    monkeypatch.setattr(solver, "_newton", scoped)
    return calls, repeats


class TestNewtonCounters:
    def test_residual_evaluations_count_every_call(self, cfg, mesh33, monkeypatch):
        calls, _ = count_residuals(monkeypatch)
        rhs = np.random.default_rng(4).uniform(0.1, 2.0, mesh33.m)
        u, cold = solve_auxiliary(cfg, mesh33, rhs)
        assert cold["residual_evaluations"] == calls[0]
        # the first evaluation, then one per trial, accepted or rejected
        assert cold["residual_evaluations"] == (
            cold["seed_evaluations"] + 1 + cold["iterations"]
            + cold["line_search_backtracks"])
        before = calls[0]
        _, warm = solve_auxiliary(cfg, mesh33, 1.01 * rhs, warm_start=u)
        assert warm["seed_evaluations"] == 0
        assert warm["residual_evaluations"] == calls[0] - before >= 2

    def test_no_residual_repeated_in_a_cold_solve(self, cfg, mesh33, monkeypatch):
        calls, repeats = count_residuals(monkeypatch)
        solve_auxiliary(cfg, mesh33, np.ones(mesh33.m))
        assert calls[0] > 0 and repeats == []

    def test_no_residual_repeated_in_a_scheme(self, cfg, mesh33, monkeypatch):
        calls, repeats = count_residuals(monkeypatch)
        report = monotone_scheme(cfg, unit_data(mesh33), mesh=mesh33,
                                 n_schedule=(1, 2, 4))
        assert len(report.n_values) == 3
        assert calls[0] == sum(report.residual_evaluations)
        assert repeats == []

    def test_stage_counters_recorded(self, report):
        stages = len(report.n_values)
        assert len(report.residual_evaluations) == stages
        assert len(report.line_search_backtracks) == stages
        assert len(report.levenberg_shift_max) == stages
        assert all(r >= 1 + k for r, k in zip(report.residual_evaluations,
                                              report.stage_iterations))
        assert all(lam >= 0.0 for lam in report.levenberg_shift_max)


class TestBarrier:
    def test_power_scaling_ratio(self, cfg, mesh33):
        vals = barrier_check(cfg, mesh33)
        for a, b in zip(vals, vals[1:]):
            assert b / a == pytest.approx(8.0, rel=1e-12)

    def test_positive_and_increasing_for_reference_families(self, families, mesh33):
        for yf in families:
            vals = barrier_check(OperatorConfig(young=yf, s=0.3), mesh33)
            assert vals[0] > 0.0, yf
            assert all(b > a for a, b in zip(vals, vals[1:])), (yf, vals)

    def test_profile_is_boundary_distance_power(self, cfg, mesh33):
        d_s = GridFunction(mesh33, 2.0 * (1.0 - mesh33.nodes ** 2) ** cfg.s)
        assert barrier_check(cfg, mesh33, alphas=(2.0,)) == [
            float(apply_interior(cfg, d_s).min())]

    def test_positive_scales_required(self, cfg, mesh33):
        with pytest.raises(ConfigurationError):
            barrier_check(cfg, mesh33, alphas=(2.0, -4.0))


class TestDiagnostics:
    def test_boundary_energy_zero_load(self, cfg, mesh33):
        data = ProblemData(f=GridFunction.zeros(mesh33),
                           q=GridFunction(mesh33, np.full(mesh33.m, 0.5)))
        report = monotone_scheme(cfg, data, mesh=mesh33, n_schedule=(1, 2))
        out = boundary_energy_report(report, data)
        assert out["case"] == "main1"
        assert all(e == 0.0 for e in out["energies"])
        assert out["bounded"] is True

    def test_boundary_energy_main2(self, cfg, mesh33):
        data = unit_data(mesh33, q=1.5, case="main2", q_star=2.0)
        report = monotone_scheme(cfg, data, mesh=mesh33, n_schedule=(1, 2, 4))
        out = boundary_energy_report(report, data)
        assert out["case"] == "main2"
        assert len(out["energies"]) == 3
        assert out["bounded"] is True
        assert out["reference"] > 0.0

    def test_report_without_cfg_rejected(self, cfg, mesh33):
        from fglap.solver import SolveReport
        bare = SolveReport(mesh=mesh33)
        with pytest.raises(ConfigurationError):
            boundary_energy_report(bare, unit_data(mesh33))

    def test_holder_fit_closed_forms(self, mesh33):
        allw = np.ones(mesh33.m, bool)
        sqrt_cone = GridFunction(mesh33, np.sqrt(1.0 - np.abs(mesh33.nodes)))
        alpha, semi = holder_exponent_fit(sqrt_cone, window=allw)
        assert alpha == pytest.approx(0.5, abs=1e-12)
        assert semi == pytest.approx(1.0, rel=1e-10)
        lin = GridFunction(mesh33, 1.0 - np.abs(mesh33.nodes))
        alpha, semi = holder_exponent_fit(lin, window=allw)
        assert alpha == pytest.approx(1.0, abs=1e-12)
