"""Randomized inequality battery: determinism, pass behavior on the
reference families, and the one structurally expected failure."""

import numpy as np
import pytest

import fglap.checks as checks
from fglap.checks import (
    CheckOutcome,
    check_comparison,
    check_delta2,
    check_gdiff,
    check_lindqvist,
    check_phi_mvt,
    check_rpower,
    lindqvist_constant,
    run_check_suite,
)
from fglap.orlicz import GridFunction, OperatorConfig
from fglap.solver import solve_auxiliary
from fglap.young import PhiWeight

# exponent budgets under which each family's tail domination holds inside
# the scanned window; the double-power family needs the smaller budget
Q_STAR = {"power": 2.0, "double-power": 1.5, "log-type": 2.0}


class TestOutcomeSemantics:
    def test_pass_is_margin_above_minus_tol(self):
        ok = CheckOutcome(name="x", family="f", n_samples=10,
                          worst_margin=-0.5e-9, tolerance=1e-9,
                          offending={"t": 1.0})
        assert ok.passed and ok.offending is None
        bad = CheckOutcome(name="x", family="f", n_samples=10,
                           worst_margin=-2e-9, tolerance=1e-9,
                           offending={"t": 1.0})
        assert not bad.passed and bad.offending == {"t": 1.0}

    def test_str_shape(self):
        out = CheckOutcome(name="delta2", family="power(p=4)", n_samples=5,
                           worst_margin=1e-3, tolerance=1e-9)
        s = str(out)
        assert "delta2[power(p=4)]" in s and "pass" in s


class TestDeterminism:
    def test_same_seed_same_margins(self, power4):
        a = check_delta2(power4, seed=123)
        b = check_delta2(power4, seed=123)
        assert a.worst_margin == b.worst_margin

    def test_different_seed_moves_margin(self, power4):
        a = check_lindqvist(power4, seed=1)
        b = check_lindqvist(power4, seed=2)
        assert a.worst_margin != b.worst_margin

    def test_streams_independent_of_call_order(self, power4):
        first = check_gdiff(power4, seed=9).worst_margin
        check_delta2(power4, seed=9)
        again = check_gdiff(power4, seed=9).worst_margin
        assert first == again

    def test_golden_draws(self):
        # random.Random(seed * 8 + stream).random(): CPython keeps this
        # sequence across versions, so a change of generator fails here
        # instead of silently moving every margin
        draws = checks._Stream(checks.DEFAULT_SEED, "delta2").random(3)
        assert draws.tolist() == [0.6029565651232481, 0.8023230376607875,
                                  0.6845667888612859]

    def test_uniform_scales_each_draw(self):
        # uniform(lo, hi) is lo + (hi - lo) * random(), with one draw per
        # entry of an array hi, as the mean-value check asks
        hi = np.array([1.0, 2.0, 4.0])
        u = checks._Stream(3, "phi_mvt").random(5)
        rng = checks._Stream(3, "phi_mvt")
        np.testing.assert_array_equal(rng.uniform(0.5, hi), 0.5 + (hi - 0.5) * u[:3])
        np.testing.assert_array_equal(rng.uniform(-1.0, 1.0, 2), -1.0 + 2.0 * u[3:])


class TestSuitePasses:
    def test_all_families(self, families):
        for yf in families:
            outcomes = run_check_suite(yf, q_star=Q_STAR[yf.family_tag])
            assert len(outcomes) == 6
            for out in outcomes:
                assert out.passed, str(out)

    def test_one_sample_count(self, power4):
        # every sampled check, and the tail check's ladder, has SAMPLES points
        assert checks.SAMPLES == 1000
        assert {out.n_samples for out in run_check_suite(power4)} == {1000}

    def test_lindqvist_constant_value(self, power4):
        # min(1/2, 2^{-p+} / (2 p-)) = min(1/2, 1/128)
        assert lindqvist_constant(power4) == pytest.approx(1.0 / 128.0)

    def test_lindqvist_worked_example(self, power4):
        # pair (-1, 1): G''-free bound gives lhs = g(1)-g(-1) paired at 4,
        # rhs = G(2)/128 = 1/32
        cl = lindqvist_constant(power4)
        lhs = (power4.g(1.0) - power4.g(-1.0)) * (1.0 - (-1.0)) / 2.0 * 2.0
        rhs = cl * power4.G(2.0)
        assert lhs == pytest.approx(4.0) and rhs == pytest.approx(1.0 / 32.0)
        assert lhs >= rhs


class TestPhiMvt:
    def test_passes_on_power(self, power4):
        out = check_phi_mvt(PhiWeight(power4, 2.0))
        assert out.passed
        assert out.info["constant"] == pytest.approx(0.8, abs=1e-9)


class TestRpower:
    def test_power_exact_margin(self, power4):
        out = check_rpower(PhiWeight(power4, 2.0))
        # power case is exact: lhs = t^{1/r} = phi(t)/r, margin 1/2
        assert out.passed
        assert out.info["t0"] == 1.0
        assert out.worst_margin == pytest.approx(0.5, rel=1e-9)

    def test_detects_structural_failure(self, dp34):
        # with the larger exponent budget the tail bound genuinely fails
        # inside the scan window and the failure reaches its end
        out = check_rpower(PhiWeight(dp34, 2.0))
        assert not out.passed
        assert out.info["t0"] == float("inf")
        assert out.offending is not None
        assert out.offending["t"] == pytest.approx(1e6, rel=1e-9)

    def test_smaller_budget_restores_it(self, dp34):
        out = check_rpower(PhiWeight(dp34, 1.5))
        assert out.passed

    def test_log_type_in_window(self, log221):
        out = check_rpower(PhiWeight(log221, 2.0))
        assert out.passed
        assert out.worst_margin == pytest.approx(0.233, abs=0.01)


class TestComparison:
    def test_ordered_pairs_and_doubling(self, power4, mesh33):
        cfg = OperatorConfig(young=power4, s=0.3)
        out = check_comparison(cfg, mesh33)
        assert out.passed
        assert out.n_samples == 20

    def test_margin_is_the_interior_slack(self, power4, mesh33):
        # the end nodes are zero in both solutions and would pin it at 0
        out = check_comparison(OperatorConfig(young=power4, s=0.3), mesh33)
        assert out.worst_margin > 0.0

    def test_determinism(self, power4, mesh33):
        cfg = OperatorConfig(young=power4, s=0.3)
        a = check_comparison(cfg, mesh33, seed=5)
        b = check_comparison(cfg, mesh33, seed=5)
        assert a.worst_margin == b.worst_margin

    def test_doubling_that_fails_to_scale(self, power4, mesh33, monkeypatch):
        # the doubled load's solution comes back 1e-3 too large, far beyond
        # the 1e-6 bound, so the drift becomes the worst margin
        cfg = OperatorConfig(young=power4, s=0.3)
        solutions = []

        def skewed(cfg, mesh, rhs, *, warm_start=None):
            u, stats = solve_auxiliary(cfg, mesh, rhs, warm_start=warm_start)
            if len(solutions) == 2 * checks.COMPARISON_TRIALS + 1:
                u = GridFunction(mesh, (1.0 + 1e-3) * u.values)
            solutions.append(u)
            return u, stats

        monkeypatch.setattr(checks, "solve_auxiliary", skewed)
        out = check_comparison(cfg, mesh33)
        u, v = solutions[-2:]
        scale = 2.0 ** (1.0 / (power4.p_minus - 1.0))
        drift = float(np.max(np.abs(v.values - scale * u.values)))
        assert drift > 1e-6 and out.info["doubling_drift"] == drift
        assert not out.passed
        assert out.worst_margin == -drift
        assert out.offending == {"doubling_drift": drift}

    @pytest.mark.parametrize("name", ["power4", "log221"])
    def test_one_warm_chain(self, name, request, mesh33, monkeypatch):
        # each solve starts from the one before, so only the first is seeded
        # from the cone. A start moves a solution within the Newton
        # tolerance: a pair's smaller-load solution is within 1e-7 of its
        # cold solve (measured <= 5.4e-8), and the larger-load solution
        # started from it within 1e-12 of the one started from that cold
        # solve (measured <= 3e-15), Newton's last step being quadratic
        cfg = OperatorConfig(young=request.getfixturevalue(name), s=0.3)
        calls = []

        def recorded(cfg, mesh, rhs, *, warm_start=None):
            u, stats = solve_auxiliary(cfg, mesh, rhs, warm_start=warm_start)
            calls.append((np.array(rhs), warm_start, u, stats))
            return u, stats

        monkeypatch.setattr(checks, "solve_auxiliary", recorded)
        assert check_comparison(cfg, mesh33).passed
        homogeneous = name == "power4"
        assert len(calls) == 2 * checks.COMPARISON_TRIALS + 2 * homogeneous
        assert calls[0][1] is None and calls[0][3]["seed_evaluations"] >= 2
        for (_, _, prev, _), (_, warm, _, stats) in zip(calls, calls[1:]):
            assert warm is prev
            assert stats["seed_evaluations"] == 0
        for (rhs_u, _, u, _), (rhs_v, _, v, _) in zip(calls[::2], calls[1::2]):
            cold, _ = solve_auxiliary(cfg, mesh33, rhs_u)
            assert np.max(np.abs(u.values - cold.values)) <= 1e-7
            want, _ = solve_auxiliary(cfg, mesh33, rhs_v, warm_start=cold)
            assert np.max(np.abs(v.values - want.values)) <= 1e-12
