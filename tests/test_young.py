"""Young-function layer: closed forms against independent oracles, growth
windows, conjugates, and the boundary weight."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglap.errors import ConfigurationError, DomainError
from fglap.quadrature import adaptive_quad
from fglap.young import (
    _LAGUERRE_BLOCK,
    DoublePowerYoung,
    LogTypeYoung,
    PhiWeight,
    PowerYoung,
    YoungFunction,
    estimate_growth_bounds,
    eval_G,
    eval_Gbar,
    eval_g,
    invert_G,
    make_young,
    sobolev_conjugate_inv,
    standard_grid,
    submultiplicativity_constant,
    verify_declared_growth,
)

# oracle values frozen from scipy.integrate.quad runs; see the matching
# derivations in each test
G_LOG_AT_1 = 0.3363332734000307
SOBOLEV_P4_S02_T2 = 29.28171391891324
MVT_DP34 = 0.7540389671237899
MVT_LOG = 0.7527393527089662
SUBMULT_DP34 = 1.001999998000002
SUBMULT_LOG = 0.6941467904158123

positive_t = st.floats(min_value=1e-3, max_value=1e3)
lam_ge_1 = st.floats(min_value=1.0, max_value=1e2)


class TestClosedForms:
    def test_power_values(self, power4):
        assert eval_G(power4, 2.0) == pytest.approx(16.0 / 4.0, rel=1e-14)
        assert eval_g(power4, 2.0) == pytest.approx(8.0, rel=1e-14)
        assert eval_g(power4, -2.0) == pytest.approx(-8.0, rel=1e-14)

    def test_double_power_values(self, dp34):
        # g = t^2 + t^3, G = t^3/3 + t^4/4
        assert eval_g(dp34, 2.0) == pytest.approx(12.0, rel=1e-14)
        assert eval_G(dp34, 2.0) == pytest.approx(8.0 / 3.0 + 4.0, rel=1e-14)

    def test_log_type_primitive(self, log221):
        # G(1) = int_0^1 tau^2 log(2 + tau) dtau, quadrature oracle
        assert eval_G(log221, 1.0) == pytest.approx(G_LOG_AT_1, rel=1e-12)

    def test_log_type_derivative(self, log221):
        t = 0.7
        fd = (eval_G(log221, t + 1e-6) - eval_G(log221, t - 1e-6)) / 2e-6
        assert eval_g(log221, t) == pytest.approx(fd, rel=1e-8)

    def test_lambda_power(self, power4):
        # Lambda(y) = int_0^y (tau^4/4)/tau dtau = y^4 / 16
        assert power4.lam(0.9) == pytest.approx(0.9 ** 4 / 16.0, rel=1e-12)

    def test_inverse_round_trip(self, families):
        for yf in families:
            for t in (0.01, 0.5, 1.0, 7.0, 300.0):
                y = eval_G(yf, t)
                assert invert_G(yf, y) == pytest.approx(t, rel=1e-9)


class TestLaguerreKernel:
    """The base-class Gauss-Laguerre G and Lambda, which every family
    without a closed form uses."""

    def test_matches_closed_forms(self, power4, dp34):
        # the steep members only pass with the rule scaled by p_minus
        t = standard_grid()
        for yf in (power4, dp34, PowerYoung(40.0), DoublePowerYoung(2.1, 9.0)):
            np.testing.assert_allclose(YoungFunction._G_pos(yf, t), yf._G_pos(t),
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(YoungFunction._lambda_pos(yf, t),
                                       yf._lambda_pos(t), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("y", [1e-3, 1.0, 300.0])
    def test_log_type_lambda_oracle(self, log221, y):
        # Lambda(y) = int_0^y G(tau)/tau dtau by adaptive quadrature
        oracle = adaptive_quad(lambda tau: log221.G(tau) / tau, 0.0, y)
        assert log221.lam(y) == pytest.approx(oracle, rel=1e-10)

    def test_blocks_match_pointwise(self, log221):
        t = np.logspace(-3.0, 3.0, 3 * _LAGUERRE_BLOCK + 7)
        for primitive in (log221.G, log221.lam):
            pointwise = np.array([primitive(x) for x in t])
            np.testing.assert_allclose(primitive(t), pointwise, rtol=1e-14, atol=0.0)


class TestGrowthWindow:
    def test_declared_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            PowerYoung(2.0)  # p_minus must exceed 2
        with pytest.raises(ConfigurationError):
            DoublePowerYoung(2.0, 2.5)
        # swapped exponent order is normalized, not rejected
        assert DoublePowerYoung(4.0, 3.0).p1 == 3.0

    def test_estimates_inside_declared(self, families):
        for yf in families:
            est = estimate_growth_bounds(yf)
            assert est.p_minus_hat >= yf.p_minus - 1e-6
            assert est.p_plus_hat <= yf.p_plus + 1e-6

    def test_estimate_regression_dp34(self, dp34):
        est = estimate_growth_bounds(dp34)
        assert est.p_minus_hat == pytest.approx(3.000999000999001, rel=1e-10)
        assert est.p_plus_hat == pytest.approx(3.999000999000999, rel=1e-10)

    def test_estimate_regression_log(self, log221):
        est = estimate_growth_bounds(log221)
        assert est.p_minus_hat == pytest.approx(3.0007204674494066, rel=1e-10)
        assert est.p_plus_hat == pytest.approx(3.3733619255495473, rel=1e-10)

    def test_verify_declared_growth_passes(self, families):
        for yf in families:
            verify_declared_growth(yf)

    def test_verify_declared_growth_catches_lies(self, power4):
        from fglap.errors import InvariantError
        loose = PowerYoung(4.0)
        loose.p_minus = 5.0  # wrong on purpose
        with pytest.raises(InvariantError):
            verify_declared_growth(loose)


class TestConjugate:
    def test_power_exact(self):
        # for G = t^p/p the conjugate is t^{p'}/p'
        p3 = PowerYoung(3.0)
        assert eval_Gbar(p3, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
        p4 = PowerYoung(4.0)
        pc = 4.0 / 3.0
        assert eval_Gbar(p4, 2.0) == pytest.approx(2.0 ** pc / pc, rel=1e-10)

    def test_young_inequality(self, families):
        # a b <= G(a) + Gbar(b) with equality at b = g(a)
        rng = np.random.default_rng(7)
        for yf in families:
            a = rng.uniform(0.1, 5.0, 40)
            b = rng.uniform(0.1, 5.0, 40)
            lhs = a * b
            rhs = eval_G(yf, a) + eval_Gbar(yf, b)
            assert np.all(lhs <= rhs * (1.0 + 1e-9))
            at = yf.g(a)
            tight = eval_G(yf, a) + eval_Gbar(yf, at)
            assert np.allclose(a * at, tight, rtol=1e-7)


class TestSobolevConjugate:
    def test_power_oracle(self, power4):
        got = sobolev_conjugate_inv(power4, 2.0, 0.2)
        assert got == pytest.approx(SOBOLEV_P4_S02_T2, rel=1e-5)

    def test_divergent_case_rejected(self, power4):
        with pytest.raises(ConfigurationError):
            sobolev_conjugate_inv(power4, 2.0, 0.3)  # 1/p = 0.25 <= s


class TestPhiWeight:
    def test_exponent_and_values(self, power4):
        w = PhiWeight(power4, 2.0)
        assert w.r == pytest.approx(0.8, rel=1e-14)
        assert float(w.phi(1.0)) == pytest.approx(0.8, rel=1e-12)
        # power case: Phi(t) = r t^{1/r}
        assert float(w.phi(2.0)) == pytest.approx(0.8 * 2.0 ** 1.25, rel=1e-10)

    def test_mvt_constant_power_is_r(self, power4):
        w = PhiWeight(power4, 2.0)
        assert w.mvt_constant() == pytest.approx(0.8, abs=1e-12)

    def test_mvt_constant_regressions(self, dp34, log221):
        assert PhiWeight(dp34, 2.0).mvt_constant() == pytest.approx(MVT_DP34, rel=1e-10)
        assert PhiWeight(log221, 2.0).mvt_constant() == pytest.approx(MVT_LOG, rel=1e-10)

    def test_inadmissible_exponent_rejected(self, power4):
        broken = PowerYoung(4.0)
        broken.p_minus = 0.8  # r q_star >= p_minus only reachable this way
        with pytest.raises(ConfigurationError):
            PhiWeight(broken, 2.0)


class TestSubmultiplicativity:
    def test_regressions(self, power4, dp34, log221):
        assert submultiplicativity_constant(power4) == pytest.approx(1.0, abs=1e-9)
        assert submultiplicativity_constant(dp34) == pytest.approx(SUBMULT_DP34, rel=1e-10)
        assert submultiplicativity_constant(log221) == pytest.approx(SUBMULT_LOG, rel=1e-10)


class TestMakeYoung:
    def test_dispatch(self):
        assert isinstance(make_young("power", p=4.0), PowerYoung)
        assert isinstance(make_young("double-power", p1=3.0, p2=4.0), DoublePowerYoung)
        assert isinstance(make_young("log-type", a=2.0, b=2.0, c=1.0), LogTypeYoung)

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            make_young("cubic", p=3.0)

    def test_missing_parameter(self):
        with pytest.raises(ConfigurationError):
            make_young("double-power", p1=3.0)

    def test_nonfinite_rejected(self, power4):
        with pytest.raises(DomainError):
            eval_G(power4, float("nan"))


# hypothesis property battery; the classes share one strategy set


@given(t=positive_t, lam=lam_ge_1)
@settings(max_examples=60, deadline=None)
def test_doubling_window_power(t, lam):
    yf = PowerYoung(4.0)
    _doubling_window(yf, t, lam)


@given(t=positive_t, lam=lam_ge_1)
@settings(max_examples=60, deadline=None)
def test_doubling_window_double_power(t, lam):
    yf = DoublePowerYoung(3.0, 4.0)
    _doubling_window(yf, t, lam)


@given(t=positive_t, lam=lam_ge_1)
@settings(max_examples=60, deadline=None)
def test_doubling_window_log_type(t, lam):
    yf = LogTypeYoung(2.0, 2.0, 1.0)
    _doubling_window(yf, t, lam)


def _doubling_window(yf, t, lam):
    base = eval_G(yf, t)
    scaled = eval_G(yf, lam * t)
    lo = lam ** yf.p_minus * base
    hi = lam ** yf.p_plus * base
    slack = 1e-9 * max(scaled, hi, 1.0)
    assert lo - slack <= scaled <= hi + slack


@given(t=positive_t)
@settings(max_examples=60, deadline=None)
def test_oddness_and_convexity(t):
    yf = DoublePowerYoung(3.0, 4.0)
    assert eval_g(yf, -t) == pytest.approx(-eval_g(yf, t), rel=1e-14)
    # midpoint convexity of G on the positive axis
    a, b = 0.5 * t, 1.5 * t
    mid = eval_G(yf, 0.5 * (a + b))
    avg = 0.5 * (eval_G(yf, a) + eval_G(yf, b))
    assert mid <= avg * (1.0 + 1e-12)


@given(t=positive_t)
@settings(max_examples=40, deadline=None)
def test_primitive_matches_derivative(t):
    yf = LogTypeYoung(2.0, 2.0, 1.0)
    h = 1e-4 * t  # relative step keeps the truncation error ~ (h/t)^2
    fd = (eval_G(yf, t + h) - eval_G(yf, t - h)) / (2.0 * h)
    assert fd == pytest.approx(eval_g(yf, t), rel=1e-5)
