"""Young-function layer: closed forms against independent oracles, growth
windows, conjugates, and the boundary weight."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import traced_peak
from fglap.checks import check_conjugate, check_growth_bounds
from fglap.errors import ConfigurationError, DomainError
from fglap.young import (
    _LAGUERRE_BLOCK,
    _abs_power,
    FAMILIES,
    DoublePowerYoung,
    LogTypeYoung,
    PhiWeight,
    PowerYoung,
    YoungFunction,
    estimate_growth_bounds,
    eval_Gbar,
    make_young,
    standard_grid,
    submultiplicativity_constant,
)

# oracle values frozen from scipy.integrate.quad runs; see the matching
# derivations in each test
G_LOG_AT_1 = 0.3363332734000307
MVT_DP34 = 0.7540389671237899
MVT_LOG = 0.7527393527089662
SUBMULT_DP34 = 1.001999998000002
SUBMULT_LOG = 0.6941467904158123

# Phi at PHI_T, frozen from the graded-panel Phi that the Laguerre rule
# replaced (16-node Gauss-Legendre on 57 dyadic panels toward sigma(t))
PHI_T = (1e-3, 0.05, 0.7, 1.0, 3.3, 40.0, 1e3)
PHI_FROZEN = {
    ("dp34", 2.0): (8.835132452229582e-05, 0.015472910479438096,
                    0.48565895260637315, 0.7714285714285715, 3.6106593927111263,
                    88.47951155978853, 5255.9484350181265),
    ("log221", 2.0): (8.369904882459033e-05, 0.014898160471670086,
                      0.47889873799412763, 0.7640020382265672, 3.636577852411805,
                      93.50166503512006, 6088.595893795215),
    ("log221", 1.5): (0.00029299787425321195, 0.027219118693562167,
                      0.574240000664676, 0.8666655542333235, 3.434514089820203,
                      60.801328150012765, 2463.188704685559),
    ("log3021", 2.0): (0.0007770385941962485, 0.04402826178138931,
                       0.6706387432257709, 0.9690367103620099, 3.322162886221683,
                       43.60934238971063, 1208.2623506548073),
}

positive_t = st.floats(min_value=1e-3, max_value=1e3)
lam_ge_1 = st.floats(min_value=1.0, max_value=1e2)


class TestClosedForms:
    def test_power_values(self, power4):
        assert power4.G(2.0) == pytest.approx(16.0 / 4.0, rel=1e-14)
        assert power4.g(2.0) == pytest.approx(8.0, rel=1e-14)
        assert power4.g(-2.0) == pytest.approx(-8.0, rel=1e-14)

    def test_double_power_values(self, dp34):
        # g = t^2 + t^3, G = t^3/3 + t^4/4
        assert dp34.g(2.0) == pytest.approx(12.0, rel=1e-14)
        assert dp34.G(2.0) == pytest.approx(8.0 / 3.0 + 4.0, rel=1e-14)

    def test_log_type_primitive(self, log221):
        # G(1) = int_0^1 tau^2 log(2 + tau) dtau, quadrature oracle
        assert log221.G(1.0) == pytest.approx(G_LOG_AT_1, rel=1e-12)

    def test_log_type_derivative(self, log221):
        t = 0.7
        fd = (log221.G(t + 1e-6) - log221.G(t - 1e-6)) / 2e-6
        assert log221.g(t) == pytest.approx(fd, rel=1e-8)

    def test_lambda_power(self, power4):
        # Lambda(y) = int_0^y (tau^4/4)/tau dtau = y^4 / 16
        assert power4.lam(0.9) == pytest.approx(0.9 ** 4 / 16.0, rel=1e-12)

    def test_inverse_round_trip(self, families):
        for yf in families:
            for t in (0.01, 0.5, 1.0, 7.0, 300.0):
                y = yf.G(t)
                assert yf.G_inverse(y) == pytest.approx(t, rel=1e-9)


class TestLaguerreKernel:
    """The base-class Gauss-Laguerre G and Lambda, which every family
    without a closed form uses."""

    def test_matches_closed_forms(self, power4, dp34):
        # the steep members only pass with the rule scaled by p_minus
        t = standard_grid(512)
        for yf in (power4, dp34, PowerYoung(40.0), DoublePowerYoung(2.1, 9.0)):
            np.testing.assert_allclose(YoungFunction._G_pos(yf, t), yf._G_pos(t),
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(YoungFunction._lambda_pos(yf, t),
                                       yf._lambda_pos(t), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("y", [1e-3, 1.0, 300.0])
    def test_log_type_lambda_oracle(self, log221, y):
        # Lambda(y) = int_0^y G(tau)/tau dtau by adaptive quadrature
        oracle, _ = integrate.quad(lambda tau: log221.G(tau) / tau, 0.0, y,
                                   epsrel=1e-10, epsabs=0.0, limit=400)
        assert log221.lam(y) == pytest.approx(oracle, rel=1e-10)

    def test_blocks_match_pointwise(self, log221):
        t = np.logspace(-3.0, 3.0, 3 * _LAGUERRE_BLOCK + 7)
        for primitive in (log221.G, log221.lam):
            pointwise = np.array([primitive(x) for x in t])
            np.testing.assert_allclose(primitive(t), pointwise, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("abc", [(2.0, 2.0, 1.0), (30.0, 2.0, 1.0), (1.5, 1.0, 3.0)])
def test_log_type_factored_sums_match_the_base_rule(abc):
    # y^(a+1) sum_j W_j log(b + c y s_j) is the base-class sum regrouped
    yf = LogTypeYoung(*abc)
    t = standard_grid(3 * _LAGUERRE_BLOCK + 7)
    for factored, base in ((yf._G_pos, YoungFunction._G_pos),
                           (yf._lambda_pos, YoungFunction._lambda_pos)):
        np.testing.assert_allclose(factored(t), base(yf, t), rtol=1e-14, atol=0.0)
    # out may be t itself, each block is read before it is written
    aliased = t.copy()
    assert yf._G_pos(aliased, out=aliased) is aliased
    assert np.array_equal(aliased, yf._G_pos(t))
    # G's even extension evaluates the same kernel in place over |t|
    assert np.array_equal(yf.G(-t), yf._G_pos(t))


def test_log_type_with_b_one_has_a_conjugate():
    # log(1 + c t) cancelled to 0 below t ~ 1e-17, and inverting g failed
    yf = LogTypeYoung(1.5, 1.0, 3.0)
    assert yf.g(1e-12) == pytest.approx(3e-12 * 1e-12 ** 1.5, rel=1e-11)
    assert check_conjugate(yf).passed


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

    @pytest.mark.parametrize("p", [102.0, 150.0])
    def test_steep_power_reads_exact_window(self, p):
        # g = t^(p-1) underflows or overflows at the grid ends for these p;
        # those points are left out rather than clamped, so the window is
        # the exact p and construction (64 points) accepts the family
        est = estimate_growth_bounds(PowerYoung(p))
        assert est.p_minus_hat == pytest.approx(p, rel=1e-12)
        assert est.p_plus_hat == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("cls,params", [(PowerYoung, (math.inf,)),
                                            (PowerYoung, (1e5,)),
                                            (LogTypeYoung, (math.inf, 2.0, 1.0))],
                             ids=["power-inf", "power-1e5", "log-type-inf"])
    def test_window_without_usable_samples_rejected(self, cls, params):
        # g under- or overflows at every grid point, so no sample of the
        # window survives; construction must not pass on an empty estimate
        with pytest.raises(ConfigurationError):
            cls(*params)

    def test_verify_declared_growth_passes(self, families):
        for yf in families:
            assert check_growth_bounds(yf).passed

    def test_verify_declared_growth_catches_lies(self, power4):
        loose = PowerYoung(4.0)
        loose.p_minus = 5.0  # wrong on purpose
        assert not check_growth_bounds(loose).passed

    def test_numerics_use_the_verified_window(self, log221):
        # a false declared window moves what the checks compare against,
        # not the inverses or the rules
        liar = LogTypeYoung(2.0, 2.0, 1.0)
        liar.p_minus, liar.p_plus = 5.0, 6.0
        t = np.logspace(-3.0, 3.0, 25)
        for fn in (lambda yf: yf.G_inverse(yf.G(t)), lambda yf: yf.g_inverse(yf.g(t)),
                   lambda yf: eval_Gbar(yf, yf.g(t)), lambda yf: yf.G(t)):
            np.testing.assert_array_equal(fn(liar), fn(log221))


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
            rhs = yf.G(a) + eval_Gbar(yf, b)
            assert np.all(lhs <= rhs * (1.0 + 1e-9))
            at = yf.g(a)
            tight = yf.G(a) + eval_Gbar(yf, at)
            assert np.allclose(a * at, tight, rtol=1e-7)


    @pytest.mark.parametrize("name", ["power4", "dp34", "log221"])
    def test_laguerre_matches_young_equality(self, name, request):
        # Gbar(g(t)) = t g(t) - G(t): the equality case of Young's
        # inequality, used here only as an oracle for the quadrature
        yf = request.getfixturevalue(name)
        rng = np.random.default_rng(17)
        t = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2000))
        want = t * yf.g(t) - yf.G(t)
        np.testing.assert_allclose(eval_Gbar(yf, yf.g(t)), want, rtol=1e-13, atol=0.0)


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

    @pytest.mark.parametrize("key", list(PHI_FROZEN), ids=lambda k: f"{k[0]}-q{k[1]:g}")
    def test_laguerre_matches_frozen_panels(self, key):
        families = {"dp34": DoublePowerYoung(3.0, 4.0),
                    "log221": LogTypeYoung(2.0, 2.0, 1.0),
                    "log3021": LogTypeYoung(30.0, 2.0, 1.0)}
        w = PhiWeight(families[key[0]], key[1])
        np.testing.assert_allclose(w.phi(np.array(PHI_T)), PHI_FROZEN[key],
                                   rtol=1e-13, atol=0.0)

    def test_power_closed_form_on_grid(self, power4):
        # Phi(t) = r t^(1/r) for a pure power, across the whole grid
        w = PhiWeight(power4, 2.0)
        t = standard_grid(512)
        np.testing.assert_allclose(w.phi(t), w.r * t ** (1.0 / w.r), rtol=1e-14, atol=0.0)

    def test_nested_laguerre_sums_match_pointwise(self, log221):
        # log-type G is a Laguerre sum of its own, so each block of Phi's
        # sum runs a whole inner sum; 300 points span three outer blocks
        w = PhiWeight(log221, 2.0)
        t = standard_grid(300)
        assert t.size > 2 * _LAGUERRE_BLOCK
        pointwise = np.array([w.phi(x) for x in t])
        np.testing.assert_allclose(w.phi(t), pointwise, rtol=1e-14, atol=0.0)

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
        with pytest.raises(ConfigurationError) as err:
            make_young("cubic", p=3.0)
        assert all(tag in str(err.value) for tag in FAMILIES)
        assert set(FAMILIES) == {"power", "double-power", "log-type"}

    def test_missing_parameter(self):
        with pytest.raises(ConfigurationError):
            make_young("double-power", p1=3.0)

    def test_nonfinite_rejected(self, power4):
        with pytest.raises(DomainError):
            eval_Gbar(power4, float("nan"))


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
    base = yf.G(t)
    scaled = yf.G(lam * t)
    lo = lam ** yf.p_minus * base
    hi = lam ** yf.p_plus * base
    slack = 1e-9 * max(scaled, hi, 1.0)
    assert lo - slack <= scaled <= hi + slack


@given(t=positive_t)
@settings(max_examples=60, deadline=None)
def test_oddness_and_convexity(t):
    yf = DoublePowerYoung(3.0, 4.0)
    assert yf.g(-t) == pytest.approx(-yf.g(t), rel=1e-14)
    # midpoint convexity of G on the positive axis
    a, b = 0.5 * t, 1.5 * t
    mid = yf.G(0.5 * (a + b))
    avg = 0.5 * (yf.G(a) + yf.G(b))
    assert mid <= avg * (1.0 + 1e-12)


@given(t=positive_t)
@settings(max_examples=40, deadline=None)
def test_primitive_matches_derivative(t):
    yf = LogTypeYoung(2.0, 2.0, 1.0)
    h = 1e-4 * t  # relative step keeps the truncation error ~ (h/t)^2
    fd = (yf.G(t + h) - yf.G(t - h)) / (2.0 * h)
    assert fd == pytest.approx(yf.g(t), rel=1e-5)


# g and g' in closed form, as sign(t) g(|t|) and g'(|t|)
def _g_ref(yf, t):
    with np.errstate(over="ignore"):
        return _g_ref_terms(yf, t, np.abs(t))


def _g_ref_terms(yf, t, a):
    if isinstance(yf, PowerYoung):
        return np.sign(t) * a ** (yf.p - 1.0), (yf.p - 1.0) * a ** (yf.p - 2.0)
    if isinstance(yf, DoublePowerYoung):
        return (np.sign(t) * (a ** (yf.p1 - 1.0) + a ** (yf.p2 - 1.0)),
                (yf.p1 - 1.0) * a ** (yf.p1 - 2.0) + (yf.p2 - 1.0) * a ** (yf.p2 - 2.0))
    # log(b + c a) cancels at b = 1 as c a -> 0; log1p keeps it accurate
    lg = np.log(yf.b) + np.log1p(yf.c * a / yf.b)
    return (np.sign(t) * a ** yf.a * lg,
            a ** (yf.a - 1.0) * (yf.a * lg + yf.c * a / (yf.b + yf.c * a)))


KERNEL_FAMILIES = [PowerYoung(4.0), PowerYoung(2.5), DoublePowerYoung(3.0, 4.0),
                   DoublePowerYoung(2.2, 7.5), LogTypeYoung(2.0, 2.0, 1.0),
                   LogTypeYoung(1.5, 1.0, 3.0)]


class TestKernels:
    """g(t) = t gamma(|t|) and g' against the closed forms: zero, both
    signs, scalars, and overflow; and the array kernels into caller
    storage."""

    # normal results in every family above, then values that overflow
    T = np.concatenate([[0.0], np.logspace(-40.0, 40.0, 161),
                        -np.logspace(-40.0, 40.0, 161)]).reshape(17, 19)
    HUGE = np.array([1e300, -1e300, 1e305, -1e305])

    @pytest.mark.parametrize("yf", KERNEL_FAMILIES, ids=lambda yf: yf.label)
    def test_match_closed_forms(self, yf):
        ref_g, ref_gp = _g_ref(yf, self.T)
        for got, ref in ((yf.g(self.T), ref_g), (yf.g_prime(self.T), ref_gp)):
            assert got.shape == self.T.shape
            np.testing.assert_allclose(got, ref, rtol=2e-15, atol=0.0)
            assert np.array_equal(np.sign(got), np.sign(ref))
        assert yf.g(0.0) == 0.0 and yf.g_prime(0.0) == 0.0

    @pytest.mark.parametrize("yf", KERNEL_FAMILIES, ids=lambda yf: yf.label)
    def test_out_and_work_give_the_same_bits(self, yf):
        # the kernels the far-pair passes call on their buffers
        for public, kernel in ((yf.g, yf._g_pos), (yf.g_prime, yf._g_prime_pos)):
            want = public(self.T)
            assert np.array_equal(kernel(self.T), want)
            out, work = np.full_like(self.T, np.nan), np.full_like(self.T, np.nan)
            assert kernel(self.T, out=out) is out
            assert np.array_equal(out, want)
            out[:] = np.nan
            assert kernel(self.T, out=out, work=work) is out
            assert np.array_equal(out, want)

    @pytest.mark.parametrize("yf", KERNEL_FAMILIES, ids=lambda yf: yf.label)
    def test_scalars(self, yf):
        for t in (0.5, -0.5, 3.0, -3.0):
            g, gp = yf.g(t), yf.g_prime(t)
            assert isinstance(g, float) and isinstance(gp, float)
            ref_g, ref_gp = _g_ref(yf, np.array(t))
            assert g == pytest.approx(float(ref_g), rel=2e-15, abs=0.0)
            assert gp == pytest.approx(float(ref_gp), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("yf", KERNEL_FAMILIES, ids=lambda yf: yf.label)
    def test_overflow_is_signed_inf(self, yf):
        # g overflows in every family here, g' only in the steeper ones
        g = yf.g(self.HUGE)
        assert np.array_equal(g, np.sign(self.HUGE) * np.inf)
        gp = yf.g_prime(self.HUGE)
        assert not np.isnan(gp).any()
        np.testing.assert_allclose(gp, _g_ref(yf, self.HUGE)[1], rtol=2e-15, atol=0.0)
        # the kernels into caller storage, under the far-pair passes' errstate
        out, work = np.empty(self.HUGE.shape), np.empty(self.HUGE.shape)
        with np.errstate(over="ignore"):
            assert yf._g_pos(self.HUGE, out, work) is out
            assert np.array_equal(out, g)
            assert yf._g_prime_pos(self.HUGE, out, work) is out
            assert np.array_equal(out, gp)

    @pytest.mark.parametrize("abc", [(1.5, 1.0, 3.0), (1.2, 1.0, 1e10)])
    def test_log_type_g_prime_where_c_t_overflows(self, abc):
        # c tau/(b + c tau) -> 1 once b + c tau overflows, so g' is +inf like g
        yf = LogTypeYoung(*abc)
        huge = np.array([-1.7e308, -6e307, 6e307, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in huge:
                assert yf.g_prime(float(t)) == np.inf
            assert np.array_equal(yf.g_prime(huge), np.full(4, np.inf))
            out, work = np.empty(4), np.empty(4)
            with np.errstate(over="ignore"):
                assert yf._g_prime_pos(huge, out, work) is out
            assert np.array_equal(out, np.full(4, np.inf))


class TestAbsPower:
    """|t|^e of the power families: a square at e = 2 and |t| at e = 1,
    both the bits of np.power, which takes every other exponent."""

    T = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                  1e-160, 1e-150, -1e-150, 0.3, -7.5, 1e150, -1e150,
                  1.3407807929942596e154, 1.3407807929942597e154, 1e155,
                  -1e200, 1e300, -1.7e308, np.inf, -np.inf])

    @pytest.mark.parametrize("e", [2.0, 1.0, 0.5, 1.5, 5.5])
    def test_bits_of_np_power(self, e):
        with np.errstate(over="ignore", under="ignore"):
            want = np.power(np.abs(self.T), e)
            # finite entries that overflow, for the exponents above 1
            assert (np.isinf(want) & np.isfinite(self.T)).any() == (e > 1.0)
            assert want.tobytes() == _abs_power(self.T, e).tobytes()
            out = np.full_like(self.T, np.nan)
            assert _abs_power(self.T, e, out) is out
            assert out.tobytes() == want.tobytes()
            t = self.T.copy()
            assert _abs_power(t, e, t) is t
            assert t.tobytes() == want.tobytes()

    @pytest.mark.parametrize("yf", [PowerYoung(4.0), PowerYoung(3.0),
                                    DoublePowerYoung(3.0, 4.0)],
                             ids=lambda yf: yf.label)
    def test_power_families_take_no_pow_at_integer_exponents(self, yf,
                                                             monkeypatch):
        # p = 3 and 4 make every exponent of gamma and g' 1 or 2
        t = TestKernels.T
        want = yf.g(t), yf.g_prime(t)
        power = np.power
        monkeypatch.setattr(np, "power", lambda *a, **kw: pytest.fail(
            "np.power called") or power(*a, **kw))
        assert np.array_equal(yf.g(t), want[0])
        assert np.array_equal(yf.g_prime(t), want[1])


def test_laguerre_blocks_allocate_below_the_mmap_threshold(log221):
    # each block's storage is reused, so a Laguerre G allocates little
    # beyond its output; glibc maps fresh pages for blocks of 128 KiB and up
    t = np.logspace(-3.0, 3.0, 4096)
    assert traced_peak(lambda: log221.G(t)) - t.nbytes < 128 * 1024


CLOSED_G = {"power4": lambda a: a ** 4.0 / 4.0,
            "dp34": lambda a: a ** 3.0 / 3.0 + a ** 4.0 / 4.0}


@pytest.mark.parametrize("name", ["power4", "dp34", "log221"])
def test_G_into_reused_storage(name, request):
    # the kernel G into storage the caller hands in, or in place over |t|
    # as the far-pair energy evaluates it in its buffer: the values are the
    # public call's, and the closed forms keep their operation order
    yf = request.getfixturevalue(name)
    t = np.linspace(-3.0, 3.0, 2 * 257).reshape(2, 257)
    out, work = np.empty(t.shape), np.empty(t.shape)
    mag = np.abs(t)
    got = yf._G_pos(mag, out, work)
    assert got is out
    assert np.array_equal(got, yf.G(t))
    assert yf._G_pos(mag, mag, work) is mag
    assert np.array_equal(mag, got)
    if name in CLOSED_G:
        assert np.array_equal(got, CLOSED_G[name](np.abs(t)))


@pytest.mark.parametrize("name", ["power3", "power4", "dp34"])
def test_g_prime_over_its_argument(name, request):
    # these families' kernels may write g' over their argument; log-type's
    # reads its argument after writing ``out``
    yf = request.getfixturevalue(name)
    t = np.linspace(-3.0, 3.0, 2 * 257).reshape(2, 257)
    want = yf.g_prime(t)
    got = t.copy()
    assert yf._g_prime_pos(got, got, np.empty(t.shape)) is got
    assert np.array_equal(got, want)
