"""Quadrature and root-finding primitives."""

import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre

import fglap.quadrature as quadrature
from fglap.errors import ConvergenceError, DomainError
from fglap.quadrature import (
    LAGUERRE_A0_NODES,
    LAGUERRE_A0_WEIGHTS,
    LEGENDRE_8_NODES,
    LEGENDRE_8_WEIGHTS,
    invert_monotone,
)
import fglap.young as young
from fglap.fractional import _first_cell_integral
from fglap.orlicz import OperatorConfig
from fglap.young import (
    DoublePowerYoung,
    LogTypeYoung,
    PhiWeight,
    PowerYoung,
    YoungFunction,
    _laguerre_integral,
    eval_Gbar,
    standard_grid,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestInvertMonotone:
    def test_cube_root_scalar(self):
        t = invert_monotone(lambda x: x**3, 8.0, (3.0, 3.0))
        assert t == pytest.approx(2.0, rel=1e-13)
        assert np.ndim(t) == 0

    def test_vector_round_trip(self):
        g = lambda x: x**3 + x**4
        y = np.array([1e-8, 0.5, 3.0, 1e6])
        t = invert_monotone(g, y, (3.0, 4.0))
        assert np.allclose(g(t), y, rtol=1e-12)

    def test_zero_maps_to_zero(self):
        t = invert_monotone(lambda x: x**3, np.array([0.0, 1.0, 0.0]), (3.0, 3.0))
        assert t[0] == 0.0 and t[2] == 0.0

    def test_rejects_negative_target(self):
        with pytest.raises(DomainError):
            invert_monotone(lambda x: x**3, -1.0, (3.0, 3.0))

    def test_rejects_nonfinite_target(self):
        with pytest.raises(DomainError):
            invert_monotone(lambda x: x**3, np.inf, (3.0, 3.0))

    def test_escaping_bracket(self):
        # tanh declares elasticity 1 but flattens out (its elasticity falls
        # toward 0) and never reaches 2.0: the root escapes the bracket
        with pytest.raises(ConvergenceError):
            invert_monotone(lambda x: np.tanh(x), 2.0, (1.0, 1.0))

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, y):
        g = lambda x: x**3 / 3.0
        t = invert_monotone(g, y, (3.0, 3.0))
        assert g(t) == pytest.approx(y, rel=1e-12)


# the shipped families' extremes; each round trip's truth is the t that
# produced its target
WINDOW_FAMILIES = [PowerYoung(4.0), PowerYoung(40.0), PowerYoung(102.0),
                   DoublePowerYoung(3.0, 4.0), LogTypeYoung(2.0, 2.0, 1.0),
                   LogTypeYoung(30.0, 2.0, 1.0)]


def _window_targets(yf, kind):
    """Seeded log-uniform t on [1e-3, 1e3] plus a dense band on
    [0.30, 0.34], where Newton on double-power g converges from one side and
    its last steps round onto the bracket's end, kept where the forward
    value is a normal float; and the forward values f(t)."""
    rng = np.random.default_rng(11)
    t = np.concatenate([np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 4000)),
                        np.linspace(0.30, 0.34, 401)])
    f = yf._G_pos if kind == "G" else yf._g_pos
    with np.errstate(over="ignore", under="ignore"):
        y = f(t)
    keep = (y >= np.finfo(float).tiny) & np.isfinite(y)
    return t[keep], y[keep]


class TestWindowInverter:
    """The growth-window Newton on every family the package ships, under a
    hard cap of six steps per point."""

    @pytest.mark.parametrize("yf", WINDOW_FAMILIES, ids=lambda yf: yf.label)
    @pytest.mark.parametrize("kind", ["G", "g"])
    def test_round_trip_to_rounding(self, yf, kind, monkeypatch):
        monkeypatch.setattr(quadrature, "INVERT_MAX_ITER", 6)
        t, y = _window_targets(yf, kind)
        lo, hi = yf.window
        if kind == "G":
            got = invert_monotone(yf._G_pos, y, (lo, hi), deriv=yf._g_pos)
        else:
            got = invert_monotone(yf._g_pos, y, (lo - 1.0, hi - 1.0),
                                  deriv=yf._g_prime_pos)
        np.testing.assert_allclose(got, t, rtol=2e-15, atol=0.0)

    def test_secant_mode(self, monkeypatch):
        # without a derivative the secant slope drives the step; rtol bounds
        # the last step, and the error after it is far smaller
        monkeypatch.setattr(quadrature, "INVERT_MAX_ITER", 12)
        g = lambda x: x**3 + x**4
        t = np.logspace(-3.0, 3.0, 61)
        loose = invert_monotone(g, g(t), (3.0, 4.0), rtol=1e-3)
        tight = invert_monotone(g, g(t), (3.0, 4.0))
        np.testing.assert_allclose(loose, t, rtol=1e-3, atol=0.0)
        np.testing.assert_allclose(tight, t, rtol=1e-12, atol=0.0)

    def test_wrong_window_raises(self):
        # x^3 declared with elasticity 4: the bracket misses the root
        with pytest.raises(ConvergenceError):
            invert_monotone(lambda x: x**3, 8.0, (4.0, 4.0), deriv=lambda x: 3 * x**2)

    def test_subnormal_target(self):
        # subnormal targets are solved to their own precision; the smallest
        # is below f(1)/2, so y/f(1) underflows
        y = np.array([5e-324, 1e-320, 1e-310])
        p = PowerYoung(102.0)
        got = invert_monotone(p._g_pos, y, (101.0, 101.0), deriv=p._g_prime_pos)
        np.testing.assert_allclose(got, y ** (1.0 / 101.0), rtol=1e-3)
        got = invert_monotone(lambda x: x**3 + x**4, y, (3.0, 4.0),
                              deriv=lambda x: 3 * x**2 + 4 * x**3)
        np.testing.assert_allclose(got, y ** (1.0 / 3.0), rtol=1e-3)

    def test_window_verified_to_tolerance(self):
        # growth windows are verified to ~1e-9, so an elasticity just past
        # the declared one must still invert; far from t = 1 its root lies
        # ~4e-8 outside the unpadded bracket
        e = 3.0 + 5e-10
        y = np.array([1e-300, 1e300])
        got = invert_monotone(lambda x: x**e, y, (3.0, 3.0), deriv=lambda x: e * x ** (e - 1.0))
        np.testing.assert_allclose(got**e, y, rtol=1e-14)

    def test_shape_preserved(self):
        y = np.array([[1.0, 8.0], [0.0, 27.0]])
        got = invert_monotone(lambda x: x**3, y, (3.0, 3.0))
        assert got.shape == (2, 2)
        np.testing.assert_allclose(got, [[1.0, 2.0], [0.0, 3.0]], rtol=1e-15)


def test_legendre_8_is_leggauss_bit_for_bit():
    x, w = np.array(LEGENDRE_8_NODES), np.array(LEGENDRE_8_WEIGHTS)
    ref_x, ref_w = np.polynomial.legendre.leggauss(8)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
    assert w.sum() == pytest.approx(2.0, rel=1e-14)
    # a degree-14 monomial, integrated exactly by an 8-point rule
    assert np.sum(w * x**14) == pytest.approx(2.0 / 15.0, rel=1e-12)


# the rule whose leading nodes `quadrature` stores, the share of its
# weight that the dropped trailing nodes may carry, and the share of its
# v-weighted mass, which Lambda's log weight puts on them (5.6e-20 measured)
LAGUERRE_NODES = 64
LAGUERRE_TAIL = 1e-20
LAGUERRE_V_TAIL = 1e-19


def _laguerre_running_sum(n: int, alpha: float, x: np.ndarray):
    """P_n(x) and P_n(x) - P_(n-1)(x), where P_k = L_k^alpha / C(k + alpha, k).

    The running sum carries the difference d = P_k - P_(k-1) itself, so it
    never cancels where P_n is near zero.
    """
    d = -x / (alpha + 1.0)
    p = d + 1.0
    for k in range(1, n):
        d = -x / (k + alpha + 1.0) * p + (k / (k + alpha + 1.0)) * d
        p = p + d
    return p, d


@lru_cache(maxsize=None)
def gauss_laguerre(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre rule on [0, inf) with weight v^alpha e^(-v),
    the builder of the stored rules.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch,
    Math. Comp. 23, 1969), polished by one Newton step on L_n^alpha, whose
    quotient L_n/L_n' is x P_n / (n (P_n - P_(n-1))). The weights come from
    the closed form w ~ 1/(L_(n-1) L_n'), formed in logs and normalized to
    sum to Gamma(alpha + 1): eigenvector weights lose all relative accuracy
    below ~1e-40, and the Laguerre integrals multiply w by e^v, v up to ~220.
    """
    k = np.arange(1, n)
    off = np.sqrt(k * (k + alpha))
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + alpha + 1.0)
                           + np.diag(off, 1) + np.diag(off, -1))
    p, d = _laguerre_running_sum(n, alpha, x)
    x = x - x * p / (n * d)
    p, d = _laguerre_running_sum(n, alpha, x)
    log_w = -np.log(np.abs(p - d)) - np.log(np.abs(d / x))
    w = np.exp(log_w - log_w.max())
    return x, w * (math.gamma(alpha + 1.0) / w.sum())


RULES = [(64, 0.0), (64, 1.0), (8, 0.5)]


class TestGaussLaguerre:
    """The test-side builder of the stored rules against scipy's rule, and
    exact on monomials."""

    @pytest.mark.parametrize("n,alpha", RULES)
    def test_matches_scipy(self, n, alpha):
        x, w = gauss_laguerre(n, alpha)
        xs, ws = roots_genlaguerre(n, alpha)
        np.testing.assert_allclose(x, xs, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(w, ws, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n,alpha", RULES)
    def test_exact_on_monomials(self, n, alpha):
        # int_0^inf v^(j + alpha) e^(-v) dv = Gamma(j + alpha + 1); an n-point
        # rule is exact up to degree 2n - 1
        x, w = gauss_laguerre(n, alpha)
        for j in range(min(21, 2 * n)):
            assert np.sum(w * x ** j) == pytest.approx(math.gamma(j + alpha + 1.0),
                                                       rel=1e-12)

    @pytest.mark.parametrize("n,alpha", RULES)
    def test_weights_positive_and_scalable(self, n, alpha):
        # the Laguerre integrals multiply every weight by e^v
        x, w = gauss_laguerre(n, alpha)
        assert np.all(w > 0.0)
        assert np.all(np.isfinite(w * np.exp(x)))

    def test_integral_of_singular_power(self):
        # int_0^1 t^(-1/2) dt = 2; with k = 1/2 the factor left against the
        # Laguerre weight is constant, whatever the blowup at zero
        val = _laguerre_integral(lambda t: t ** -0.5, np.array([1.0]), 0.5)
        assert val[0] == pytest.approx(2.0, rel=1e-14)


def rebuilt(yf):
    """A new family with yf's parameters, built on the rule in force."""
    return type(yf)(*(getattr(yf, name) for name in yf.params))


class TestTruncatedRule:
    """The Laguerre integrals sum the stored leading nodes of the 64-node
    rule and drop a tail that carries under LAGUERRE_TAIL of its weight."""

    @pytest.mark.parametrize("alpha,nodes,weights,kept",
                             [(0, LAGUERRE_A0_NODES, LAGUERRE_A0_WEIGHTS, 34)])
    def test_stored_rule_is_the_builders_leading_nodes(self, alpha, nodes,
                                                       weights, kept):
        full_v, full_w = gauss_laguerre(LAGUERRE_NODES, alpha)
        tail = np.cumsum(full_w[::-1])[::-1]
        assert np.count_nonzero(tail >= LAGUERRE_TAIL * tail[0]) == kept
        assert len(nodes) == len(weights) == kept
        assert np.array_equal(np.array(nodes), full_v[:kept])
        assert np.array_equal(np.array(weights), full_w[:kept])
        assert np.array_equal(young._LAGUERRE_V, nodes)
        assert np.array_equal(young._LAGUERRE_W, weights)
        assert not (young._LAGUERRE_V.flags.writeable
                    or young._LAGUERRE_W.flags.writeable)

    @pytest.mark.parametrize("alpha,kept", [(0, 34), (1, 35)])
    def test_drops_only_a_rounding_level_tail(self, alpha, kept):
        _, full_w = gauss_laguerre(LAGUERRE_NODES, alpha)
        total = full_w.sum()
        assert full_w[kept:].sum() < LAGUERRE_TAIL * total
        # the last node kept is one that the threshold needs
        assert full_w[kept - 1:].sum() >= LAGUERRE_TAIL * total

    def test_drops_only_a_rounding_level_share_of_the_log_weight(self):
        # Lambda's weights carry the factor v/k, so the dropped nodes lose
        # their share of the v-weighted mass
        full_v, full_w = gauss_laguerre(LAGUERRE_NODES, 0.0)
        mass = full_w * full_v
        assert mass[len(LAGUERRE_A0_NODES):].sum() < LAGUERRE_V_TAIL * mass.sum()

    @pytest.fixture
    def full_rule(self, monkeypatch):
        """Evaluate the next call on all 64 nodes."""
        def run(fn, *args):
            full_v, full_w = gauss_laguerre(LAGUERRE_NODES, 0.0)
            with monkeypatch.context() as patch:
                patch.setattr(young, "_LAGUERRE_V", full_v)
                patch.setattr(young, "_LAGUERRE_W", full_w)
                return fn(*args)
        return run

    FAMILIES = WINDOW_FAMILIES + [DoublePowerYoung(2.1, 9.0)]

    @pytest.mark.parametrize("yf", FAMILIES, ids=lambda yf: yf.label)
    def test_matches_the_full_rule(self, yf, full_rule):
        t = standard_grid(257)
        sigma = np.concatenate([-t[::16], [0.0], t[::16]])
        weight = PhiWeight(yf, 2.0)
        cfg = OperatorConfig(young=yf, s=0.3)

        def own_sum(name):
            # log-type builds its factored sums' weights with the family
            return getattr(rebuilt(yf), name)(t)

        for fn, args in ((YoungFunction._G_pos, (yf, t)),
                         (YoungFunction._lambda_pos, (yf, t)),
                         (own_sum, ("_G_pos",)),
                         (own_sum, ("_lambda_pos",)),
                         (eval_Gbar, (yf, t)),
                         (weight.phi, (t[::4],)),
                         (_first_cell_integral, (cfg, sigma, 1.0 / 16))):
            np.testing.assert_allclose(fn(*args), full_rule(fn, *args),
                                       rtol=1e-15, atol=0.0)

    @staticmethod
    def alpha_one_weights(k):
        """The rule that summed Lambda before its log weight moved into the
        weights: the leading 35 nodes of the 64-node rule for v e^(-v),
        under the substitution of `_laguerre_integral`."""
        v, w = gauss_laguerre(LAGUERRE_NODES, 1.0)
        v, w = v[:35], w[:35]
        shrink = np.exp(-v / k)
        return shrink, w * np.exp(v) * shrink / k ** 2

    LAMBDA_FAMILIES = [PowerYoung(2.5), PowerYoung(20.0),
                       DoublePowerYoung(2.1, 9.0), DoublePowerYoung(2.5, 8.0),
                       LogTypeYoung(2.0, 2.0, 1.0), LogTypeYoung(1.5, 1.0, 3.0)]

    @pytest.mark.parametrize("yf", LAMBDA_FAMILIES, ids=lambda yf: yf.label)
    def test_lambda_matches_the_alpha_one_rule(self, yf, monkeypatch):
        # the base-class rule, and log-type's factored sums, within 4e-15
        # relative of the v e^(-v) rule (3.7e-15 measured, at power 20)
        t = standard_grid(1025)
        stored = [YoungFunction._lambda_pos(yf, t), yf._lambda_pos(t)]
        weights = young._laguerre_weights
        monkeypatch.setattr(young, "_laguerre_weights", lambda k, alpha: (
            self.alpha_one_weights(k) if alpha else weights(k, alpha)))
        before = [YoungFunction._lambda_pos(yf, t), rebuilt(yf)._lambda_pos(t)]
        for got, ref in zip(stored, before):
            np.testing.assert_allclose(got, ref, rtol=4e-15, atol=0.0)


def test_solve_runs_without_scipy(tmp_path):
    # the log-type family sums both G and Lambda on the stored rule
    cfg = tmp_path / "log_type.cfg"
    cfg.write_text("family = log-type\na = 2\nb = 2\nc = 1\ns = 0.3\nmesh = 33\n"
                   "f = bump:2\nq = abs-power:0.5,2\nn_schedule = 1,2\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    code = ("import sys; sys.modules['scipy'] = None; import fglap.cli; "
            f"sys.exit(fglap.cli.main(['solve', '--config', {str(cfg)!r}, "
            f"'--out', {str(out)!r}, '--no-plot']))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == 0, run.stderr
    assert (out / "solution.csv").is_file()
