"""The power-4 far pairs by FFT (`orlicz.ToeplitzFar`): where the path
serves, how far it sits from the dense far-pair buffers, and that it
holds no m x m array. The dense side is the same evaluation with the
path's gate closed."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fglap.fractional as fractional
import fglap.orlicz as orlicz
import fglap.solver as solver
from fglap.fractional import (JacobianProduct, assemble_matrix, fold,
                              jacobian, mirror, residual)
from fglap.orlicz import GridFunction, Mesh, OperatorConfig, modular_W_parts
from fglap.solver import ProblemData, monotone_scheme
from fglap.young import DoublePowerYoung, LogTypeYoung, PowerYoung

ROOT = Path(__file__).resolve().parents[1]

# largest gaps to the dense path over these cases, relative to the largest
# dense entry (to the dense value for the energy), in
# `scripts/fft_band_sweep.py` at FFT_BAND = 20: residual 7.2e-13, J v
# 7.5e-15, energy 3.9e-15, each at m = 4097, s = 1/2
RESIDUAL_GAP = 1e-12
PRODUCT_GAP = 1e-13
ENERGY_GAP = 2e-14


@pytest.fixture
def dense(monkeypatch):
    """Run a callable with the FFT path closed, so that every far pair
    goes through the dense buffers, which are dropped afterwards. The CG
    gate stays open, so Newton directions still come from CG."""
    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(OperatorConfig, "toeplitz_far", lambda cfg, m: None)
            return fn()
    yield run
    fractional._FAR.release()


def profile(m: int, s: float) -> GridFunction:
    mesh = Mesh(m)
    x = mesh.nodes
    return GridFunction(mesh, (1.0 - x ** 2) ** s * (1.0 + 0.1 * np.sin(7.0 * x)))


def even_part(u: GridFunction) -> GridFunction:
    return GridFunction(u.mesh, 0.5 * (u.values + u.values[::-1]))


def gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestGate:
    @pytest.mark.parametrize("s", [0.1, 0.5])
    @pytest.mark.parametrize("m", [257, 258, 1025])
    def test_serves_power_four_at_low_order(self, m, s):
        assert OperatorConfig(young=PowerYoung(4.0), s=s).toeplitz_far(m) is not None

    @pytest.mark.parametrize("young,s,m", [
        (PowerYoung(4.0), 0.3, 255),              # (m - 1) // 2 = 127
        (PowerYoung(4.0), 0.3, 256),
        (PowerYoung(4.0), 0.6, 1025),             # s > CG_MAX_S
        (PowerYoung(3.0), 0.3, 1025),
        (DoublePowerYoung(3.0, 4.0), 0.3, 1025),
        (LogTypeYoung(2.0, 2.0, 1.0), 0.3, 1025),
    ], ids=["m255", "m256", "s0.6", "power3", "dp34", "log221"])
    def test_dense_elsewhere(self, young, s, m):
        assert OperatorConfig(young=young, s=s).toeplitz_far(m) is None

    def test_newton_systems_there_take_cg(self):
        # the gate is the CG gate of `solver`: every Newton system on an FFT
        # mesh, full or folded, has at least CG_MIN_UNKNOWNS unknowns
        cfg = OperatorConfig(young=PowerYoung(4.0), s=orlicz.CG_MAX_S)
        m = 257
        assert (m - 1) // 2 == orlicz.CG_MIN_UNKNOWNS
        assert cfg.takes_cg(128)
        assert cfg.toeplitz_far(m) is not None


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("m", [257, 1025, 4097])
class TestAgainstDense:
    def test_residual(self, m, s, dense):
        cfg = OperatorConfig(young=PowerYoung(4.0), s=s)
        u = profile(m, s)
        load = np.linspace(0.0, 1.0, m)
        want = dense(lambda: residual(cfg, u, load).values)
        assert gap(residual(cfg, u, load).values, want) <= RESIDUAL_GAP

    def test_jacobian_product(self, m, s, dense):
        cfg = OperatorConfig(young=PowerYoung(4.0), s=s)
        u = profile(m, s)
        v = np.random.default_rng(m).uniform(-1.0, 1.0, m - 2)
        want = dense(lambda: assemble_matrix(cfg, u) @ v)
        assert gap(jacobian(cfg, u) @ v, want) <= PRODUCT_GAP

    def test_folded_jacobian_product(self, m, s, dense):
        # D fold(J), D = diag(2, ..., 2, 1), on the half unknowns
        cfg = OperatorConfig(young=PowerYoung(4.0), s=s)
        u = even_part(profile(m, s))
        c = (m - 1) // 2
        v = np.random.default_rng(m).uniform(-1.0, 1.0, c)
        scale = np.r_[np.full(c - 1, 2.0), 1.0]
        want = dense(lambda: scale * (fold(assemble_matrix(cfg, u, even=True)) @ v))
        op = jacobian(cfg, u, even=True)
        assert gap(op @ v, want) <= PRODUCT_GAP
        diag = dense(lambda: scale * np.diag(fold(assemble_matrix(cfg, u, even=True))))
        assert gap(op.diagonal(), diag) <= PRODUCT_GAP

    def test_energy(self, m, s, dense):
        cfg = OperatorConfig(young=PowerYoung(4.0), s=s)
        u = profile(m, s)
        want = dense(lambda: modular_W_parts(cfg, u)["far"])
        assert abs(modular_W_parts(cfg, u)["far"] - want) <= ENERGY_GAP * want


class TestFftPath:
    def test_half_rows_are_the_full_rows(self):
        cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
        u = even_part(profile(257, 0.3))
        rhs = np.ones(257)
        full = residual(cfg, u, rhs).values
        half = residual(cfg, u, rhs, even=True).values
        assert np.array_equal(half[:129], full[:129])
        assert np.array_equal(half, mirror(half[:129]))

    @pytest.mark.parametrize("even", [False, True])
    def test_operator_reuses_the_residual(self, even, monkeypatch):
        # right after a residual at u the operator takes its G values and
        # C u, C u^2 from the record; built afresh it is the same
        cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
        u = even_part(profile(257, 0.3))
        v = np.random.default_rng(2).uniform(-1.0, 1.0, 128 if even else 255)
        fractional._FAR.last = None
        fresh = jacobian(cfg, u, even=even)
        residual(cfg, u, np.ones(257), even=even)
        calls, products = [0], orlicz.ToeplitzFar.products

        def counted(toe, x, *args, **kw):
            calls[0] += 1
            return products(toe, x, *args, **kw)

        monkeypatch.setattr(orlicz.ToeplitzFar, "products", counted)
        reused = jacobian(cfg, u, even=even)
        assert calls[0] == 0
        assert np.array_equal(reused.diag, fresh.diag)
        assert np.array_equal(reused @ v, fresh @ v)

    def test_repeated_residual_reuses_the_unloaded_rows(self):
        cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
        u = profile(257, 0.3)
        rhs = np.linspace(0.0, 2.0, 257)
        residual(cfg, u, rhs)
        record = fractional._FAR.last
        hit = residual(cfg, u, 2.0 * rhs).values
        assert fractional._FAR.last is record
        fractional._FAR.last = None
        assert np.array_equal(hit, residual(cfg, u, 2.0 * rhs).values)

    def test_cg_fallback_factorizes_the_same_matrix(self, monkeypatch):
        # a CG run that gives up hands `_direction` to the LU of the
        # assembled fold(J), with the operator's shifted diagonal; the
        # operator is D fold(J), D = diag(2, ..., 2, 1)
        cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
        u = even_part(profile(257, 0.3))
        r = residual(cfg, u, np.ones(257), even=True).values[1:129]
        op = jacobian(cfg, u, even=True)
        op.diag += 0.5
        assert isinstance(op, JacobianProduct)
        a = op.dense().copy()
        v = np.random.default_rng(3).uniform(-1.0, 1.0, 128)
        scale = np.r_[np.full(127, 2.0), 1.0]
        assert gap(scale * (a @ v), op @ v) <= PRODUCT_GAP
        monkeypatch.setattr(solver, "_pcg", lambda a, b, rtol: (None, 16))
        stats = {"cg_iterations": 0, "cg_fallbacks": 0}
        delta = solver._direction(op, r.copy(), True, solver.CG_RTOL, stats)
        assert stats == {"cg_iterations": 16, "cg_fallbacks": 1}
        assert np.allclose(delta, np.linalg.solve(a, -r), rtol=1e-10, atol=0.0)

    def test_record_of_another_kernel_is_not_reused(self):
        # a residual's record holds C u and C u^2 of the `ToeplitzFar` it
        # ran on; once FFT_BAND changes and the cached one is rebuilt, the
        # product at the same u is the one built with no record
        cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
        u = profile(257, 0.3)
        v = np.random.default_rng(4).uniform(-1.0, 1.0, 255)
        residual(cfg, u, np.ones(257))
        saved = orlicz.FFT_BAND
        try:
            orlicz.FFT_BAND = 4
            orlicz._toeplitz_far.cache_clear()
            got = jacobian(cfg, u) @ v
            fractional._FAR.last = None
            assert np.array_equal(got, jacobian(cfg, u) @ v)
        finally:
            orlicz.FFT_BAND = saved
            orlicz._toeplitz_far.cache_clear()

    def test_scheme_matches_the_dense_path(self, dense):
        # same Newton steps and CG iterations per stage, stages within 1e-11
        cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
        mesh = Mesh(257)
        data = ProblemData(f=GridFunction(mesh, np.ones(257)),
                           q=GridFunction(mesh, np.full(257, 0.5)))
        fft = monotone_scheme(cfg, data)
        ref = dense(lambda: monotone_scheme(cfg, data))
        for key in ("iterations", "cg_iterations", "cg_fallbacks"):
            assert [n[key] for n in fft.newton] == [n[key] for n in ref.newton]
        for a, b in zip(fft.solutions, ref.solutions, strict=True):
            assert np.max(np.abs(a.values - b.values)) <= 1e-11


def test_scheme_holds_no_square_array():
    # m = 2049: an m x m float64 array is 33.6 MB; the traced peak of a
    # whole scheme stays a few m-vectors wide, and the dense buffers stay
    # unallocated
    m = 2049
    cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
    mesh = Mesh(m)
    data = ProblemData(f=GridFunction(mesh, np.ones(m)),
                       q=GridFunction(mesh, np.full(m, 0.5)))
    fractional._FAR.release()
    monotone_scheme(cfg, data, n_schedule=(1, 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = monotone_scheme(cfg, data, n_schedule=(1, 2))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(n["cg_iterations"] > 0 for n in report.newton)
    assert peak < 400 * 8 * m
    assert fractional._FAR.buffer is None and fractional._FAR.shape is None


@pytest.mark.parametrize("config,loaded", [
    ("log_type", False), ("smoke_main1", False), ("power257", True)])
def test_numpy_fft_only_on_the_path(config, loaded, tmp_path):
    # a fresh interpreter per run: the shipped configs never load numpy.fft,
    # a power-4 run at m = 257 does
    if config == "power257":
        text = (ROOT / "configs" / "smoke_main1.cfg").read_text()
        path = tmp_path / "power257.cfg"
        path.write_text(text.replace("mesh = 65", "mesh = 257"))
    else:
        path = ROOT / "configs" / f"{config}.cfg"
    probe = ("import sys; from fglap import cli; "
             f"code = cli.main(['solve', '--config', {str(path)!r}, "
             f"'--out', {str(tmp_path / 'out')!r}, '--no-plot']); "
             "print(code, 'numpy.fft' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.stdout.split()[-2:] == ["0", str(loaded)], done.stderr
