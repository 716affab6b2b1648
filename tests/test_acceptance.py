"""Acceptance gate: one test per shipped guarantee, one printed verdict
line each. Tolerances are stated inline and match the CLI defaults.

Criterion 6 evaluates the boundary-distance barrier alpha (1 - x^2)_+^s,
the standard barrier for order-s operators: its interior strong-form
minimum is positive and grows like alpha^{p-1} for the power family, so the
sequence over growing scales increases and consecutive ratios are exactly
2^{p-1}. (The scaled cone, which only seeds the stage solves, is no
barrier: its kink at the boundary makes the minimum negative.)
"""

import time

import numpy as np
import pytest

from fglap.checks import run_check_suite
from fglap.cli import main as cli_main
from fglap.fractional import assemble_matrix, residual
from fglap.orlicz import GridFunction, Mesh, OperatorConfig, modular_W
from fglap.solver import (
    ProblemData,
    barrier_check,
    boundary_energy_report,
    holder_exponent_fit,
    monotone_scheme,
    solve_auxiliary,
)
from fglap.young import (
    DoublePowerYoung,
    LogTypeYoung,
    PowerYoung,
    eval_Gbar,
)

from oracles import fixed_point_S

# tail-domination exponent budget per family; the double-power family
# fails the scan at 2.0 (a real counterexample, see test_checks), so its
# battery runs at the budget under which the bound provably holds
Q_STAR = {"power": 2.0, "double-power": 1.5, "log-type": 2.0}

REFERENCE_FAMILIES = (PowerYoung(4.0), DoublePowerYoung(3.0, 4.0),
                      LogTypeYoung(2.0, 2.0, 1.0))


def verdict(num: int, label: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({label})"
    if detail:
        line += f": {detail}"
    print(line)
    return ok


def reference_scenario(mesh):
    return ProblemData(f=GridFunction(mesh, np.ones(mesh.m)),
                       q=GridFunction(mesh, np.full(mesh.m, 0.5)))


@pytest.fixture(scope="module")
def scheme_report():
    mesh = Mesh(33)
    cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
    return monotone_scheme(cfg, reference_scenario(mesh), mesh=mesh,
                           n_schedule=(1, 2, 4, 8, 16))


def test_criterion_01_check_battery():
    t0 = time.time()
    failures = []
    for yf in REFERENCE_FAMILIES:
        for out in run_check_suite(yf, q_star=Q_STAR[yf.family_tag]):
            if not out.passed:
                failures.append(str(out))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10.0
    assert verdict(1, "check battery", ok,
                   f"3 families x 6 checks, {elapsed:.1f}s"), failures
    assert elapsed < 10.0


def test_criterion_02_conjugate_closed_form():
    rng = np.random.default_rng(0x5EED)
    t = 10.0 ** rng.uniform(-3.0, 3.0, 100)
    worst = 0.0
    for p in (3.0, 4.0, 5.0):
        yf = PowerYoung(p)
        lhs = eval_Gbar(yf, yf.g(t))
        want = (p - 1.0) * yf.G(t)
        worst = max(worst, float(np.max(np.abs(lhs - want) / want)))
    ok = worst <= 1e-7
    assert verdict(2, "conjugate identity", ok,
                   f"worst rel err {worst:.2e} over p in {{3,4,5}}")


def test_criterion_03_fixed_point_oracle():
    t0 = time.time()
    mesh = Mesh(33)
    cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
    data = reference_scenario(mesh)
    n = 4
    u_fp, _ = fixed_point_S(cfg, data, n)

    # independent oracle: Newton on the fully coupled system, load
    # derivative on the Jacobian diagonal
    fn = data.truncated_load(n)
    u = GridFunction(mesh, 0.5 * (1.0 - np.abs(mesh.nodes)))
    for _ in range(100):
        F = residual(cfg, u, data.singular_rhs(u, n)).values[1:-1]
        sup = float(np.abs(F).max())
        if sup < 1e-11:
            break
        J = assemble_matrix(cfg, u)
        base = np.maximum(u.values[1:-1], 0.0) + 1.0 / n
        qv = data.q.values[1:-1]
        J = J + np.diag(mesh.weights[1:-1] * qv * fn[1:-1]
                        * base ** (-qv - 1.0))
        step = np.linalg.solve(J, -F)
        lam = 1.0
        for _ in range(40):
            trial = u.values.copy()
            trial[1:-1] += lam * step
            ut = GridFunction(mesh, trial)
            if np.abs(residual(cfg, ut, data.singular_rhs(ut, n))
                      .values[1:-1]).max() < sup:
                u = ut
                break
            lam *= 0.5
        else:
            pytest.fail("coupled Newton line search stalled")

    gap = float(np.abs(u.values - u_fp.values).max())
    elapsed = time.time() - t0
    ok = gap <= 1e-6 and elapsed < 5.0
    assert verdict(3, "fixed point vs coupled Newton", ok,
                   f"sup gap {gap:.2e}, {elapsed:.2f}s")


def test_criterion_04_monotone_scheme(scheme_report):
    report = scheme_report
    worst_dip = min(float((b.values - a.values).min())
                    for a, b in zip(report.solutions, report.solutions[1:]))
    contracting = report.sup_diffs[-1] < report.sup_diffs[-2]
    ok = worst_dip >= -1e-7 and contracting
    assert verdict(4, "monotone n-schedule", ok,
                   f"worst dip {worst_dip:.1e}, "
                   f"|u16-u8|={report.sup_diffs[-1]:.2e} < "
                   f"|u8-u4|={report.sup_diffs[-2]:.2e}")


def test_criterion_05_comparison_principle():
    from fglap.checks import check_comparison
    cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
    out = check_comparison(cfg, Mesh(33))
    ok = out.passed and out.n_samples == 20
    assert verdict(5, "comparison principle", ok,
                   f"worst margin {out.worst_margin:.1e} over 20 pairs "
                   "incl. doubling")


def test_criterion_06_barrier_growth():
    mesh = Mesh(33)
    cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
    vals = barrier_check(cfg, mesh)  # alpha = 2, 4, 8, 16
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    floor = 2.0 ** 3 * (1.0 - mesh.h) ** 3
    ratios_ok = all(b / a >= floor for a, b in zip(vals, vals[1:]))
    ok = increasing and ratios_ok
    verdict(6, "barrier scale growth", ok,
            f"increasing={increasing}, ratio floor {floor:.3f}, "
            f"ratios {[round(b / a, 3) for a, b in zip(vals, vals[1:])]}")
    assert ratios_ok
    # the d^s barrier's interior minimum is positive and scales like alpha^{p-1}
    assert increasing, f"minima decrease with scale: {vals}"


def test_criterion_07_boundary_energy(scheme_report):
    r1 = scheme_report
    b1 = boundary_energy_report(r1)
    band1 = max(b1["energies"]) / min(b1["energies"])

    mesh = r1.mesh
    cfg = OperatorConfig(young=PowerYoung(4.0), s=0.3)
    d2 = ProblemData(f=GridFunction(mesh, np.ones(mesh.m)),
                     q=GridFunction(mesh, np.full(mesh.m, 1.5)),
                     case="main2", q_star=2.0)
    r2 = monotone_scheme(cfg, d2, mesh=mesh, n_schedule=(1, 2, 4, 8, 16))
    b2 = boundary_energy_report(r2)
    band2 = max(b2["energies"]) / min(b2["energies"])

    ok = band1 <= 2.0 and band2 <= 2.0 and b1["bounded"] and b2["bounded"]
    assert verdict(7, "boundary energy bands", ok,
                   f"main1 band {band1:.3f}, main2 weighted band {band2:.3f}")


def test_criterion_08_positivity_and_holder(scheme_report):
    report = scheme_report
    mid_min = float(report.final.values[report.mesh.middle_half()].min())
    alpha_ok = 0.0 < report.alpha_hat <= 1.0

    probe = GridFunction(report.mesh, np.sqrt(np.abs(report.mesh.nodes)))
    alpha_probe, _ = holder_exponent_fit(probe)
    probe_ok = abs(alpha_probe - 0.5) <= 0.05

    ok = mid_min > 0.0 and alpha_ok and probe_ok
    assert verdict(8, "positivity and regularity probe", ok,
                   f"middle min {mid_min:.3f}, alpha {report.alpha_hat:.3f}, "
                   f"sqrt probe {alpha_probe:.3f}")


def test_criterion_09_refinement_consistency():
    # corpus: two polynomial profiles whose discretization error keeps a
    # single dominant h^2 term across every family and order; oscillatory
    # profiles leave this regime (coefficient cancellation drives the
    # Richardson ratio out of any fixed bracket) and are exercised in the
    # band-insensitivity tests instead
    meshes = [Mesh(33), Mesh(65), Mesh(129)]

    def corpus(mesh):
        x = mesh.nodes
        inner = 1.0 - x * x
        return {"bump": inner, "tilt": inner * (1.0 + 0.5 * x)}

    worst_pair = 0.0
    ratios = []
    for yf in REFERENCE_FAMILIES:
        for s in (0.3, 0.7):
            for tag in ("bump", "tilt"):
                vals = [modular_W(OperatorConfig(young=yf, s=s),
                                  GridFunction(m, corpus(m)[tag]))
                        for m in meshes]
                for a, b in zip(vals, vals[1:]):
                    worst_pair = max(worst_pair, abs(a - b) / abs(b))
                ratios.append((vals[0] - vals[1]) / (vals[1] - vals[2]))

    worst_solve = 0.0
    solve_ratios = []
    for yf in REFERENCE_FAMILIES:
        for s in (0.3, 0.7):
            cfg = OperatorConfig(young=yf, s=s)
            for tag in ("bump", "tilt"):
                sols = [solve_auxiliary(cfg, m, corpus(m)[tag] + 0.05)[0]
                        for m in meshes]
                fine = sols[2].values
                i33 = meshes[0].coarse_index_in(meshes[2])
                i65 = meshes[1].coarse_index_in(meshes[2])
                e33 = float(np.abs(sols[0].values - fine[i33]).max())
                e65 = float(np.abs(sols[1].values - fine[i65]).max())
                worst_solve = max(worst_solve, e65 / sols[2].sup_norm())
                i_coarse = meshes[0].coarse_index_in(meshes[1])
                pair = float(np.abs(sols[0].values
                                    - sols[1].values[i_coarse]).max())
                worst_solve = max(worst_solve, pair / sols[1].sup_norm())
                solve_ratios.append(e33 / e65)

    all_ratios = ratios + solve_ratios
    in_band = all(1.5 <= r <= 4.0 for r in all_ratios)
    ok = worst_pair <= 0.02 and worst_solve <= 0.02 and in_band
    assert verdict(9, "refinement consistency", ok,
                   f"modular pair {worst_pair:.2%}, solve pair "
                   f"{worst_solve:.2%}, ratios "
                   f"[{min(all_ratios):.2f}, {max(all_ratios):.2f}]")


def test_criterion_10_reproducibility(tmp_path):
    cfg_text = ("family = power\np = 4\ns = 0.3\nmesh = 33\n"
                "f = const:1\nq = const:0.5\nn_schedule = 1,2\n")
    cfg_path = tmp_path / "repro.cfg"
    cfg_path.write_text(cfg_text)
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main(["solve", "--config", str(cfg_path),
                         "--out", str(out), "--no-plot"])
        assert code == 0
        blobs.append({name: (out / name).read_bytes()
                      for name in ("solution.csv", "diagnostics.csv",
                                   "checks.csv")})
    same = blobs[0] == blobs[1]
    assert verdict(10, "byte-stable reruns", same,
                   "three CSVs compared across two runs")
