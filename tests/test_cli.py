"""Command-line surface: exit codes, file formats, and byte stability."""

import re
from pathlib import Path

import numpy as np
import pytest

import fglap.cli as cli
import fglap.solver as solver
from fglap.cli import load_config, main

from conftest import stalled_matrix


def write_cfg(tmp_path: Path, body: str, name: str = "run.cfg") -> str:
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


BASE = """
family = power
p = 4
s = 0.3
mesh = 33
f = const:1
q = const:0.5
n_schedule = 1,2
"""


def run(tmp_path, body, cmd="solve", extra=(), name="run.cfg"):
    cfg = write_cfg(tmp_path, body, name)
    out = tmp_path / "out"
    argv = [cmd, "--config", cfg, "--out", str(out), "--no-plot", *extra]
    return main(argv), out


class TestExitCodes:
    def test_solve_happy_path(self, tmp_path):
        code, out = run(tmp_path, BASE)
        assert code == 0
        assert (out / "solution.csv").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "checks.csv").exists()

    def test_malformed_value(self, tmp_path):
        code, _ = run(tmp_path, BASE.replace("p = 4", "p = four"))
        assert code == 2

    def test_unknown_key(self, tmp_path):
        code, _ = run(tmp_path, BASE + "\nmystery = 1\n")
        assert code == 2

    def test_missing_family_parameter(self, tmp_path):
        code, _ = run(tmp_path, BASE.replace("p = 4\n", ""))
        assert code == 2

    def test_negative_load(self, tmp_path):
        code, _ = run(tmp_path, BASE.replace("f = const:1", "f = const:-1"))
        assert code == 2

    @pytest.mark.parametrize("key,value", [("samples", "1000.9"),
                                           ("seed", "3.9")])
    def test_integer_key_rejects_fraction(self, tmp_path, capsys, key, value):
        code, _ = run(tmp_path, BASE + f"{key} = {value}\n", cmd="check-young")
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    def test_integer_key_accepts_integral_float(self, tmp_path):
        rc = load_config(write_cfg(tmp_path, BASE + "samples = 1e3\nseed = 2.0\n"))
        assert (rc.samples, rc.seed) == (1000, 2)

    @pytest.mark.parametrize("key,value", [("near_band", "1"), ("r_far", "100"),
                                           ("tail_mode", "analytic")])
    def test_retired_discretization_keys_rejected(self, tmp_path, capsys,
                                                  key, value):
        # the band is one cell and the exterior exact; neither is a setting
        code, _ = run(tmp_path, BASE + f"{key} = {value}\n", cmd="check-young")
        assert code == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule", ["0,1", "-2,1"])
    def test_schedule_below_one_rejected(self, tmp_path, capsys, schedule):
        code, out = run(tmp_path, BASE.replace("n_schedule = 1,2",
                                               f"n_schedule = {schedule}"))
        assert code == 2
        err = capsys.readouterr().err
        assert "n_schedule" in err and "Traceback" not in err
        assert not (out / "checks.csv").exists()

    def test_bad_s(self, tmp_path):
        code, _ = run(tmp_path, BASE.replace("s = 0.3", "s = 1.3"))
        assert code == 2

    def test_declared_growth_mismatch(self, tmp_path, capsys):
        code, _ = run(tmp_path, BASE + "declared_p_minus = 5\n", cmd="check-young")
        assert code == 1
        err = capsys.readouterr().err
        assert "offending sample" in err

    def test_verification_failure_blocks_solve(self, tmp_path, capsys):
        # the double-power family fails the tail-domination scan at the
        # default exponent budget, which must refuse the pipeline
        body = BASE.replace("family = power\np = 4\n",
                            "family = double-power\np1 = 3\np2 = 4\n")
        code, out = run(tmp_path, body)
        assert code == 1
        assert not (out / "solution.csv").exists()
        assert "refusing" in capsys.readouterr().err

    def test_budget_override_unblocks(self, tmp_path):
        body = BASE.replace("family = power\np = 4\n",
                            "family = double-power\np1 = 3\np2 = 4\n")
        code, _ = run(tmp_path, body + "q_star = 1.5\n")
        assert code == 0

    def test_main2_needs_q_star_above_one(self, tmp_path):
        body = BASE + "case = main2\nq_star = 0.9\n"
        code, _ = run(tmp_path, body)
        assert code == 2

    def test_solve_needs_single_mesh(self, tmp_path):
        code, _ = run(tmp_path, BASE.replace("mesh = 33", "mesh = 33,65"))
        assert code == 2

    def test_convergence_needs_two_meshes(self, tmp_path):
        code, _ = run(tmp_path, BASE, cmd="convergence")
        assert code == 2

    def test_convergence_needs_nested_meshes(self, tmp_path):
        body = BASE.replace("mesh = 33", "mesh = 33,49")
        code, _ = run(tmp_path, body, cmd="convergence")
        assert code == 2

    def test_convergence_rejects_bad_main2_family(self, tmp_path, capsys):
        # declared p_minus = 1 puts the boundary weight's exponent r q_star
        # at p_minus, which case main2 does not admit
        body = (BASE.replace("mesh = 33", "mesh = 17,33")
                + "case = main2\nq_star = 2\ndeclared_p_minus = 1\n")
        code, out = run(tmp_path, body, cmd="convergence")
        assert code == 2
        assert "must stay below p_minus" in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()

    def test_steep_power_solves(self, tmp_path):
        body = BASE.replace("p = 4", "p = 20").replace("s = 0.3", "s = 0.1")
        code, _ = run(tmp_path, body)
        assert code == 0

    def test_stage_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        # stall only the stage solves, after the check battery has passed
        scheme = cli.monotone_scheme

        def stalled_scheme(*args, **kw):
            monkeypatch.setattr(solver, "assemble_matrix", stalled_matrix)
            return scheme(*args, **kw)

        monkeypatch.setattr(cli, "monotone_scheme", stalled_scheme)
        code, _ = run(tmp_path, BASE)
        err = capsys.readouterr().err
        assert code == 1
        assert "stage n = 1 (m = 33) exhausted" in err
        assert "Traceback" not in err

    def test_convergence_happy_path(self, tmp_path):
        body = BASE.replace("mesh = 33", "mesh = 17,33")
        code, out = run(tmp_path, body, cmd="convergence")
        assert code == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "pair,m_coarse,m_fine,sup_diff"
        assert lines[1].startswith("M17_vs_M33,")


class TestFileFormats:
    def test_solution_layout(self, tmp_path):
        _, out = run(tmp_path, BASE)
        lines = (out / "solution.csv").read_text().splitlines()
        assert lines[0] == "x,u[n=1],u[n=2]"
        assert len(lines) == 1 + 33
        # 12 significant digits, scientific notation
        cell = lines[1].split(",")[0]
        assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2}", cell)

    def test_checks_layout(self, tmp_path):
        _, out = run(tmp_path, BASE, cmd="check-young")
        lines = (out / "checks.csv").read_text().splitlines()
        assert lines[0] == "check,samples,worst_margin,pass"
        # growth gate + six sampled checks + discrete comparison
        assert len(lines) == 1 + 8
        assert all(row.endswith(",1") for row in lines[1:])

    def test_diagnostics_layout(self, tmp_path):
        _, out = run(tmp_path, BASE)
        text = (out / "diagnostics.csv").read_text()
        assert text.splitlines()[0] == "quantity,n,value"
        for key in ("modular_energy[main1]", "seminorm[main1]",
                    "fixed_point_iterations", "residual_sup",
                    "seed_residual_evaluations", "residual_evaluations",
                    "line_search_backtracks", "levenberg_shift_max",
                    "l_middle", "alpha_hat", "holder_seminorm",
                    "n_sequence_converged", "energies_bounded"):
            assert key in text, key

    def test_seed_evaluations_row_per_stage(self, tmp_path):
        # the cold first stage spends residual evaluations on the cone
        # seed; every warm-started stage after it spends none
        _, out = run(tmp_path, BASE)
        rows = [line.split(",") for line in
                (out / "diagnostics.csv").read_text().splitlines()]
        seeds = [(n, int(v)) for q, n, v in rows if q == "seed_residual_evaluations"]
        assert [n for n, _ in seeds] == ["1", "2"]
        assert seeds[0][1] >= 2 and seeds[1][1] == 0

    def test_lf_endings(self, tmp_path):
        _, out = run(tmp_path, BASE)
        for name in ("solution.csv", "diagnostics.csv", "checks.csv"):
            raw = (out / name).read_bytes()
            assert b"\r" not in raw

    def test_byte_identical_reruns(self, tmp_path):
        _, out1 = run(tmp_path, BASE)
        first = {n: (out1 / n).read_bytes()
                 for n in ("solution.csv", "diagnostics.csv", "checks.csv")}
        cfg = write_cfg(tmp_path, BASE, "again.cfg")
        out2 = tmp_path / "out2"
        code = main(["solve", "--config", cfg, "--out", str(out2), "--no-plot"])
        assert code == 0
        for name, blob in first.items():
            assert (out2 / name).read_bytes() == blob, name

    def test_seed_changes_check_margins(self, tmp_path):
        _, out1 = run(tmp_path, BASE, cmd="check-young")
        cfg = write_cfg(tmp_path, BASE, "again.cfg")
        out2 = tmp_path / "out2"
        main(["check-young", "--config", cfg, "--out", str(out2),
              "--no-plot", "--seed", "7"])
        assert (out1 / "checks.csv").read_bytes() != (out2 / "checks.csv").read_bytes()

    def test_plot_emitted_without_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "outplot"
        code = main(["solve", "--config", cfg, "--out", str(out)])
        assert code == 0
        svg = (out / "solution.svg").read_bytes()
        assert svg.startswith(b"<?xml")


class TestProfiles:
    def test_gaussian_and_bump(self, tmp_path):
        body = BASE.replace("f = const:1", "f = gaussian:1,0,0.4")
        assert run(tmp_path, body)[0] == 0
        body = BASE.replace("f = const:1", "f = bump:2")
        assert run(tmp_path, body)[0] == 0

    def test_abs_power(self, tmp_path):
        body = BASE.replace("q = const:0.5", "q = abs-power:0.5,2")
        assert run(tmp_path, body)[0] == 0

    def test_file_profile(self, tmp_path):
        vals = np.full(33, 0.25)
        fpath = tmp_path / "qvals.txt"
        np.savetxt(fpath, vals)
        body = BASE.replace("q = const:0.5", f"q = file:{fpath}")
        assert run(tmp_path, body)[0] == 0

    def test_file_profile_length_checked(self, tmp_path):
        vals = np.full(17, 0.25)
        fpath = tmp_path / "qvals.txt"
        np.savetxt(fpath, vals)
        body = BASE.replace("q = const:0.5", f"q = file:{fpath}")
        assert run(tmp_path, body)[0] == 2

    def test_unknown_profile(self, tmp_path):
        body = BASE.replace("f = const:1", "f = spike:1")
        assert run(tmp_path, body)[0] == 2

    def test_bare_number_is_constant(self, tmp_path):
        body = BASE.replace("q = const:0.5", "q = 0.5")
        assert run(tmp_path, body)[0] == 0
