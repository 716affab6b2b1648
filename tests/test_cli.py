"""Command-line surface: exit codes, file formats, and byte stability."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fglap.cli as cli
import fglap.orlicz as orlicz
import fglap.solver as solver
from fglap.cli import load_config, main
from fglap.errors import ConvergenceError
from fglap.young import FAMILIES

from conftest import stalled_matrix


def write_cfg(tmp_path: Path, body: str, name: str = "run.cfg") -> str:
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


SRC = str(Path(__file__).resolve().parents[1] / "src")

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
    def test_check_young_on_log_type_with_b_one(self, tmp_path):
        # log(b + c t) at b = 1 lost g near zero and the conjugate check
        # raised from the inversion of g
        body = (Path(__file__).resolve().parents[1] / "configs" / "log_type.cfg"
                ).read_text(encoding="utf-8")
        body = re.sub(r"(?m)^a = .*$", "a = 1.5", body)
        body = re.sub(r"(?m)^b = .*$", "b = 1", body)
        body = re.sub(r"(?m)^c = .*$", "c = 3", body)
        code, _ = run(tmp_path, body, cmd="check-young")
        assert code == 0

    def test_solve_happy_path(self, tmp_path):
        code, out = run(tmp_path, BASE)
        assert code == 0
        assert (out / "solution.csv").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "checks.csv").exists()

    def test_solve_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median imports numpy.ma on its first call; the energy report's
        # reference median of at most three values does without it
        cfg = write_cfg(tmp_path, BASE)
        code = ("import sys, fglap.cli; "
                f"rc = fglap.cli.main(['solve', '--config', {cfg!r}, '--out', "
                f"{str(tmp_path / 'out')!r}, '--no-plot']); "
                "sys.exit(rc or 3 * ('numpy.ma' in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr

    def test_malformed_value(self, tmp_path):
        code, _ = run(tmp_path, BASE.replace("p = 4", "p = four"))
        assert code == 2

    def test_unknown_key(self, tmp_path):
        code, _ = run(tmp_path, BASE + "\nmystery = 1\n")
        assert code == 2

    @pytest.mark.parametrize("family,param", [
        (tag, name) for tag, cls in FAMILIES.items() for name in cls.params])
    def test_missing_family_parameter(self, tmp_path, capsys, family, param):
        values = {"p": 4, "p1": 3, "p2": 4, "a": 2, "b": 2, "c": 1}
        body = BASE.replace("family = power\np = 4\n", f"family = {family}\n"
                            + "".join(f"{name} = {values[name]}\n"
                                      for name in FAMILIES[family].params
                                      if name != param))
        code, _ = run(tmp_path, body)
        assert code == 2
        assert repr(param) in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["solve", "convergence"])
    def test_unwritable_out_dir(self, tmp_path, cmd):
        # the directory is made before any work, so this fails fast
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        cfg = write_cfg(tmp_path, BASE.replace("mesh = 33", "mesh = 17,33")
                        if cmd == "convergence" else BASE)
        proc = subprocess.run(
            [sys.executable, "-m", "fglap.cli", cmd, "--config", cfg,
             "--out", str(blocker / "x"), "--no-plot"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert str(blocker / "x") in proc.stderr
        assert proc.stdout == ""

    def test_negative_load(self, tmp_path):
        code, _ = run(tmp_path, BASE.replace("f = const:1", "f = const:-1"))
        assert code == 2

    @pytest.mark.parametrize("key,value", [("samples", "1000.9"),
                                           ("seed", "3.9"),
                                           ("samples", "10")])
    def test_integer_key_rejects_fraction(self, tmp_path, capsys, key, value):
        # samples below the doubling check's floor of 1000 fail at load time
        code, _ = run(tmp_path, BASE + f"{key} = {value}\n", cmd="check-young")
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    def test_integer_key_accepts_integral_float(self, tmp_path):
        rc = load_config(write_cfg(tmp_path, BASE + "samples = 1e3\nseed = 2.0\n"))
        assert (rc.samples, rc.seed) == (1000, 2)

    def test_integer_lists_accept_integral_floats(self, tmp_path):
        body = BASE.replace("mesh = 33", "mesh = 33.0").replace(
            "n_schedule = 1,2", "n_schedule = 1,2e0")
        rc = load_config(write_cfg(tmp_path, body))
        assert (rc.meshes, rc.n_schedule) == ((33,), (1, 2))

    def test_non_utf8_config_rejected(self, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9 \xff\n" + BASE.encode())
        proc = subprocess.run(
            [sys.executable, "-m", "fglap.cli", "check-young", "--config",
             str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert str(cfg) in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [("near_band", "1"), ("r_far", "100"),
                                           ("tail_mode", "analytic"),
                                           ("tol_stop", "1e-6"),
                                           ("tol_mono", "1e-7"), ("eps", "1")])
    def test_retired_keys_rejected(self, tmp_path, capsys, key, value):
        # the band is one cell and the exterior exact; the scheme's stage
        # tolerances and the mean-value threshold are constants
        code, _ = run(tmp_path, BASE + f"{key} = {value}\n", cmd="check-young")
        assert code == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("body,extra", [(BASE + "seed = -1\n", ()),
                                            (BASE, ("--seed", "-1"))],
                             ids=["key", "flag"])
    def test_negative_seed_rejected(self, tmp_path, capsys, body, extra):
        code, out = run(tmp_path, body, extra=extra)
        assert code == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not (out / "checks.csv").exists()

    def test_repeated_key_rejected(self, tmp_path, capsys):
        code, out = run(tmp_path, BASE + "mesh = 65\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "'mesh'" in err and "line 9" in err
        assert not (out / "checks.csv").exists()

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

    @pytest.mark.parametrize("cmd", ["solve", "convergence"])
    def test_stage_failure_has_one_handler(self, tmp_path, monkeypatch, capsys,
                                           cmd):
        # both commands leave a failed stage to main: exit 1, one line
        if cmd == "solve":
            # a low Newton cap would fail the check battery first
            def failing_scheme(*args, **kw):
                raise ConvergenceError("stage n = 1 (m = 33) exhausted")

            monkeypatch.setattr(cli, "monotone_scheme", failing_scheme)
            body = BASE
        else:
            monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
            body = BASE.replace("mesh = 33", "mesh = 17,33")
        code, _ = run(tmp_path, body, cmd=cmd)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("failure: stage n = ")
        assert "Traceback" not in err

    def test_convergence_happy_path(self, tmp_path):
        body = BASE.replace("mesh = 33", "mesh = 17,33")
        code, out = run(tmp_path, body, cmd="convergence")
        assert code == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "pair,m_coarse,m_fine,sup_diff"
        assert lines[1].startswith("M17_vs_M33,")

    def test_convergence_computes_no_energy(self, tmp_path, monkeypatch):
        # convergence writes no energy, so it evaluates none; solve, whose
        # energy report writes them, shows the counter works
        calls = []
        modular_W = orlicz.modular_W

        def counted(*args):
            calls.append(1)
            return modular_W(*args)

        monkeypatch.setattr(orlicz, "modular_W", counted)
        monkeypatch.setattr(solver, "modular_W", counted)
        code, _ = run(tmp_path, BASE.replace("mesh = 33", "mesh = 17,33"),
                      cmd="convergence")
        assert code == 0 and calls == []
        code, _ = run(tmp_path, BASE.replace("mesh = 33", "mesh = 17"))
        assert code == 0 and len(calls) > 0


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

    def test_non_numeric_file_profile(self, tmp_path, capsys):
        fpath = tmp_path / "qvals.txt"
        fpath.write_text("abc\n" * 33, encoding="utf-8")
        body = BASE.replace("q = const:0.5", f"q = file:{fpath}")
        code, out = run(tmp_path, body)
        err = capsys.readouterr().err
        assert code == 2
        assert "'q'" in err and str(fpath) in err
        assert not out.exists()

    def test_empty_file_profile_fails_at_load(self, tmp_path):
        # numpy warns on a file with no data; the warning is the one
        # configuration error, before check-young writes anything
        fpath = tmp_path / "empty.txt"
        fpath.write_text("", encoding="utf-8")
        cfg = write_cfg(tmp_path, BASE.replace("q = const:0.5", f"q = file:{fpath}"))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fglap.cli", "check-young", "--config", cfg,
             "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2
        assert "'q'" in proc.stderr and str(fpath) in proc.stderr
        assert "Warning" not in proc.stderr
        assert not (out / "checks.csv").exists()

    def test_bare_number_is_constant(self, tmp_path):
        body = BASE.replace("q = const:0.5", "q = 0.5")
        assert run(tmp_path, body)[0] == 0


def _set_key(body: str, key: str, value: str) -> str:
    """body with ``key = value``, replacing the key's line if it has one."""
    line = f"{key} = {value}"
    new, count = re.subn(rf"(?m)^{re.escape(key)} = .*$", line, body)
    return new if count else body + line + "\n"


# (key, malformed value, what stderr must name); every row fails at load
MALFORMED = [
    ("case", "main3", "'case'"),
    ("family", "cubic", "family 'cubic'"),
    ("s", "1.3", "s must lie in (0, 1)"),
    ("n_schedule", "1,2.5", "'n_schedule'"),
    ("f", "gaussian:1,0", "'f'"),
    ("f", "gaussian:1,0,0", "'f'"),
    ("q", "abs-power:0.5,-1", "'q'"),
    ("f", "const:x", "'f'"),
    ("q", "file:missing.txt", "'q'"),
    ("f", "bump:1,2", "'f'"),
]


@pytest.mark.parametrize("cmd", ["check-young", "solve", "convergence"])
@pytest.mark.parametrize("key,value,named", MALFORMED,
                         ids=[f"{k}={v}" for k, v, _ in MALFORMED])
def test_malformed_config_exits_two(tmp_path, capsys, monkeypatch, cmd, key,
                                    value, named):
    # each command loads the same checks before any work, so it writes
    # nothing; the base config runs cleanly under each command
    monkeypatch.chdir(tmp_path)
    body = BASE.replace("mesh = 33", "mesh = 17,33") if cmd == "convergence" else BASE
    code, out = run(tmp_path, _set_key(body, key, value), cmd=cmd)
    err = capsys.readouterr().err
    assert code == 2
    assert named in err and "Traceback" not in err
    assert not out.exists()
