"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys

import pytest

import gate
import run
import spans
from workloads import Workload

sys.path.insert(0, str(run.ROOT / "src"))

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_SOLVE = Workload("tiny-solve", "solve", """\
family = power
p = 4
s = 0.3
mesh = 17
f = const:1
q = const:0.5
n_schedule = 1,2
""")

TINY_CONVERGENCE = Workload("tiny-convergence", "convergence", """\
family = power
p = 4
s = 0.3
mesh = 9,17,33
f = const:1
q = const:0.5
n_schedule = 1,2
""")


@pytest.fixture(autouse=True)
def _few_setup_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def span(sid, name, start, end, parent=None, attrs=None):
    return [sid, name, start, end, parent, attrs]


def test_self_time_subtracts_children_once():
    trace = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "solver.a", 1.0, 4.0, 0),
        span(2, "fractional.b", 2.0, 3.0, 1),
        span(3, "solver.c", 5.0, 6.0, 0),
        # overlaps its sibling and its parent's end: only the union counts
        span(4, "young.d", 3.5, 7.0, 3),
        span(5, "young.e", 5.5, 6.5, 3),
    ]
    assert spans.self_times(trace) == pytest.approx(
        [10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0 - 1.0, 3.5, 1.0])


def test_inclusive_time_counts_reentrant_calls_once():
    trace = [
        span(0, "young.G", 0.0, 5.0),
        span(1, "young.G", 1.0, 2.0, 0),
        span(2, "young.G", 6.0, 7.5),
    ]
    assert spans.inclusive_s(trace, "young.G") == pytest.approx(6.5)


def test_layer_metrics_attribute_mesh_and_caller():
    trace = [
        span(0, "solver.monotone_scheme", 0.0, 10.0, None, {"m": 129}),
        span(1, "solver.solve_auxiliary", 1.0, 5.0, 0,
             {"m": 129, "warm": False, "iterations": 3, "picard_steps": 1}),
        span(2, "fractional.residual", 1.5, 2.0, 1, {"m": 129}),
        span(3, "numpy.linalg.solve", 2.0, 3.0, 1, {"n": 127}),
        span(4, "checks.check_comparison", 11.0, 12.0),
        span(5, "numpy.linalg.solve", 11.0, 11.5, 4, {"n": 3}),
    ]
    m = spans.layer_metrics(trace)
    assert m["solver.scheme_s.m129"] == pytest.approx(10.0)
    assert m["solver.linsolve_s.m129"] == pytest.approx(1.0)
    assert m["solver.linsolve_calls"] == 1   # the checks-level call is not
    assert m["solver.aux_solves_cold"] == 1 and m["solver.aux_solves_warm"] == 0
    assert m["solver.newton_iters"] == 3 and m["solver.picard_steps"] == 1
    assert m["fractional.pairs_per_s"] == pytest.approx(129 ** 2 / 0.5)
    assert m["solver.self_s"] == pytest.approx(10.0 - 4.0 + 4.0 - 1.5)


def test_tracer_wraps_every_binding_and_restores():
    import fglap
    from fglap import fractional, solver

    original = fractional.residual
    tracer = spans.Tracer()
    tracer.install(fglap)
    try:
        assert solver.residual is fractional.residual
        assert fractional.residual.__wrapped__ is original
        assert fglap.solve_auxiliary is solver.solve_auxiliary
    finally:
        tracer.uninstall()
    assert solver.residual is original and fractional.residual is original


def _reference(wl: Workload, tmp_path) -> dict:
    cfg = tmp_path / "ref.cfg"
    cfg.write_text(wl.config)
    out = tmp_path / "ref"
    rec = run.invoke([sys.executable, "-m", "fglap.cli",
                      *wl.cli_args(cfg, out, 1)], tmp_path / "ref.log", 60.0)
    assert rec["exit_code"] == 0
    return gate.summarize(wl.command, out)


def _names(section: str) -> list[str]:
    return [m["name"] for m in BENCH[section]]


def test_untraced_run_emits_every_end_to_end_metric(tmp_path):
    ref = _reference(TINY_SOLVE, tmp_path)
    values, cmds = run.run_workload(TINY_SOLVE, 1, 0.0, False, ref, tmp_path)
    result = run.result_object(values, BENCH["end_to_end"], cmds)
    assert sorted(values) == sorted(_names("end_to_end"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(cmds) >= 1


def test_traced_run_emits_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MICRO_POINTS", 20)
    ref = _reference(TINY_SOLVE, tmp_path)
    values, cmds = run.run_workload(TINY_SOLVE, 1, 0.0, True, ref, tmp_path)
    assert sorted(values) == sorted(_names("per_layer"))
    assert not any(c["failures"] for c in cmds)
    assert values["checks.comparison_aux_solves"] > 0
    assert values["solver.aux_solves_warm"] > 0


@pytest.mark.parametrize("wl, key", [(TINY_SOLVE, "last_stage"),
                                     (TINY_CONVERGENCE, "sup_diffs")])
def test_wrong_reference_counts_as_failed(tmp_path, wl, key):
    ref = _reference(wl, tmp_path)
    assert not gate.check_run(wl.command, tmp_path / "ref", 0, ref)[0]
    ref[key] = [v + 1e-3 for v in ref[key]]
    values, cmds = run.run_workload(wl, 1, 0.0, False, ref, tmp_path)
    result = run.result_object(values, BENCH["end_to_end"], cmds)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert all("drift" in reason for c in cmds for reason in c["failures"])


def test_gate_flags_failed_check_and_stage_dip(tmp_path):
    (tmp_path / "checks.csv").write_text(
        "check,samples,worst_margin,pass\ndelta2,1000,1e-3,1\n"
        "comparison,20,-1e-3,0\n")
    (tmp_path / "solution.csv").write_text(
        "x,u[n=1],u[n=2]\n-1,0,0\n0,0.5,0.4\n1,0,0\n")
    ref = {"stages": ["u[n=1]", "u[n=2]"], "last_stage": [0.0, 0.4, 0.0]}
    reasons, drift = gate.check_run("solve", tmp_path, 0, ref)
    assert drift == 0.0
    assert any("comparison" in r for r in reasons)
    assert any("dips" in r for r in reasons)
    assert gate.check_run("solve", tmp_path, 1, ref)[0] == ["exit code 1"]
