"""scripts/linsolve_sweep.py on its smallest case."""

import importlib
import re
from pathlib import Path

import pytest

import fglap.solver as solver

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def linsolve_sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("linsolve_sweep")


def test_smallest_case(linsolve_sweep, capsys, monkeypatch):
    monkeypatch.setattr(linsolve_sweep, "MIN_TIMED_S", 0.0)
    gate = solver.CG_MIN_UNKNOWNS
    assert linsolve_sweep.main(["--s", "0.3", "--m", "129", "--repeat", "1"]) == 0
    assert solver.CG_MIN_UNKNOWNS == gate
    header, rule, row = capsys.readouterr().out.splitlines()
    assert header.startswith("| s | m | LU | rule |") and set(rule) <= set("|-")
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[:2] == ["0.3", "129"]
    assert all(re.fullmatch(r"\d+\.\d{3} s", c) for c in cells[2:4])
    newton_lu, newton_rule, cg_iterations, fallbacks = map(int, cells[5:])
    # 127 and 64 unknowns: below the gate, so both sides take the LU
    assert newton_lu == newton_rule > 0
    assert cg_iterations == fallbacks == 0
