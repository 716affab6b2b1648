"""scripts/step_costs.py on a small mesh."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def step_costs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("step_costs")


def table(step_costs, capsys, m):
    assert step_costs.main(["--m", str(m), "--repeat", "1"]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.startswith("| family | m | path | far pairs | residual |")
    assert set(rule) <= set("|-")
    expected = [(family, path) for family in ("power", "double-power", "log-type")
                for path in ("full", "even")]
    cells = [[c.strip() for c in row.strip("|").split("|")] for row in rows]
    assert len(cells) == len(expected)
    for row, (family, path) in zip(cells, expected):
        assert row[0].startswith(family + "(") and row[1:3] == [str(m), path]
        assert all(re.fullmatch(r"\d+ µs", c) for c in row[4:7])
    return cells


def test_small_mesh(step_costs, capsys):
    for row in table(step_costs, capsys, 33):
        # 31 and 16 unknowns: below the CG gate, so the LU takes them
        assert row[3] == "dense" and row[7] == "0.0"


def test_fft_mesh(step_costs, capsys):
    # at m = 257 power 4 takes the FFT path and matrix-free CG, the other
    # families CG on the assembled matrix
    for row in table(step_costs, capsys, 257):
        assert row[3] == ("FFT" if row[0].startswith("power(") else "dense")
        assert float(row[7]) > 0.0


@pytest.mark.parametrize("argv", [["--m", "32"], ["--repeat", "0"]])
def test_rejects_bad_arguments(step_costs, argv):
    with pytest.raises(SystemExit):
        step_costs.main(argv)
