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


def test_small_mesh(step_costs, capsys):
    assert step_costs.main(["--m", "33", "--repeat", "1"]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.startswith("| family | m | path | residual |")
    assert set(rule) <= set("|-")
    expected = [(family, path) for family in ("power", "double-power", "log-type")
                for path in ("full", "even")]
    for row, (family, path) in zip(rows, expected, strict=True):
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[0].startswith(family + "(") and cells[1:3] == ["33", path]
        assert all(re.fullmatch(r"\d+ µs", c) for c in cells[3:6])
        # 31 and 16 unknowns: below the CG gate, so the LU takes them
        assert cells[6] == "0.0"


@pytest.mark.parametrize("argv", [["--m", "32"], ["--repeat", "0"]])
def test_rejects_bad_arguments(step_costs, argv):
    with pytest.raises(SystemExit):
        step_costs.main(argv)
