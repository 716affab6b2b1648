"""The cell comparison and the run list of scripts/same_outputs.py."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def same_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("same_outputs")


def test_moved_cells_lists_each_cell_with_both_values(tmp_path, same_outputs):
    base, change = tmp_path / "base.csv", tmp_path / "change.csv"
    base.write_text("x,u[n=1]\n-1.0,0.0\n0.0,2.0\n")
    change.write_text("x,u[n=2]\n-1.0,0.0\n0.0,2.5\n1.0\n")
    missing = same_outputs.MISSING
    assert same_outputs.moved_cells(base, change) == [
        (0, 1, "u[n=1]", "u[n=2]"), (2, 1, "2.0", "2.5"), (3, 0, missing, "1.0")]
    assert same_outputs.moved_cells(change, base)[-1] == (3, 0, "1.0", missing)
    assert same_outputs.moved_cells(base, base) == []


def test_cases_run_the_battery_on_each_family_config(same_outputs):
    # check-young runs on the configs that scripts/run_all_checks.sh checks
    checked = re.findall(r"configs/(\w+)\.cfg",
                         (ROOT / "scripts" / "run_all_checks.sh").read_text())
    assert checked == ["smoke_main1", "double_power", "log_type"]
    assert [(name, text) for name, command, text in same_outputs.cases()
            if command == "check-young"] == [(name, None) for name in checked]


def test_largest_change_reads_numeric_cells_only(same_outputs):
    moved = [(1, 1, "1.0e-03", "1.5e-03"), (2, 1, "2.0", "1.0"),
             (3, 2, "True", "False"), (4, 0, same_outputs.MISSING, "1.0"),
             (5, 1, "nan", "1.0")]
    assert same_outputs.largest_change(moved) == 1.0
    assert same_outputs.largest_change(moved[:1]) == pytest.approx(5e-4, rel=1e-12)
    assert same_outputs.largest_change(moved[2:]) == 0.0
    assert same_outputs.largest_change([]) == 0.0
