"""Golden outputs of the shipped configs.

`tests/data/shipped/<config>/` holds the CSVs that `fglap solve --no-plot`
(four configs) and `fglap convergence` (refinement.cfg) wrote when the files
were recorded. A rerun must reproduce every stage value and sup diff within
1e-9 absolute, and the check names, sample counts and verdicts exactly. A
change that moves these numbers on purpose regenerates the files and says
why in CHANGES.md.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from fglap.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "shipped"


def read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def assert_numbers_close(got: list[list[str]], want: list[list[str]],
                         columns: slice, name: str) -> None:
    assert got[0] == want[0], name
    assert len(got) == len(want), name
    a = np.array([row[columns] for row in got[1:]], dtype=float)
    b = np.array([row[columns] for row in want[1:]], dtype=float)
    assert np.max(np.abs(a - b)) <= 1e-9, name


@pytest.mark.parametrize("config", ["smoke_main1", "weighted_main2",
                                    "double_power", "log_type"])
def test_solve_matches_golden(tmp_path, config):
    out = tmp_path / config
    code = main(["solve", "--config", str(ROOT / "configs" / f"{config}.cfg"),
                 "--out", str(out), "--no-plot"])
    assert code == 0
    want = GOLDEN / config
    assert_numbers_close(read_rows(out / "solution.csv"),
                         read_rows(want / "solution.csv"), slice(1, None),
                         f"{config}/solution.csv")
    got_checks = read_rows(out / "checks.csv")
    want_checks = read_rows(want / "checks.csv")
    assert ([(c, n, ok) for c, n, _, ok in got_checks]
            == [(c, n, ok) for c, n, _, ok in want_checks])


def test_convergence_matches_golden(tmp_path):
    out = tmp_path / "refinement"
    code = main(["convergence", "--config", str(ROOT / "configs" / "refinement.cfg"),
                 "--out", str(out)])
    assert code == 0
    got = read_rows(out / "convergence.csv")
    want = read_rows(GOLDEN / "refinement" / "convergence.csv")
    assert [row[:3] for row in got] == [row[:3] for row in want]
    assert_numbers_close(got, want, slice(3, None), "convergence.csv")
