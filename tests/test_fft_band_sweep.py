"""scripts/fft_band_sweep.py on the smallest FFT mesh."""

import importlib
import itertools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("fft_band_sweep")


def test_one_mesh(sweep, capsys):
    assert sweep.main(["--band", "1", "--band", "20", "--m", "257", "--s", "0.5"]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.startswith("| band | m | s | residual | J v | J v even | energy |")
    assert set(rule) <= set("|-")
    cells = [[c.strip() for c in row.strip("|").split("|")] for row in rows]
    assert [row[:3] for row in cells] == [["1", "257", "0.5"], ["20", "257", "0.5"]]
    for row in cells:
        assert all(float(c) < 1e-12 for c in row[3:7])
        assert re.fullmatch(r"\d+\.\d\d ms", row[7])


def test_residual_time_is_the_best_call(sweep, capsys, monkeypatch):
    # the first timed call reads 100 ms, the later ones 1.3 to 2 ms
    took = [0.1, 0.002, 0.0015, 0.0015, 0.0013]
    assert len(took) == sweep.TIMED_CALLS
    ends = itertools.accumulate(took)
    readings = iter([t for end, dt in zip(ends, took) for t in (end - dt, end)])
    monkeypatch.setattr(sweep.time, "process_time", lambda: next(readings))
    assert sweep.main(["--band", "1", "--m", "257", "--s", "0.5"]) == 0
    row = capsys.readouterr().out.splitlines()[2]
    assert row.strip("|").split("|")[7].strip() == "1.30 ms"


@pytest.mark.parametrize("argv", [["--band", "0"], ["--m", "129"],
                                  ["--s", "0.6"]])
def test_rejects_bad_arguments(sweep, argv):
    with pytest.raises(SystemExit):
        sweep.main(argv)
