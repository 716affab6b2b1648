"""scripts/fft_band_sweep.py on the smallest FFT mesh."""

import importlib
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


@pytest.mark.parametrize("argv", [["--band", "0"], ["--m", "129"],
                                  ["--s", "0.6"]])
def test_rejects_bad_arguments(sweep, argv):
    with pytest.raises(SystemExit):
        sweep.main(argv)
