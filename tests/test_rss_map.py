"""The smaps and status parsers of scripts/rss_map.py, on synthetic text."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SMAPS = """\
55d0c7a00000-55d0c7a2b000 r--p 00000000 08:01 1234       /usr/bin/python3.11
Size:                172 kB
Rss:                 160 kB
Pss:                 150 kB
VmFlags: rd mr mw me dw sd
55d0c7a2b000-55d0c7b00000 r-xp 0002b000 08:01 1234       /usr/bin/python3.11
Size:                852 kB
Rss:                 840 kB
VmFlags: rd ex mr mw me dw sd
55d0c8000000-55d0c8100000 rw-p 00000000 00:00 0          [heap]
Rss:                1024 kB
7f0000000000-7f0000100000 rw-p 00000000 00:00 0
Rss:                 512 kB
7f0000100000-7f0000200000 rw-p 00000000 00:00 0
Size:               1024 kB
Rss:                   8 kB
7f0000300000-7f0000301000 r--p 00000000 08:01 99         /usr/lib/my lib/libx.so
Rss:                   4 kB
7ffd00000000-7ffd00021000 rw-p 00000000 00:00 0          [stack]
Rss:                  12 kB
"""


@pytest.fixture
def rss_map(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("rss_map")


def test_rss_summed_per_mapping_name(rss_map):
    assert rss_map.parse_smaps(SMAPS) == {
        "python3.11": 1000, "[heap]": 1024, rss_map.ANON: 520,
        "libx.so": 4, "[stack]": 12}


def test_status_kb_fields(rss_map):
    status = "Name:\tpython3\nVmHWM:\t   41200 kB\nVmRSS:\t   35000 kB\nThreads:\t1\n"
    assert rss_map.parse_status(status) == {"VmHWM": 41200, "VmRSS": 35000}


def test_report_orders_by_rss_after(rss_map):
    before = {"a": 10, "b": 5, "c": 1}
    after = {"a": 10, "b": 30, "d": 2}
    rows = [line.split() for line in rss_map.report(before, after).splitlines()]
    assert rows[1:] == [["b", "5", "30", "+25"], ["a", "10", "10", "+0"],
                        ["d", "0", "2", "+2"], ["c", "1", "0", "-1"],
                        ["total", "16", "42", "+26"]]
