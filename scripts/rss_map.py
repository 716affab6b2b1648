"""Resident memory of one fglap command, mapping by mapping.

    python3 scripts/rss_map.py -- <fglap arguments>

for example ``python3 scripts/rss_map.py -- solve --config
configs/smoke_main1.cfg --out out --no-plot``. The script imports
``fglap.cli`` from the repository's ``src/``, reads ``/proc/self/smaps``,
runs ``fglap.cli.main`` in the same process, and reads it again. It prints
the resident set of each mapping before and after the command, largest
after first (files by name, anonymous memory as ``[anon]``), then the
process's VmRSS and VmHWM (peak) at both points. It only reads ``/proc``;
Linux only.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANON = "[anon]"


def parse_smaps(text: str) -> dict[str, int]:
    """Rss in kB summed per mapping name: the file's base name, the kernel's
    bracketed name ([heap], [stack], ...), or ANON for an unnamed mapping."""
    rss: dict[str, int] = defaultdict(int)
    name = None
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if "-" in fields[0] and not fields[0].endswith(":"):
            # header: address perms offset dev inode [path]
            path = " ".join(fields[5:])
            name = (ANON if not path else path if path.startswith("[")
                    else os.path.basename(path))
        elif fields[0] == "Rss:" and name is not None:
            rss[name] += int(fields[1])
    return dict(rss)


def parse_status(text: str) -> dict[str, int]:
    """The kB values of /proc/<pid>/status, by field name."""
    values = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        parts = rest.split()
        if len(parts) == 2 and parts[1] == "kB":
            values[key] = int(parts[0])
    return values


def snapshot() -> tuple[dict[str, int], dict[str, int]]:
    return (parse_smaps(Path("/proc/self/smaps").read_text()),
            parse_status(Path("/proc/self/status").read_text()))


def report(before: dict[str, int], after: dict[str, int]) -> str:
    """One row per mapping, largest after first, then the totals."""
    names = sorted(set(before) | set(after),
                   key=lambda n: (-after.get(n, 0), -before.get(n, 0), n))
    rows = [f"{'mapping':<48} {'before kB':>10} {'after kB':>10} {'delta':>8}"]
    for n in names:
        b, a = before.get(n, 0), after.get(n, 0)
        rows.append(f"{n[:48]:<48} {b:>10} {a:>10} {a - b:>+8}")
    b, a = sum(before.values()), sum(after.values())
    rows.append(f"{'total':<48} {b:>10} {a:>10} {a - b:>+8}")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fglap_args", nargs=argparse.REMAINDER,
                        help="-- then the arguments of one fglap command")
    args = parser.parse_args(argv)
    fglap_args = args.fglap_args
    if fglap_args[:1] == ["--"]:
        fglap_args = fglap_args[1:]
    if not fglap_args:
        parser.error("give the fglap command after --")

    sys.path.insert(0, str(ROOT / "src"))
    import fglap.cli

    maps_before, status_before = snapshot()
    code = fglap.cli.main(fglap_args)
    maps_after, status_after = snapshot()
    print(report(maps_before, maps_after))
    for key in ("VmRSS", "VmHWM"):
        print(f"{key}: {status_before[key] / 1024:.2f} MB before, "
              f"{status_after[key] / 1024:.2f} MB after")
    print(f"fglap exit code: {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
