"""Check that the working tree's CLI outputs equal a git revision's.

    python3 scripts/same_outputs.py --base REV [--seed N ...]

Run from anywhere inside the repository. REV's committed files are exported
as `bench_ab.py` does, and both trees then run, each from its own sources
and configs:

- ``solve --no-plot`` on every shipped solve config in ``configs/``;
- ``convergence`` on ``configs/refinement.cfg``;
- ``check-young`` on the three family configs that
  ``scripts/run_all_checks.sh`` checks;
- the benchmark's workloads, whose config texts are read from the working
  tree's ``perfbench/workloads.py``,

at every seed given (7 and 41 by default). The script compares the exit
codes and every cell of ``solution.csv``, ``diagnostics.csv``,
``checks.csv`` and ``convergence.csv``, prints each cell that moved with
both values, and per table the number of moved cells and the largest
absolute change among those that read as numbers on both sides. It exits
0 only if no exit code changed and no cell moved.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_ab import ROOT, export

TABLES = ("solution.csv", "diagnostics.csv", "checks.csv", "convergence.csv")
SOLVE_CONFIGS = ("smoke_main1", "weighted_main2", "double_power", "log_type")
CHECK_CONFIGS = ("smoke_main1", "double_power", "log_type")
MISSING = "<missing>"


def read_cells(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def moved_cells(base: Path, change: Path) -> list[tuple[int, int, str, str]]:
    """(row, column, base value, changed value) of every cell, the header
    row included, that differs between two CSV files; a cell that only
    one side has reads MISSING on the other."""
    a, b = read_cells(base), read_cells(change)
    moved = []
    for r in range(max(len(a), len(b))):
        ra = a[r] if r < len(a) else []
        rb = b[r] if r < len(b) else []
        for c in range(max(len(ra), len(rb))):
            va = ra[c] if c < len(ra) else MISSING
            vb = rb[c] if c < len(rb) else MISSING
            if va != vb:
                moved.append((r, c, va, vb))
    return moved


def largest_change(moved: list[tuple[int, int, str, str]]) -> float:
    """The largest absolute change among the cells of `moved_cells` that
    read as finite numbers on both sides; 0.0 when none does."""
    out = 0.0
    for _, _, va, vb in moved:
        try:
            change = abs(float(vb) - float(va))
        except ValueError:
            continue
        if math.isfinite(change):
            out = max(out, change)
    return out


def cases() -> list[tuple[str, str, str | None]]:
    """(name, subcommand, config text or None for the shipped config file
    of that name)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return ([(name, "solve", None) for name in SOLVE_CONFIGS]
            + [("refinement", "convergence", None)]
            + [(name, "check-young", None) for name in CHECK_CONFIGS]
            + [(w.name, w.command, w.config) for w in WORKLOADS.values()])


def run(tree: Path, out: Path, command: str, config: Path, seed: int) -> int:
    """One CLI command in ``tree`` on its own sources: its exit code."""
    out.mkdir(parents=True)
    args = [command, "--config", str(config), "--out", str(out),
            "--seed", str(seed)]
    if command == "solve":
        args.append("--no-plot")
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "fglap.cli", *args], cwd=tree,
                          env=env, capture_output=True).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seed", type=int, action="append",
                        help="seed to run at, repeatable (default: 7 and 41)")
    args = parser.parse_args(argv)
    seeds = args.seed or [7, 41]

    runs = exit_changes = cells = moved_total = 0
    moved_in = {table: 0 for table in TABLES}
    drift = {table: 0.0 for table in TABLES}
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        trees = {"base": tmp / "base", "change": ROOT}
        export(args.base, trees["base"])
        for name, command, text in cases():
            if text is not None:
                (tmp / f"{name}.cfg").write_text(text)
            for seed in seeds:
                outs, codes = {}, {}
                for side, tree in trees.items():
                    config = (tree / "configs" if text is None else tmp) / f"{name}.cfg"
                    outs[side] = tmp / f"{side}-{name}-{command}-{seed}"
                    codes[side] = run(tree, outs[side], command, config, seed)
                runs += 1
                label = f"{name} ({command}) seed {seed}"
                if codes["base"] != codes["change"]:
                    exit_changes += 1
                    print(f"{label}: exit code {codes['base']} -> {codes['change']}")
                for table in TABLES:
                    paths = [outs[side] / table for side in trees]
                    if not any(p.exists() for p in paths):
                        continue
                    if not all(p.exists() for p in paths):
                        print(f"{label}: {table} written by one side only")
                        moved_total += 1
                        continue
                    cells += sum(len(row) for row in read_cells(paths[0]))
                    moved = moved_cells(*paths)
                    for r, c, va, vb in moved:
                        print(f"{label}: {table} row {r} column {c}: {va} -> {vb}")
                    moved_total += len(moved)
                    moved_in[table] += len(moved)
                    drift[table] = max(drift[table], largest_change(moved))
    for table in TABLES:
        print(f"{table}: {moved_in[table]} cells moved, largest absolute "
              f"change {drift[table]:.3g}")
    print(f"same_outputs: {runs} runs per tree at seeds "
          f"{', '.join(map(str, seeds))}, "
          f"{exit_changes} exit codes changed, {moved_total} of {cells} "
          f"cells moved")
    return 0 if exit_changes == 0 and moved_total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
