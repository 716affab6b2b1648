"""Correctness gate for one CLI run, and the reference it compares with.

A run fails when any of these holds:
  - the exit code is not 0;
  - a ``checks.csv`` row has ``pass != 1`` (solve);
  - the stage columns of ``solution.csv`` are not nondecreasing within
    TOL_MONO, or not positive on the interior nodes (solve);
  - the ``convergence.csv`` sup diffs are not strictly decreasing
    (convergence);
  - the last stage, or the sup diffs, drift from the recorded reference by
    more than STAGE_DRIFT_TOL, or DIFF_DRIFT_TOL.

The tolerances admit the stage drift of up to 3.4e-6 that a warm-chained
Newton per stage is expected to bring; a diff mixes two meshes' last
stages, hence twice the stage tolerance.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

TOL_MONO = 1e-7          # the CLI's default tol_mono
STAGE_DRIFT_TOL = 1e-5   # sup norm, absolute
DIFF_DRIFT_TOL = 2e-5    # per convergence pair, absolute

REFERENCE = Path(__file__).with_name("reference.json")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def summarize(command: str, out_dir: Path) -> dict:
    """The part of a run's output the reference pins down."""
    if command == "solve":
        header, rows = _read_csv(out_dir / "solution.csv")
        return {"stages": header[1:],
                "last_stage": [float(r[-1]) for r in rows]}
    _, rows = _read_csv(out_dir / "convergence.csv")
    return {"pairs": [r[0] for r in rows],
            "sup_diffs": [float(r[3]) for r in rows]}


def _solve_failures(out_dir: Path) -> list[str]:
    reasons = []
    _, rows = _read_csv(out_dir / "checks.csv")
    if not rows:
        reasons.append("checks.csv holds no checks")
    reasons += [f"check {r[0]} failed" for r in rows if r[3] != "1"]
    _, rows = _read_csv(out_dir / "solution.csv")
    stages = [[float(v) for v in col] for col in zip(*rows)][1:]
    for k in range(1, len(stages)):
        drop = min(b - a for a, b in zip(stages[k - 1], stages[k]))
        if drop < -TOL_MONO:
            reasons.append(f"stage {k} dips {-drop:.3e} below stage {k - 1}")
    for k, stage in enumerate(stages):
        if min(stage[1:-1]) <= 0.0:
            reasons.append(f"stage {k} is not positive on the interior")
    return reasons


def _convergence_failures(summary: dict) -> list[str]:
    diffs = summary["sup_diffs"]
    if any(b >= a for a, b in zip(diffs, diffs[1:])):
        return [f"sup diffs {diffs} are not decreasing"]
    return []


def check_run(command: str, out_dir: Path, exit_code: int,
              reference: dict) -> tuple[list[str], float | None]:
    """Failure reasons of one run (empty when it passes) and its drift
    from the reference (None when the outputs cannot be read)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    try:
        summary = summarize(command, out_dir)
        if command == "solve":
            reasons = _solve_failures(out_dir)
            got, ref = summary["last_stage"], reference["last_stage"]
            tol, shape_key = STAGE_DRIFT_TOL, "stages"
        else:
            reasons = _convergence_failures(summary)
            got, ref = summary["sup_diffs"], reference["sup_diffs"]
            tol, shape_key = DIFF_DRIFT_TOL, "pairs"
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"], None
    if summary[shape_key] != reference[shape_key] or len(got) != len(ref):
        return reasons + ["output shape differs from the reference"], None
    drift = max(abs(a - b) for a, b in zip(got, ref))
    if drift > tol:
        reasons.append(f"drift {drift:.3e} from the reference exceeds {tol:g}")
    return reasons, drift


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())
