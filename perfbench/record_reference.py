"""Record reference.json: each workload's pinned output at the current
commit (the last stage for solve, the sup diffs for convergence).

    python3 perfbench/record_reference.py

Run from the repository root. Each workload runs once with seed 0; the
run must pass the gate's structural checks, since there is nothing yet to
compare its drift against.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
from run import OUT, invoke
from workloads import WORKLOADS


def main() -> int:
    OUT.mkdir(exist_ok=True)
    work = OUT / "record"
    work.mkdir(exist_ok=True)
    reference = {}
    try:
        for wl in WORKLOADS.values():
            cfg = work / f"{wl.name}.cfg"
            cfg.write_text(wl.config)
            out = work / wl.name
            argv = [sys.executable, "-m", "fglap.cli",
                    *wl.cli_args(cfg, out, 0)]
            rec = invoke(argv, work / f"{wl.name}.log", 170.0)
            summary = gate.summarize(wl.command, out)
            failures, _ = gate.check_run(wl.command, out, rec["exit_code"],
                                         summary)
            if failures:
                print(f"{wl.name}: {failures}", file=sys.stderr)
                return 1
            reference[wl.name] = summary
            print(f"{wl.name}: {rec['wall_s']:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
