"""One-off note: the 5-stage scheme at m=129 (power-solve settings) with
BLAS at its default thread count against one BLAS thread.

    python3 perfbench/blas_note.py [ROUNDS]

Run from the repository root. Each round starts one fresh interpreter per
setting, alternating which goes first, and times REPEATS calls of
``monotone_scheme`` in it; the note prints the median and quartiles of
all calls per setting.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from run import OUT, ROOT, child_env
from workloads import POWER_SOLVE

REPEATS = 3
PROBE = f"""\
import json, sys, time
from fglap import cli
rc = cli.load_config(sys.argv[1])
yf = cli.build_young(rc)
mesh = cli.Mesh(rc.meshes[0])
cfg, data = cli.build_operator(rc, yf), cli.build_data(rc, mesh)
times = []
for _ in range({REPEATS}):
    t0 = time.perf_counter()
    cli.monotone_scheme(cfg, data, mesh=mesh, n_schedule=rc.n_schedule)
    times.append(time.perf_counter() - t0)
print(json.dumps(times))
"""
SETTINGS = {"default": {}, "1 thread": {"OPENBLAS_NUM_THREADS": "1",
                                        "OMP_NUM_THREADS": "1",
                                        "MKL_NUM_THREADS": "1"}}


def main() -> int:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    OUT.mkdir(exist_ok=True)
    cfg = OUT / "blas-note.cfg"
    cfg.write_text(POWER_SOLVE.config.replace("mesh = 257", "mesh = 129"))
    times = {name: [] for name in SETTINGS}
    order = list(SETTINGS)
    for _ in range(rounds):
        for name in order:
            env = {k: v for k, v in child_env().items() if k not in
                   SETTINGS["1 thread"]}
            env.update(SETTINGS[name])
            proc = subprocess.run([sys.executable, "-c", PROBE, str(cfg)],
                                  capture_output=True, text=True, env=env,
                                  cwd=ROOT, check=True)
            times[name] += json.loads(proc.stdout)
        order.reverse()
    cfg.unlink()
    print(f"nproc {os.cpu_count()}; solver.scheme_s at m=129, "
          f"{rounds} rounds x {REPEATS} calls")
    for name, vals in times.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:>9}: median {med:.3f} s, quartiles {q1:.3f}-{q3:.3f} s, "
              f"range {min(vals):.3f}-{max(vals):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
