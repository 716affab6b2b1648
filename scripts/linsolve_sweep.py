"""Newton's linear solver: the LU against the rule `solver._newton` uses.

    python3 scripts/linsolve_sweep.py [--s 0.3 ...] [--m 129 ...] [--repeat 7]

Run from anywhere inside the repository. For every order s and mesh size m
given (by default s = 0.3, 0.5, 0.7, 0.9 and m = 129, 257, 513, 1025) it
times one workload on power 4 in this process, once with every Newton
direction from LAPACK's LU, and every far pair in the dense buffers, and
once with the shipped rule (Jacobi-preconditioned CG on systems of at
least `orlicz.CG_MIN_UNKNOWNS` unknowns at s <= `orlicz.CG_MAX_S`, the
LU otherwise; from m = 257 at s <= 1/2 the far pairs go by FFT):

- three ordered load pairs solved as one warm chain, as the comparison
  check does: loads uniform in [0.1, 2] plus a bump uniform in [0, 1]
  (seed 41), the first solve seeded from the cone, on all m - 2 interior
  unknowns;
- the monotone scheme with f = 1, q = 0.5 on the schedule (1, 2, 4), on
  the (m - 1)/2 half unknowns.

The two sides alternate after one untimed warm-up pair, at least
``--repeat`` times each and until each side has run for MIN_TIMED_S in
all, and the table gives each side's best wall time (the LU's threads
stall now and then, and the machine's load moves, which only ever adds
time), the Newton steps of one run, and the rule's CG iterations and CG
runs that fell back to the LU. Where the rule takes the LU for every
system (fewer than 128 unknowns on both paths, or s > 1/2), both sides
run the same code, and their ratio shows the timing noise.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fglap import orlicz, solver  # noqa: E402
from fglap.orlicz import GridFunction, Mesh, OperatorConfig  # noqa: E402
from fglap.young import PowerYoung  # noqa: E402

ORDERS = (0.3, 0.5, 0.7, 0.9)
MESHES = (129, 257, 513, 1025)
LOAD_PAIRS = 3
SEED = 41
MIN_TIMED_S = 1.0
STAT_KEYS = ("iterations", "cg_iterations", "cg_fallbacks")


def workload(cfg: OperatorConfig, mesh: Mesh) -> dict:
    """The load-pair chain and the scheme: the summed Newton stats."""
    totals = dict.fromkeys(STAT_KEYS, 0)

    def add(stats):
        for key in STAT_KEYS:
            totals[key] += stats[key]

    rng = random.Random(SEED)
    v = None
    for _ in range(LOAD_PAIRS):
        base = np.array([rng.uniform(0.1, 2.0) for _ in range(mesh.m)])
        bump = np.array([rng.uniform(0.0, 1.0) for _ in range(mesh.m)])
        u, stats = solver.solve_auxiliary(cfg, mesh, base, warm_start=v)
        add(stats)
        v, stats = solver.solve_auxiliary(cfg, mesh, base + bump, warm_start=u)
        add(stats)
    data = solver.ProblemData(f=GridFunction(mesh, np.ones(mesh.m)),
                              q=GridFunction(mesh, np.full(mesh.m, 0.5)))
    for stats in solver.monotone_scheme(cfg, data, n_schedule=(1, 2, 4)).newton:
        add(stats)
    return totals


def timed(cfg: OperatorConfig, mesh: Mesh, lu: bool) -> tuple[float, dict]:
    """Wall time and stats of one workload; ``lu`` routes every Newton
    direction to the LU of the assembled matrix, with the CG gate, which
    is the FFT path's too (`OperatorConfig.takes_cg`), closed."""
    gate = orlicz.CG_MIN_UNKNOWNS
    if lu:
        orlicz.CG_MIN_UNKNOWNS = sys.maxsize
    try:
        start = time.perf_counter()
        totals = workload(cfg, mesh)
        return time.perf_counter() - start, totals
    finally:
        orlicz.CG_MIN_UNKNOWNS = gate


def sweep(orders, meshes, repeat: int):
    """One row per (s, m), as each is measured."""
    for s in orders:
        cfg = OperatorConfig(young=PowerYoung(4.0), s=s)
        for m in meshes:
            mesh = Mesh(m)
            times = {True: [], False: []}
            stats = {}
            k = 0
            while k <= repeat or min(map(sum, times.values())) < MIN_TIMED_S:
                for lu in ((True, False) if k % 2 == 0 else (False, True)):
                    wall, stats[lu] = timed(cfg, mesh, lu)
                    if k:
                        times[lu].append(wall)
                k += 1
            lu_s, rule_s = (min(times[lu]) for lu in (True, False))
            yield {"s": s, "m": m, "lu_s": lu_s, "rule_s": rule_s,
                   "newton_lu": stats[True]["iterations"],
                   "newton_rule": stats[False]["iterations"],
                   "cg_iterations": stats[False]["cg_iterations"],
                   "cg_fallbacks": stats[False]["cg_fallbacks"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--s", type=float, action="append",
                        help="order s, repeatable (default: 0.3, 0.5, 0.7, 0.9)")
    parser.add_argument("--m", type=int, action="append",
                        help="mesh size, repeatable (default: 129, 257, 513, 1025)")
    parser.add_argument("--repeat", type=int, default=7,
                        help="timed runs per side (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print("| s | m | LU | rule | rule/LU | Newton steps, LU | Newton steps, "
          "rule | CG iterations | CG fallbacks |")
    print("|---|---|---|---|---|---|---|---|---|")
    for row in sweep(args.s or ORDERS, args.m or MESHES, args.repeat):
        print(f"| {row['s']:g} | {row['m']} | {row['lu_s']:.3f} s | "
              f"{row['rule_s']:.3f} s | {row['rule_s'] / row['lu_s']:.2f} | "
              f"{row['newton_lu']} | {row['newton_rule']} | "
              f"{row['cg_iterations']} | {row['cg_fallbacks']} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
