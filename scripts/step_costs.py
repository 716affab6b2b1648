"""The cost of one Newton step, split into its three parts.

    python3 scripts/step_costs.py [--m 65 ...] [--repeat 30]

Run from anywhere inside the repository. For each Young family (power 4,
double-power (3, 4) and log-type (2, 2, 1)) at s = 0.3, each mesh size m
given (by default 65, 257 and 513) and both paths of `solver._newton`
(all interior unknowns, and the half unknowns of even data on an odd
mesh), it repeats one Newton step at a fixed iterate in this process,
on the path that `_newton` takes there: `fractional.residual` under the
load f = 1, the Jacobian right after it from `solver._jacobian` (so it
reuses what the residual recorded, as in `_newton`), and
`solver._direction` on it, with the relative CG tolerance that `_newton`
would force at that residual. Where the far pairs go by FFT (power 4 from
m = 257 on, column "far pairs"), the Jacobian is the set-up of a
`fractional.JacobianProduct` and the direction is matrix-free CG;
elsewhere it is `fractional.assemble_matrix` and CG or the LU on the
assembled matrix. The iterate, 0.8 (1 - x^2)^0.3 (1 + 0.2 cos(pi x)), is
even and near a stage solution.

Each part is timed with `time.process_time`, and the table gives the best
of ``--repeat`` steps in microseconds per call, after one untimed step:
the machine's load only ever adds time, and CPU time does not count the
waits of a preempted process. It also gives the CG iterations per
`_direction` call (0 where the LU takes the system: fewer than
`solver.CG_MIN_UNKNOWNS` unknowns). Above m = 4097 only the FFT path's
rows are run, since the dense buffers would take 8 m^2 bytes.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fglap import solver  # noqa: E402
from fglap.fractional import residual  # noqa: E402
from fglap.orlicz import _FAR, GridFunction, Mesh, OperatorConfig  # noqa: E402
from fglap.young import DoublePowerYoung, LogTypeYoung, PowerYoung  # noqa: E402

FAMILIES = (PowerYoung(4.0), DoublePowerYoung(3.0, 4.0), LogTypeYoung(2.0, 2.0, 1.0))
MESHES = (65, 257, 513)
# the largest mesh given a row on the dense far-pair buffers, whose 8 m^2
# bytes are 134 MB here and 2.1 GB at m = 16385
DENSE_MAX_NODES = 4097
ORDER = 0.3
PARTS = ("residual", "assemble", "direction")


def step_costs(cfg: OperatorConfig, m: int, even: bool, repeat: int) -> dict:
    """Best process time per part in seconds, and CG iterations per step."""
    mesh = Mesh(m)
    x = mesh.nodes
    u = GridFunction(mesh, 0.8 * (1.0 - x ** 2) ** 0.3
                     * (1.0 + 0.2 * np.cos(np.pi * x)))
    rhs = np.ones(m)
    live = slice(1, (m + 1) // 2 if even else m - 1)
    best = dict.fromkeys(PARTS, float("inf"))
    stats = {"cg_iterations": 0, "cg_fallbacks": 0}
    for k in range(repeat + 1):
        if k == 1:    # count the timed steps only
            stats["cg_iterations"] = 0
        # evaluated afresh, as at a new iterate, not from an earlier record
        _FAR.last = _FAR.spectral = None
        t0 = time.process_time()
        r = residual(cfg, u, rhs, even=even).values[live]
        t1 = time.process_time()
        # `_newton` has the residual sup and the load's scale from its stop test
        rtol = solver._forcing(float(np.max(np.abs(r))), 1.0 + float(np.max(rhs)))
        t2 = time.process_time()
        jac, _ = solver._jacobian(cfg, u, even, r.size)
        t3 = time.process_time()
        solver._direction(jac, r, even, cfg.s, rtol, stats)
        t4 = time.process_time()
        if k:
            for part, dt in zip(PARTS, (t1 - t0, t3 - t2, t4 - t3)):
                best[part] = min(best[part], dt)
    return {**best, "cg_per_call": stats["cg_iterations"] / repeat,
            "far": "dense" if cfg.toeplitz_far(m) is None else "FFT"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--m", type=int, action="append",
                        help="odd mesh size, repeatable (default: 65, 257, 513)")
    parser.add_argument("--repeat", type=int, default=30,
                        help="timed steps per row (default 30)")
    args = parser.parse_args(argv)
    meshes = args.m or MESHES
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if any(m < 9 or m % 2 == 0 for m in meshes):
        parser.error("--m must be odd and at least 9")
    print("| family | m | path | far pairs | residual | Jacobian | _direction | "
          "CG iterations per call |")
    print("|---|---|---|---|---|---|---|---|")
    for yf in FAMILIES:
        cfg = OperatorConfig(young=yf, s=ORDER)
        for m in meshes:
            if m > DENSE_MAX_NODES and cfg.toeplitz_far(m) is None:
                continue
            for even in (False, True):
                row = step_costs(cfg, m, even, args.repeat)
                print(f"| {yf.label} | {m} | {'even' if even else 'full'} | "
                      f"{row['far']} | "
                      + " | ".join(f"{1e6 * row[p]:.0f} µs" for p in PARTS)
                      + f" | {row['cg_per_call']:.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
