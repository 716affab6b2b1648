"""Young-primitive micro table: microseconds per point for each family and
primitive, on seeded log-uniform points in [1e-3, 1e3].

    python3 perfbench/micro.py SEED [POINTS]

Prints one JSON object mapping ``young.<family>.<prim>_us_per_pt`` to its
value. Each primitive gets one warm call, then timed calls on the same
points until MIN_TIMED_S has passed (at least one); the median is kept.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from fglap.young import eval_Gbar, make_young

FAMILIES = {
    "power": {"p": 4.0},
    "double-power": {"p1": 3.0, "p2": 4.0},
    "log-type": {"a": 2.0, "b": 2.0, "c": 1.0},
}
PRIMS = ("G", "lam", "G_inverse", "g_inverse", "Gbar")
MIN_TIMED_S = 0.1


def micro_table(seed: int, points: int = 1000) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), points))
    out = {}
    for family, params in FAMILIES.items():
        yf = make_young(family, **params)
        calls = {"G": yf.G, "lam": yf.lam, "G_inverse": yf.G_inverse,
                 "g_inverse": yf.g_inverse,
                 "Gbar": lambda y, yf=yf: eval_Gbar(yf, y)}
        for prim in PRIMS:
            fn = calls[prim]
            fn(t)
            times = []
            while sum(times) < MIN_TIMED_S:
                t0 = time.perf_counter()
                fn(t)
                times.append(time.perf_counter() - t0)
            out[f"young.{family}.{prim}_us_per_pt"] = (
                1e6 * statistics.median(times) / points)
    return out


if __name__ == "__main__":
    seed = int(sys.argv[1])
    points = int(sys.argv[2]) if len(sys.argv) > 2 else 1000
    print(json.dumps(micro_table(seed, points)))
