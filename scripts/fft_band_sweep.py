"""How far the power-4 FFT far pairs sit from the dense ones, per band width.

    python3 scripts/fft_band_sweep.py [--band 16 ...] [--m 257 ...] [--s 0.5 ...]

Run from anywhere inside the repository. For each band width b given
(by default 1, 4, 8, 16 and 32: offsets 2 ... b summed directly, so 1
means none), each mesh size m (by default 257, 1025 and 4097) and each
order s (by default 0.1, 0.3 and 0.5), it evaluates at
u = (1 - x^2)^s (1 + 0.1 sin 7x) the residual, the Jacobian product J v for
a seeded random v, full and folded-even at the even part of u, and the
far part of the modular, once on the FFT path (`orlicz.ToeplitzFar`) and
once in the dense far-pair buffers, and prints the largest gap of each,
relative to the largest dense entry (to the dense value for the energy),
with the FFT residual's process time: the best of TIMED_CALLS fresh
evaluations, since the machine's load only ever adds time. The dense side
takes 8 m^2 bytes: 134 MB at m = 4097.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fglap import orlicz  # noqa: E402
from fglap.fractional import assemble_matrix, fold, jacobian, residual  # noqa: E402
from fglap.orlicz import GridFunction, Mesh, OperatorConfig, modular_W_parts  # noqa: E402
from fglap.young import PowerYoung  # noqa: E402

BANDS = (1, 4, 8, 16, 32)
MESHES = (257, 1025, 4097)
ORDERS = (0.1, 0.3, 0.5)
QUANTITIES = ("residual", "J v", "J v even", "energy")
TIMED_CALLS = 5


@contextmanager
def band(width: int):
    """The FFT path with offsets 2 ... width summed directly."""
    saved = orlicz.FFT_BAND
    orlicz.FFT_BAND = width
    orlicz._toeplitz_far.cache_clear()
    try:
        yield
    finally:
        orlicz.FFT_BAND = saved
        orlicz._toeplitz_far.cache_clear()


@contextmanager
def dense():
    """Every far pair in the dense buffers, as off the FFT path's gate."""
    saved = orlicz.CG_MIN_UNKNOWNS
    orlicz.CG_MIN_UNKNOWNS = sys.maxsize
    try:
        yield
    finally:
        orlicz.CG_MIN_UNKNOWNS = saved


def evaluate(cfg: OperatorConfig, u: GridFunction, v: np.ndarray,
             fft: bool) -> dict:
    """The four quantities at u, on the FFT path or in the dense buffers."""
    m = u.mesh.m
    c = (m - 1) // 2
    sym = GridFunction(u.mesh, 0.5 * (u.values + u.values[::-1]))
    out = {"residual": residual(cfg, u, np.zeros(m)).values,
           "energy": np.array([modular_W_parts(cfg, u)["far"]])}
    if fft:
        out["J v"] = jacobian(cfg, u) @ v
        half = jacobian(cfg, sym, even=True) @ v[:c]
        out["J v even"] = half * np.r_[np.full(c - 1, 0.5), 1.0]
    else:
        out["J v"] = assemble_matrix(cfg, u) @ v
        out["J v even"] = fold(assemble_matrix(cfg, sym, even=True)) @ v[:c]
    return out


def fresh_residual_time(cfg: OperatorConfig, u: GridFunction) -> float:
    """The process time of one residual at u, evaluated afresh, not from
    an earlier record."""
    orlicz._FAR.last = None
    t0 = time.process_time()
    residual(cfg, u, np.zeros(u.mesh.m))
    return time.process_time() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--band", type=int, action="append",
                        help="band width, repeatable (default: 1, 4, 8, 16, 32)")
    parser.add_argument("--m", type=int, action="append",
                        help="odd mesh size of at least 257, repeatable")
    parser.add_argument("--s", type=float, action="append",
                        help="order in (0, 1/2], repeatable")
    args = parser.parse_args(argv)
    widths, meshes, orders = args.band or BANDS, args.m or MESHES, args.s or ORDERS
    if any(b < 1 for b in widths):
        parser.error("--band must be at least 1")
    if any(m < 257 or m % 2 == 0 for m in meshes):
        parser.error("--m must be odd and at least 257")
    if any(not 0.0 < s <= orlicz.CG_MAX_S for s in orders):
        parser.error("--s must lie in (0, 1/2]")
    print("| band | m | s | " + " | ".join(QUANTITIES) + " | FFT residual |")
    print("|---|---|---|" + "---|" * (len(QUANTITIES) + 1))
    for m in meshes:
        mesh = Mesh(m)
        v = np.random.default_rng(m).uniform(-1.0, 1.0, m - 2)
        for s in orders:
            cfg = OperatorConfig(young=PowerYoung(4.0), s=s)
            x = mesh.nodes
            u = GridFunction(mesh, (1.0 - x ** 2) ** s * (1.0 + 0.1 * np.sin(7.0 * x)))
            with dense():
                want = evaluate(cfg, u, v, fft=False)
            for width in widths:
                with band(width):
                    got = evaluate(cfg, u, v, fft=True)
                    took = min(fresh_residual_time(cfg, u)
                               for _ in range(TIMED_CALLS))
                gaps = [np.max(np.abs(got[q] - want[q])) / np.max(np.abs(want[q]))
                        for q in QUANTITIES]
                print(f"| {width} | {m} | {s:g} | "
                      + " | ".join(f"{g:.1e}" for g in gaps)
                      + f" | {1e3 * took:.2f} ms |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
