"""Scenario runner: flat key=value configs in, CSV tables and an SVG plot
of the stages (unless switched off) out.

Exit codes: 0 success, 1 numeric or invariant failure, 2 configuration
error. Every emitted number carries 12 significant digits and files use
LF line endings, so reruns with the same config and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checks import (DEFAULT_SEED, DELTA2_MIN_SAMPLES, CheckOutcome,
                     check_comparison, check_growth_bounds, run_check_suite)
from .errors import (ConfigurationError, ConvergenceError, DomainError,
                     FglapError, InvariantError)
from .orlicz import GridFunction, Mesh, OperatorConfig
from .solver import (ProblemData, SolveReport, boundary_energy_report,
                     check_schedule, monotone_scheme)
from .young import FAMILIES, YoungFunction, make_young


@dataclass
class RunConfig:
    """Run settings. `load_config` checks them by building the library
    objects that use them, so each condition is stated once, there."""

    family: str
    params: dict
    s: float
    meshes: tuple[int, ...] = ()  # empty: each command uses its own
    case: str = "main1"
    f_spec: str = "const:1"
    q_spec: str = "const:0.5"
    q_star: float = 2.0
    delta: float = 0.25
    n_schedule: tuple[int, ...] = (1, 2, 4, 8, 16)
    seed: int = DEFAULT_SEED
    out: Path = field(default_factory=lambda: Path("."))
    plot: bool = True
    samples: int = 1000
    declared_p_minus: float | None = None
    declared_p_plus: float | None = None


def _fmt(x: float) -> str:
    """12 significant digits, stable across runs."""
    return f"{float(x):.11e}"


def parse_config_text(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"config line {ln} is not a key=value pair: {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key not in _KNOWN_KEYS:
            raise ConfigurationError(
                f"unknown config key {key!r} on line {ln}; known keys: "
                + ", ".join(sorted(_KNOWN_KEYS)))
        if key in raw:
            raise ConfigurationError(f"config key {key!r} is set again on line {ln}")
        raw[key] = value.strip()
    return raw


def _required(raw: dict, key: str) -> str:
    if key not in raw:
        raise ConfigurationError(f"config key {key!r} is required")
    return raw[key]


def _as_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(
            f"config key {key!r} must be a number, got {text!r}") from None


def _as_int(key: str, text: str) -> int:
    """Integer keys accept integral numbers only ("3", "3.0", "1e3")."""
    val = _as_float(key, text)
    if not val.is_integer():
        raise ConfigurationError(
            f"config key {key!r} must be an integer, got {text!r}")
    return int(val)


def _as_int_list(key: str, text: str) -> tuple[int, ...]:
    vals = tuple(_as_int(key, part) for part in text.split(",") if part.strip())
    if not vals:
        raise ConfigurationError(f"config key {key!r} is empty")
    return vals


def _as_bool(key: str, text: str) -> bool:
    val = text.lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(
        f"config key {key!r} must be a boolean, got {text!r}")


# optional config keys: the RunConfig field each sets and the parser of its
# value; a key the file leaves out keeps the field's default
_OPTIONAL_KEYS = {
    "mesh": ("meshes", _as_int_list),
    "case": ("case", lambda key, text: text),
    "f": ("f_spec", lambda key, text: text),
    "q": ("q_spec", lambda key, text: text),
    "q_star": ("q_star", _as_float),
    "delta": ("delta", _as_float),
    "n_schedule": ("n_schedule", _as_int_list),
    "seed": ("seed", _as_int),
    "out": ("out", lambda key, text: Path(text)),
    "plot": ("plot", _as_bool),
    "samples": ("samples", _as_int),
    "declared_p_minus": ("declared_p_minus", _as_float),
    "declared_p_plus": ("declared_p_plus", _as_float),
}

_PARAM_KEYS = {name for cls in FAMILIES.values() for name in cls.params}
_KNOWN_KEYS = {"family", "s"} | set(_OPTIONAL_KEYS) | _PARAM_KEYS


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    raw = parse_config_text(text)

    params = {key: _as_float(key, value) for key, value in raw.items()
              if key in _PARAM_KEYS}
    s = _as_float("s", _required(raw, "s"))
    optional = {fld: parse(key, raw[key])
                for key, (fld, parse) in _OPTIONAL_KEYS.items() if key in raw}
    rc = RunConfig(family=_required(raw, "family"), params=params, s=s,
                   **optional)

    # fail at parse time, not deep in the pipeline: build what the commands do
    if rc.case not in ("main1", "main2"):
        raise ConfigurationError(
            f"config key 'case' must be main1 or main2, got {rc.case!r}")
    build_operator(rc, build_young(rc))
    for m in rc.meshes:
        Mesh(m)
    if rc.seed < 0:
        raise ConfigurationError(
            f"config key 'seed' must be nonnegative, got {rc.seed}")
    if rc.samples < DELTA2_MIN_SAMPLES:
        raise ConfigurationError(
            f"config key 'samples' must be at least {DELTA2_MIN_SAMPLES}, "
            f"got {rc.samples}")
    _parse_profile(rc.f_spec, "f")
    _parse_profile(rc.q_spec, "q")
    check_schedule(rc.n_schedule)
    return rc


def build_young(rc: RunConfig) -> YoungFunction:
    yf = make_young(rc.family, **rc.params)
    if rc.declared_p_minus is not None:
        yf.p_minus = float(rc.declared_p_minus)
    if rc.declared_p_plus is not None:
        yf.p_plus = float(rc.declared_p_plus)
    return yf


def build_operator(rc: RunConfig, yf: YoungFunction) -> OperatorConfig:
    return OperatorConfig(yf, rc.s)


def _gaussian(amp: float, center: float, width: float):
    if width <= 0:
        raise ValueError("gaussian width must be positive")
    return lambda x: amp * np.exp(-(((x - center) / width) ** 2))


def _bump(amp: float):
    def bump(x):
        inside = np.abs(x) < 1.0
        out = np.zeros(x.size)
        out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        return out
    return bump


def _abs_power(amp: float, expo: float):
    if expo < 0:
        raise ValueError("abs-power exponent must be nonnegative")
    return lambda x: amp * np.abs(x) ** expo


# profile tag -> (argument count, the function from the arguments to the
# profile at given nodes, raising ValueError on inadmissible arguments);
# `file:path` takes a path instead
_PROFILES = {
    "const": (1, lambda c: lambda x: np.full(x.size, c)),
    "gaussian": (3, _gaussian),
    "bump": (1, _bump),
    "abs-power": (2, _abs_power),
}


def _parse_profile(spec: str, key: str) -> Callable[[np.ndarray], np.ndarray]:
    """The profile ``spec`` of config key ``key`` as a function of the mesh
    nodes. Every check that needs no mesh runs here, so `load_config`
    rejects a malformed profile before any work."""
    try:
        return _PROFILES["const"][1](float(spec))  # a bare number c is const:c
    except ValueError:
        pass
    tag, _, argstr = spec.partition(":")
    if tag == "file":
        try:
            # a file with no data warns; make that the error it is
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                vals = np.loadtxt(argstr, dtype=float)
        except (OSError, ValueError, UserWarning) as exc:
            raise ConfigurationError(
                f"config key {key!r}: cannot read nodal file {argstr}: {exc}") from None

        def nodal(x):
            if vals.shape != x.shape:
                raise ConfigurationError(
                    f"config key {key!r}: nodal file {argstr} holds "
                    f"{vals.size} values but the mesh has {x.size} nodes")
            return vals
        return nodal
    if tag not in _PROFILES:
        raise ConfigurationError(
            f"config key {key!r}: unknown profile tag {tag!r}; allowed: "
            + ", ".join([*_PROFILES, "file"]) + ", or a bare number")
    nargs, profile = _PROFILES[tag]
    try:
        args = [float(part) for part in argstr.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(
            f"config key {key!r}: non-numeric arguments in {spec!r}") from None
    if len(args) != nargs:
        raise ConfigurationError(
            f"config key {key!r}: tag {tag!r} takes {nargs} argument(s), "
            f"got {len(args)} in {spec!r}")
    try:
        return profile(*args)
    except ValueError as exc:
        raise ConfigurationError(f"config key {key!r}: {exc}") from None


def eval_profile(spec: str, mesh: Mesh, key: str) -> np.ndarray:
    """Evaluate a whitelisted profile expression on the mesh nodes."""
    return _parse_profile(spec, key)(mesh.nodes)


def build_data(rc: RunConfig, mesh: Mesh) -> ProblemData:
    f_vals = eval_profile(rc.f_spec, mesh, "f")
    q_vals = eval_profile(rc.q_spec, mesh, "q")
    return ProblemData(f=GridFunction(mesh, f_vals),
                       q=GridFunction(mesh, q_vals),
                       case=rc.case, q_star=rc.q_star, delta=rc.delta)


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def run_verification(rc: RunConfig, yf: YoungFunction,
                     mesh: Mesh) -> list[CheckOutcome]:
    outcomes = [check_growth_bounds(yf)]
    outcomes += run_check_suite(yf, q_star=rc.q_star, n_samples=rc.samples,
                                seed=rc.seed)
    cfg = build_operator(rc, yf)
    outcomes.append(check_comparison(cfg, mesh, seed=rc.seed))
    return outcomes


def _emit_outcomes(outcomes: list[CheckOutcome], out_dir: Path) -> bool:
    rows = [[o.name, str(o.n_samples), _fmt(o.worst_margin),
             "1" if o.passed else "0"] for o in outcomes]
    write_csv(out_dir / "checks.csv",
              ["check", "samples", "worst_margin", "pass"], rows)
    for o in outcomes:
        print(o)
        if not o.passed:
            print(f"  offending sample: {o.offending}", file=sys.stderr)
    return all(o.passed for o in outcomes)


def cmd_check_young(rc: RunConfig) -> int:
    yf = build_young(rc)
    mesh = Mesh(min(rc.meshes) if rc.meshes else 33)
    ok = _emit_outcomes(run_verification(rc, yf, mesh), rc.out)
    return 0 if ok else 1


def cmd_solve(rc: RunConfig) -> int:
    meshes = rc.meshes or (65,)
    if len(meshes) != 1:
        raise ConfigurationError(
            "solve expects a single mesh size; give 'mesh = <M>' "
            "(convergence studies use the convergence subcommand)")
    yf = build_young(rc)
    mesh = Mesh(meshes[0])
    cfg = build_operator(rc, yf)
    data = build_data(rc, mesh)
    data.validate_family(cfg)

    # the inequalities below feed the convergence argument: a failed check
    # means the family cannot drive this pipeline
    outcomes = run_verification(rc, yf, mesh)
    if not _emit_outcomes(outcomes, rc.out):
        print("verification failed; refusing to run the solver pipeline",
              file=sys.stderr)
        return 1

    report = monotone_scheme(cfg, data, mesh=mesh, n_schedule=rc.n_schedule)
    diag = boundary_energy_report(report)
    _write_solution(rc, report)
    _write_diagnostics(rc, report, diag)
    if rc.plot:
        _write_plot(rc, report)
    if not diag["bounded"]:
        print("warning: boundary energies exceed twice the median of the "
              "last three stages", file=sys.stderr)
    print(f"solved: {len(report.n_values)} stages, "
          f"l_middle={report.l_middle:.6g}, alpha_hat={report.alpha_hat:.4g}")
    return 0


def _write_solution(rc: RunConfig, report: SolveReport) -> None:
    header = ["x"] + [f"u[n={n}]" for n in report.n_values]
    rows = []
    for i, x in enumerate(report.mesh.nodes):
        rows.append([_fmt(x)] + [_fmt(u.values[i]) for u in report.solutions])
    write_csv(rc.out / "solution.csv", header, rows)


# diagnostics.csv's per-stage Newton rows: (row name, stats key, formatter)
_NEWTON_ROWS = (
    ("fixed_point_iterations", "iterations", str),
    ("residual_sup", "residual_sup", _fmt),
    ("seed_residual_evaluations", "seed_evaluations", str),
    ("residual_evaluations", "residual_evaluations", str),
    ("line_search_backtracks", "line_search_backtracks", str),
    ("levenberg_shift_max", "levenberg_shift_max", _fmt),
)


def _write_diagnostics(rc: RunConfig, report: SolveReport, diag: dict) -> None:
    rows = []
    for k, (n, stats) in enumerate(zip(report.n_values, report.newton)):
        rows.append([f"modular_energy[{report.energy_case}]", str(n),
                     _fmt(diag["modular"][k])])
        rows.append([f"seminorm[{report.energy_case}]", str(n),
                     _fmt(diag["energies"][k])])
        rows += [[name, str(n), fmt(stats[key])] for name, key, fmt in _NEWTON_ROWS]
        if k > 0:
            rows.append(["sup_diff_prev_stage", str(n),
                         _fmt(report.sup_diffs[k - 1])])
    rows.append(["l_middle", "", _fmt(report.l_middle)])
    rows.append(["alpha_hat", "", _fmt(report.alpha_hat)])
    rows.append(["holder_seminorm", "", _fmt(report.holder_seminorm)])
    rows.append(["n_sequence_converged", "", "1" if report.converged else "0"])
    rows.append(["energies_bounded", "", "1" if diag["bounded"] else "0"])
    write_csv(rc.out / "diagnostics.csv", ["quantity", "n", "value"], rows)


_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _write_plot(rc: RunConfig, report: SolveReport) -> None:
    """solution.svg: one polyline per stage over the mesh, with axes and an
    n= legend. Plain stdlib SVG at fixed precision, so reruns are
    byte-identical."""
    width, height, left, right, top, bottom = 600, 400, 60, 20, 20, 40
    x = report.mesh.nodes
    u_lo = min(0.0, min(float(u.values.min()) for u in report.solutions))
    u_hi = max(float(u.values.max()) for u in report.solutions)
    u_hi = u_hi if u_hi > u_lo else u_lo + 1.0

    def px(v):
        return left + (v - x[0]) / (x[-1] - x[0]) * (width - left - right)

    def py(v):
        return height - bottom - (v - u_lo) / (u_hi - u_lo) * (height - top - bottom)

    x0, x1, y0, y1 = px(x[0]), px(x[-1]), py(u_lo), py(u_hi)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<path d="M{x0:.2f},{y1:.2f} V{y0:.2f} H{x1:.2f}" '
        'fill="none" stroke="black"/>',
        f'<text x="{x0:.2f}" y="{y0 + 16:.2f}" text-anchor="middle">{x[0]:.4g}</text>',
        f'<text x="{x1:.2f}" y="{y0 + 16:.2f}" text-anchor="middle">{x[-1]:.4g}</text>',
        f'<text x="{(x0 + x1) / 2:.2f}" y="{height - 8}" text-anchor="middle">x</text>',
        f'<text x="{x0 - 4:.2f}" y="{y0:.2f}" text-anchor="end">{u_lo:.4g}</text>',
        f'<text x="{x0 - 4:.2f}" y="{y1 + 8:.2f}" text-anchor="end">{u_hi:.4g}</text>',
        f'<text x="{left / 2:.2f}" y="{(y0 + y1) / 2:.2f}" text-anchor="middle">u</text>',
    ]
    for k, (n, u) in enumerate(zip(report.n_values, report.solutions)):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        points = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, u.values))
        lines.append(f'<polyline fill="none" stroke="{color}" points="{points}"/>')
        ly = top + 14 * (k + 1)
        lines.append(f'<line x1="{x1 - 70:.2f}" y1="{ly - 4}" x2="{x1 - 50:.2f}" '
                     f'y2="{ly - 4}" stroke="{color}"/>')
        lines.append(f'<text x="{x1 - 45:.2f}" y="{ly}">n={n}</text>')
    lines.append("</svg>")
    with open(rc.out / "solution.svg", "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_convergence(rc: RunConfig) -> int:
    meshes = [Mesh(m) for m in rc.meshes or (33, 65, 129)]
    if len(meshes) < 2:
        raise ConfigurationError(
            "convergence needs at least two mesh sizes, e.g. "
            "'mesh = 33,65,129'")
    shared = [coarse.coarse_index_in(fine)
              for coarse, fine in zip(meshes, meshes[1:])]
    cfg = build_operator(rc, build_young(rc))

    finals = [monotone_scheme(cfg, build_data(rc, mesh), mesh=mesh,
                              n_schedule=rc.n_schedule).final for mesh in meshes]
    rows = []
    diffs = []
    for idx, coarse, fine in zip(shared, finals, finals[1:]):
        diff = float(np.max(np.abs(coarse.values - fine.values[idx])))
        diffs.append(diff)
        rows.append([f"M{coarse.mesh.m}_vs_M{fine.mesh.m}",
                     str(coarse.mesh.m), str(fine.mesh.m), _fmt(diff)])
    write_csv(rc.out / "convergence.csv",
              ["pair", "m_coarse", "m_fine", "sup_diff"], rows)

    for pair, diff in zip(rows, diffs):
        print(f"{pair[0]}: sup diff {diff:.6e}")
    decreasing = all(b <= a * (1.0 + 1e-12) + 1e-15
                     for a, b in zip(diffs, diffs[1:]))
    if not decreasing:
        print("mesh refinement differences are not decreasing", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fglap",
        description="Verification suite and solve pipeline for a singular "
                    "nonlocal problem with Orlicz growth on (-1, 1).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("check-young", "run the inequality checks, write checks.csv"),
                      ("solve", "run the full pipeline, write solution/diagnostics"),
                      ("convergence", "mesh refinement study, write convergence.csv")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--no-plot", action="store_true",
                       help="skip SVG output")
    args = parser.parse_args(argv)

    try:
        rc = load_config(args.config)
        if args.out is not None:
            rc.out = Path(args.out)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigurationError(f"--seed must be nonnegative, got {args.seed}")
            rc.seed = args.seed
        if args.no_plot:
            rc.plot = False
        try:
            rc.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create {rc.out}: {exc.strerror}") from None
        handler = {"check-young": cmd_check_young,
                   "solve": cmd_solve,
                   "convergence": cmd_convergence}[args.command]
        return handler(rc)
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, ConvergenceError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except FglapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
