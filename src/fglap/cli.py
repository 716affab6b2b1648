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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checks import (DEFAULT_SEED, CheckOutcome, check_comparison,
                     check_growth_bounds, run_check_suite)
from .errors import (ConfigurationError, ConvergenceError, DomainError,
                     FglapError, InvariantError)
from .orlicz import GridFunction, Mesh, OperatorConfig
from .solver import (ProblemData, SolveReport, boundary_energy_report,
                     monotone_scheme)
from .young import YoungFunction, make_young

FAMILY_PARAMS = {
    "power": ("p",),
    "double-power": ("p1", "p2"),
    "log-type": ("a", "b", "c"),
}

_KNOWN_KEYS = {
    "family", "p", "p1", "p2", "a", "b", "c", "s", "mesh", "case", "f", "q",
    "q_star", "delta", "n_schedule", "seed", "out", "plot", "samples", "eps",
    "declared_p_minus", "declared_p_plus", "tol_stop", "tol_mono",
}

_PROFILE_TAGS = ("const", "gaussian", "bump", "abs-power", "file")


@dataclass
class RunConfig:
    """Validated run settings; every module-level precondition is
    re-checked here at parse time so failures carry the config key."""

    family: str
    params: dict
    s: float
    meshes: tuple[int, ...]
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
    eps: float = 1.0
    declared_p_minus: float | None = None
    declared_p_plus: float | None = None
    tol_stop: float = 1e-6
    tol_mono: float = 1e-7


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
        raw[key] = value.strip()
    return raw


def _as_float(raw: dict, key: str, default=None) -> float:
    if key not in raw:
        if default is None:
            raise ConfigurationError(f"config key {key!r} is required")
        return default
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigurationError(
            f"config key {key!r} must be a number, got {raw[key]!r}") from None


def _as_int(raw: dict, key: str, default: int) -> int:
    """Integer keys accept integral numbers only ("3", "3.0", "1e3")."""
    val = _as_float(raw, key, float(default))
    if not val.is_integer():
        raise ConfigurationError(
            f"config key {key!r} must be an integer, got {raw[key]!r}")
    return int(val)


def _as_int_list(raw: dict, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
    """Empty default means "key absent"; commands fill their own default."""
    if key not in raw:
        return default
    try:
        vals = tuple(int(part) for part in raw[key].split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(
            f"config key {key!r} must be a comma-separated integer list, "
            f"got {raw[key]!r}") from None
    if not vals:
        raise ConfigurationError(f"config key {key!r} is empty")
    return vals


def _as_bool(raw: dict, key: str, default: bool) -> bool:
    if key not in raw:
        return default
    val = raw[key].lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(
        f"config key {key!r} must be a boolean, got {raw[key]!r}")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    raw = parse_config_text(path.read_text())

    family = raw.get("family", "")
    if family not in FAMILY_PARAMS:
        raise ConfigurationError(
            f"config key 'family' must be one of {sorted(FAMILY_PARAMS)}, "
            f"got {family!r}")
    params = {name: _as_float(raw, name) for name in FAMILY_PARAMS[family]}

    case = raw.get("case", "main1")
    if case not in ("main1", "main2"):
        raise ConfigurationError(
            f"config key 'case' must be main1 or main2, got {case!r}")

    rc = RunConfig(
        family=family,
        params=params,
        s=_as_float(raw, "s"),
        meshes=_as_int_list(raw, "mesh", ()),
        case=case,
        f_spec=raw.get("f", "const:1"),
        q_spec=raw.get("q", "const:0.5"),
        q_star=_as_float(raw, "q_star", 2.0),
        delta=_as_float(raw, "delta", 0.25),
        n_schedule=_as_int_list(raw, "n_schedule", (1, 2, 4, 8, 16)),
        seed=_as_int(raw, "seed", DEFAULT_SEED),
        out=Path(raw["out"]) if "out" in raw else Path("."),
        plot=_as_bool(raw, "plot", True),
        samples=_as_int(raw, "samples", 1000),
        eps=_as_float(raw, "eps", 1.0),
        declared_p_minus=(None if "declared_p_minus" not in raw
                          else _as_float(raw, "declared_p_minus")),
        declared_p_plus=(None if "declared_p_plus" not in raw
                         else _as_float(raw, "declared_p_plus")),
        tol_stop=_as_float(raw, "tol_stop", 1e-6),
        tol_mono=_as_float(raw, "tol_mono", 1e-7),
    )

    # fail at parse time, with the offending key, not deep in the pipeline
    build_young(rc)
    for m in rc.meshes:
        Mesh(m)
    if not (0.0 < rc.s < 1.0):
        raise ConfigurationError(f"config key 's' must lie in (0, 1), got {rc.s}")
    for spec, key in ((rc.f_spec, "f"), (rc.q_spec, "q")):
        _validate_profile_spec(spec, key)
    if rc.n_schedule[0] < 1 or any(b <= a for a, b in zip(rc.n_schedule,
                                                         rc.n_schedule[1:])):
        raise ConfigurationError("config key 'n_schedule' must be strictly "
                                 "increasing and start at 1 or above")
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


def _validate_profile_spec(spec: str, key: str) -> None:
    try:
        float(spec)
        return
    except ValueError:
        pass
    tag = spec.split(":", 1)[0]
    if tag not in _PROFILE_TAGS:
        raise ConfigurationError(
            f"config key {key!r}: unknown profile tag {tag!r}; allowed: "
            + ", ".join(_PROFILE_TAGS) + ", or a bare number")


def eval_profile(spec: str, mesh: Mesh, key: str) -> np.ndarray:
    """Evaluate a whitelisted profile expression on the mesh nodes."""
    x = mesh.nodes
    try:
        return np.full(mesh.m, float(spec))
    except ValueError:
        pass
    tag, _, argstr = spec.partition(":")
    if tag == "file":
        path = Path(argstr)
        if not path.is_file():
            raise ConfigurationError(
                f"config key {key!r}: nodal file not found: {path}")
        vals = np.loadtxt(path, dtype=float)
        if vals.shape != (mesh.m,):
            raise ConfigurationError(
                f"config key {key!r}: nodal file {path} holds "
                f"{vals.size} values but the mesh has {mesh.m} nodes")
        return vals
    try:
        args = [float(part) for part in argstr.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(
            f"config key {key!r}: non-numeric arguments in {spec!r}") from None

    def need(n):
        if len(args) != n:
            raise ConfigurationError(
                f"config key {key!r}: tag {tag!r} takes {n} argument(s), "
                f"got {len(args)} in {spec!r}")

    if tag == "const":
        need(1)
        return np.full(mesh.m, args[0])
    if tag == "gaussian":
        need(3)
        amp, center, width = args
        if width <= 0:
            raise ConfigurationError(
                f"config key {key!r}: gaussian width must be positive")
        return amp * np.exp(-(((x - center) / width) ** 2))
    if tag == "bump":
        need(1)
        inside = np.abs(x) < 1.0
        out = np.zeros(mesh.m)
        out[inside] = args[0] * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        return out
    if tag == "abs-power":
        need(2)
        amp, expo = args
        if expo < 0:
            raise ConfigurationError(
                f"config key {key!r}: abs-power exponent must be nonnegative")
        return amp * np.abs(x) ** expo
    raise ConfigurationError(
        f"config key {key!r}: unknown profile tag in {spec!r}; allowed: "
        + ", ".join(_PROFILE_TAGS) + ", or a bare number")


def build_data(rc: RunConfig, mesh: Mesh) -> ProblemData:
    f_vals = eval_profile(rc.f_spec, mesh, "f")
    q_vals = eval_profile(rc.q_spec, mesh, "q")
    if f_vals.min() < 0.0:
        raise ConfigurationError("config key 'f': the load must be nonnegative")
    if q_vals.min() < 0.0:
        raise ConfigurationError("config key 'q': the exponent must be nonnegative")
    return ProblemData(f=GridFunction(mesh, f_vals),
                       q=GridFunction(mesh, q_vals),
                       case=rc.case, q_star=rc.q_star, delta=rc.delta)


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def run_verification(rc: RunConfig, yf: YoungFunction,
                     mesh: Mesh) -> list[CheckOutcome]:
    outcomes = [check_growth_bounds(yf)]
    outcomes += run_check_suite(yf, q_star=rc.q_star, eps=rc.eps,
                                n_samples=rc.samples, seed=rc.seed)
    cfg = build_operator(rc, yf)
    outcomes.append(check_comparison(cfg, 20, mesh=mesh, seed=rc.seed))
    return outcomes


def _emit_outcomes(outcomes: list[CheckOutcome], out_dir: Path) -> bool:
    rows = [[o.name, str(o.n_samples), _fmt(o.worst_margin),
             "1" if o.passed else "0"] for o in outcomes]
    write_csv(out_dir / "checks.csv",
              ["check", "samples", "worst_margin", "pass"], rows)
    ok = True
    for o in outcomes:
        print(o)
        if not o.passed:
            ok = False
            print(f"  offending sample: {o.offending}", file=sys.stderr)
    return ok


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

    try:
        report = monotone_scheme(cfg, data, mesh=mesh,
                                 n_schedule=rc.n_schedule,
                                 tol_stop=rc.tol_stop, tol_mono=rc.tol_mono)
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 1

    diag = boundary_energy_report(report, data)
    if not diag["bounded"]:
        report.warnings.append("boundary energies exceed twice the median "
                               "of the last three stages")

    _write_solution(rc, report)
    _write_diagnostics(rc, report, diag)
    if rc.plot:
        _write_plot(rc, report)
    for line in report.warnings:
        print(f"warning: {line}", file=sys.stderr)
    print(f"solved: {len(report.n_values)} stages, "
          f"l_middle={report.l_middle:.6g}, alpha_hat={report.alpha_hat:.4g}")
    return 0


def _write_solution(rc: RunConfig, report: SolveReport) -> None:
    header = ["x"] + [f"u[n={n}]" for n in report.n_values]
    rows = []
    for i, x in enumerate(report.mesh.nodes):
        rows.append([_fmt(x)] + [_fmt(u.values[i]) for u in report.solutions])
    write_csv(rc.out / "solution.csv", header, rows)


def _write_diagnostics(rc: RunConfig, report: SolveReport, diag: dict) -> None:
    rows = []
    for k, n in enumerate(report.n_values):
        rows.append([f"modular_energy[{report.energy_case}]", str(n),
                     _fmt(report.energies[k])])
        rows.append([f"seminorm[{report.energy_case}]", str(n),
                     _fmt(diag["energies"][k])])
        rows.append(["fixed_point_iterations", str(n),
                     str(report.stage_iterations[k])])
        rows.append(["residual_sup", str(n), _fmt(report.residual_sups[k])])
        rows.append(["seed_residual_evaluations", str(n),
                     str(report.seed_evaluations[k])])
        rows.append(["residual_evaluations", str(n),
                     str(report.residual_evaluations[k])])
        rows.append(["line_search_backtracks", str(n),
                     str(report.line_search_backtracks[k])])
        rows.append(["levenberg_shift_max", str(n),
                     _fmt(report.levenberg_shift_max[k])])
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
    rc.out.mkdir(parents=True, exist_ok=True)
    with open(rc.out / "solution.svg", "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_convergence(rc: RunConfig) -> int:
    meshes = rc.meshes or (33, 65, 129)
    if len(meshes) < 2:
        raise ConfigurationError(
            "convergence needs at least two mesh sizes, e.g. "
            "'mesh = 33,65,129'")
    for coarse, fine in zip(meshes, meshes[1:]):
        if fine <= coarse or (fine - 1) % (coarse - 1) != 0:
            raise ConfigurationError(
                f"mesh sizes must be increasing and nested (each M' - 1 a "
                f"multiple of M - 1); got {coarse} before {fine}")
    yf = build_young(rc)
    cfg = build_operator(rc, yf)

    finals: list[GridFunction] = []
    for m in meshes:
        mesh = Mesh(m)
        report = monotone_scheme(cfg, build_data(rc, mesh), mesh=mesh,
                                 n_schedule=rc.n_schedule,
                                 tol_stop=rc.tol_stop, tol_mono=rc.tol_mono)
        finals.append(report.final)

    rows = []
    diffs = []
    for coarse, fine in zip(finals, finals[1:]):
        shared = coarse.mesh.coarse_index_in(fine.mesh)
        diff = float(np.max(np.abs(coarse.values - fine.values[shared])))
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
            rc.seed = int(args.seed)
        if args.no_plot:
            rc.plot = False
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
