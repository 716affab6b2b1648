"""Scenario runner: flat key=value configs in, CSV tables (and an
optional SVG plot) out.

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

from .checks import DEFAULT_SEED, CheckOutcome, check_comparison, run_check_suite
from .errors import (ConfigurationError, ConvergenceError, DomainError,
                     FglapError, InvariantError)
from .fractional import OperatorConfig
from .orlicz import GridFunction, Mesh, modular_W_parts
from .solver import (ProblemData, SolveReport, boundary_energy_report,
                     monotone_scheme)
from .young import YoungFunction, estimate_growth_bounds, make_young

FAMILY_PARAMS = {
    "power": ("p",),
    "double-power": ("p1", "p2"),
    "log-type": ("a", "b", "c"),
}

_KNOWN_KEYS = {
    "family", "p", "p1", "p2", "a", "b", "c", "s", "mesh", "case", "f", "q",
    "q_star", "delta", "n_schedule", "seed", "out", "plot", "near_band",
    "r_far", "tail_mode", "samples", "eps", "declared_p_minus",
    "declared_p_plus", "tol_stop", "tol_mono",
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
    near_band: int = 1
    r_far: float = 100.0
    tail_mode: str = "analytic"
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

    tail_mode = raw.get("tail_mode", "analytic")
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
        seed=int(_as_float(raw, "seed", float(DEFAULT_SEED))),
        out=Path(raw["out"]) if "out" in raw else Path("."),
        plot=_as_bool(raw, "plot", True),
        near_band=int(_as_float(raw, "near_band", 1.0)),
        r_far=_as_float(raw, "r_far", 100.0),
        tail_mode=tail_mode,
        samples=int(_as_float(raw, "samples", 1000.0)),
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
    if any(b <= a for a, b in zip(rc.n_schedule, rc.n_schedule[1:])):
        raise ConfigurationError("config key 'n_schedule' must be strictly increasing")
    return rc


def build_young(rc: RunConfig) -> YoungFunction:
    yf = make_young(rc.family, **rc.params)
    if rc.declared_p_minus is not None:
        yf.p_minus = float(rc.declared_p_minus)
    if rc.declared_p_plus is not None:
        yf.p_plus = float(rc.declared_p_plus)
    return yf


def build_operator(rc: RunConfig, yf: YoungFunction) -> OperatorConfig:
    return OperatorConfig(yf, rc.s, near_band=rc.near_band,
                          r_far=rc.r_far, tail_mode=rc.tail_mode)


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


def _growth_outcome(yf: YoungFunction) -> CheckOutcome:
    est = estimate_growth_bounds(yf)
    margin = min(est.p_minus_hat - yf.p_minus, yf.p_plus - est.p_plus_hat)
    offending = None
    if margin < -1e-6:
        t_bad = (est.t_at_min
                 if est.p_minus_hat - yf.p_minus < yf.p_plus - est.p_plus_hat
                 else est.t_at_max)
        offending = {"t": t_bad, "p_minus_hat": est.p_minus_hat,
                     "p_plus_hat": est.p_plus_hat}
    return CheckOutcome("growth_bounds", yf.label, 512, margin, 1e-6,
                        offending=offending,
                        info={"p_minus_hat": est.p_minus_hat,
                              "p_plus_hat": est.p_plus_hat})


def run_verification(rc: RunConfig, yf: YoungFunction,
                     mesh: Mesh) -> list[CheckOutcome]:
    outcomes = [_growth_outcome(yf)]
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
    parts = modular_W_parts(report.final, yf, rc.s, near_band=rc.near_band,
                            r_far=rc.r_far, tail_mode=rc.tail_mode)
    tail_fraction = (parts["tail_dropped"] / parts["total"]
                     if parts["total"] > 0.0 else 0.0)
    if tail_fraction > 0.01:
        report.warnings.append(
            f"truncated exterior tail holds {100 * tail_fraction:.2f}% of "
            f"the modular; raise r_far or use tail_mode=analytic")
    if not diag["bounded"]:
        report.warnings.append("boundary energies exceed twice the median "
                               "of the last three stages")

    _write_solution(rc, report)
    _write_diagnostics(rc, report, diag, tail_fraction)
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


def _write_diagnostics(rc: RunConfig, report: SolveReport, diag: dict,
                       tail_fraction: float) -> None:
    rows = []
    for k, n in enumerate(report.n_values):
        rows.append([f"modular_energy[{report.energy_case}]", str(n),
                     _fmt(report.energies[k])])
        rows.append([f"seminorm[{report.energy_case}]", str(n),
                     _fmt(diag["energies"][k])])
        rows.append(["fixed_point_iterations", str(n),
                     str(report.fixed_point_iters[k])])
        rows.append(["residual_sup", str(n), _fmt(report.residual_sups[k])])
        if k > 0:
            rows.append(["sup_diff_prev_stage", str(n),
                         _fmt(report.sup_diffs[k - 1])])
    rows.append(["l_middle", "", _fmt(report.l_middle)])
    rows.append(["alpha_hat", "", _fmt(report.alpha_hat)])
    rows.append(["holder_seminorm", "", _fmt(report.holder_seminorm)])
    rows.append(["n_sequence_converged", "", "1" if report.converged else "0"])
    rows.append(["energies_bounded", "", "1" if diag["bounded"] else "0"])
    rows.append(["tail_dropped_fraction", "", _fmt(tail_fraction)])
    write_csv(rc.out / "diagnostics.csv", ["quantity", "n", "value"], rows)


def _write_plot(rc: RunConfig, report: SolveReport) -> None:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("warning: matplotlib unavailable, skipping solution.svg",
              file=sys.stderr)
        return
    fig, ax = plt.subplots(figsize=(6.0, 4.0))
    for n, u in zip(report.n_values, report.solutions):
        ax.plot(report.mesh.nodes, u.values, label=f"n={n}")
    ax.set_xlabel("x")
    ax.set_ylabel("u")
    ax.legend(loc="best", fontsize=8)
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    (rc.out).mkdir(parents=True, exist_ok=True)
    fig.savefig(rc.out / "solution.svg")
    plt.close(fig)


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
        data = build_data(rc, mesh)
        data.validate_family(cfg)
        report = monotone_scheme(cfg, data, mesh=mesh,
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
