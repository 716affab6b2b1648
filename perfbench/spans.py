"""In-memory span tracer for the fglap package, and the per-layer metrics
computed from its spans.

The tracer wraps every public function of each fglap module, the public
YoungFunction primitives, and ``numpy.linalg.solve``. A module that
imported a function by name (``from .fractional import residual``) holds
its own binding, so each wrapper replaces every binding of the original
across the package, not only the one in the defining module.

A span is ``[id, name, start, end, parent, attrs]``; ids grow in call
order, so a parent's id is always smaller than its children's. Spans stay
in memory until ``write_jsonl`` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("cli", "checks", "solver", "fractional", "orlicz", "young",
          "quadrature")
YOUNG_METHODS = ("G", "lam", "G_inverse", "g_inverse")
BATTERY = ("delta2", "lindqvist", "gdiff", "conjugate", "phi_mvt", "rpower")
MESHES = (129, 257, 513)

ID, NAME, START, END, PARENT, ATTRS = range(6)


def _points(args, kwargs, result):
    return {"points": int(getattr(args[1], "size", 1))}


def _mesh_of_u(args, kwargs, result):
    return {"m": args[1].mesh.m}


def _aux(args, kwargs, result):
    mesh = args[1] if len(args) > 1 else kwargs["mesh"]
    stats = result[1]
    return {"m": mesh.m, "warm": kwargs.get("warm_start") is not None,
            "iterations": stats.get("iterations", 0),
            "picard_steps": stats.get("picard_steps", 0)}


# what each span records about its call, keyed by span name
ATTR_HOOKS = {
    "solver.solve_auxiliary": _aux,
    "solver.fixed_point_S": lambda a, k, r: {"sweeps": r[1]["iterations"]},
    "solver.monotone_scheme": lambda a, k, r: {"m": r.mesh.m},
    "fractional.residual": _mesh_of_u,
    "fractional.assemble_matrix": _mesh_of_u,
    "numpy.linalg.solve": lambda a, k, r: {"n": a[0].shape[0]},
    **{f"young.{meth}": _points for meth in YOUNG_METHODS},
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._clock = clock

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self._clock
        hook = ATTR_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), name, clock(), 0.0,
                   stack[-1] if stack else None, None]
            spans.append(rec)
            stack.append(rec[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if hook is not None:
                rec[ATTRS] = hook(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the package's public functions under every name bound to
        them, plus the YoungFunction primitives and numpy.linalg.solve."""
        import numpy.linalg

        modules = [importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS]
        wrappers = {}
        for mod, layer in zip(modules, LAYERS):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for namespace in [package, *modules]:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])
        young_cls = modules[LAYERS.index("young")].YoungFunction
        for meth in YOUNG_METHODS:
            self._patch(young_cls, meth,
                        self.wrap(f"young.{meth}", vars(young_cls)[meth]))
        self._patch(numpy.linalg, "solve",
                    self.wrap("numpy.linalg.solve", numpy.linalg.solve))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "attrs")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def read_jsonl(path) -> list[list]:
    with open(path) as fh:
        return [[d["id"], d["name"], d["start"], d["end"], d["parent"],
                 d["attrs"]] for d in map(json.loads, fh)]


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of its interval that its
    children's spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for rec in spans:
        lo, hi = rec[START], rec[END]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(rec[ID], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def _outermost(spans: list[list], name: str) -> list[list]:
    """Spans named ``name`` with no ancestor of the same name, so nested
    calls are not counted twice."""
    found = []
    for rec in spans:
        if rec[NAME] != name:
            continue
        parent = rec[PARENT]
        while parent is not None and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent is None:
            found.append(rec)
    return found


def inclusive_s(spans: list[list], name: str) -> float:
    return sum(r[END] - r[START] for r in _outermost(spans, name))


def _mesh(spans: list[list], rec: list) -> int | None:
    """Mesh size of a span: its own, else that of its nearest ancestor."""
    while rec is not None:
        if rec[ATTRS] and "m" in rec[ATTRS]:
            return rec[ATTRS]["m"]
        rec = None if rec[PARENT] is None else spans[rec[PARENT]]
    return None


def _has_ancestor(spans: list[list], rec: list, name: str) -> bool:
    parent = rec[PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every per-layer metric that one traced CLI run yields."""
    by_name: dict[str, list[list]] = {}
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)

    def named(name):
        return by_name.get(name, [])

    def dur(recs):
        return sum(r[END] - r[START] for r in recs)

    def attr(rec, key, default=0):
        # a call that raised has no attributes
        return (rec[ATTRS] or {}).get(key, default)

    def attr_sum(recs, key):
        return sum(attr(r, key) for r in recs)

    out = {
        "cli.load_config_s": inclusive_s(spans, "cli.load_config"),
        "cli.write_csv_s": inclusive_s(spans, "cli.write_csv"),
    }
    for check in BATTERY + ("comparison",):
        out[f"checks.{check}_s"] = inclusive_s(spans, f"checks.check_{check}")
    out["checks.comparison_aux_solves"] = sum(
        _has_ancestor(spans, r, "checks.check_comparison")
        for r in named("solver.solve_auxiliary"))

    aux = named("solver.solve_auxiliary")
    cold = [r for r in aux if attr(r, "warm", None) is False]
    warm = [r for r in aux if attr(r, "warm", None) is True]
    linsolve = [r for r in named("numpy.linalg.solve")
                if r[PARENT] is not None
                and spans[r[PARENT]][NAME].startswith("solver.")]
    out.update({
        "solver.scheme_s": inclusive_s(spans, "solver.monotone_scheme"),
        "solver.fixed_point_sweeps": attr_sum(named("solver.fixed_point_S"),
                                              "sweeps"),
        "solver.newton_iters": attr_sum(aux, "iterations"),
        "solver.picard_steps": attr_sum(aux, "picard_steps"),
        "solver.aux_solves_cold": len(cold),
        "solver.aux_cold_s": dur(cold),
        "solver.aux_solves_warm": len(warm),
        "solver.aux_warm_s": dur(warm),
        "solver.linsolve_calls": len(linsolve),
        "solver.linsolve_s": dur(linsolve),
        "solver.energy_report_s": inclusive_s(spans,
                                              "solver.boundary_energy_report"),
    })

    residual = named("fractional.residual")
    assemble = named("fractional.assemble_matrix")
    kernel_s = dur(residual) + dur(assemble)
    pairs = sum(attr(r, "m") ** 2 for r in residual + assemble)
    out.update({
        "fractional.residual_calls": len(residual),
        "fractional.residual_s": dur(residual),
        "fractional.assemble_calls": len(assemble),
        "fractional.assemble_s": dur(assemble),
        "fractional.pairs_per_s": pairs / kernel_s if kernel_s > 0 else 0.0,
        "orlicz.modular_W_calls": len(named("orlicz.modular_W")),
        "orlicz.modular_W_s": inclusive_s(spans, "orlicz.modular_W"),
        "orlicz.seminorm_s": inclusive_s(spans, "orlicz.luxemburg_seminorm_W"),
        "orlicz.modular_W_parts_s": inclusive_s(spans,
                                                "orlicz.modular_W_parts"),
        "young.G_s": inclusive_s(spans, "young.G"),
        "young.G_points": attr_sum(named("young.G"), "points"),
        "young.lam_s": inclusive_s(spans, "young.lam"),
        "young.lam_points": attr_sum(named("young.lam"), "points"),
        "young.estimate_growth_bounds_s": inclusive_s(
            spans, "young.estimate_growth_bounds"),
        "quadrature.invert_monotone_calls": len(
            named("quadrature.invert_monotone")),
        "quadrature.invert_monotone_s": inclusive_s(
            spans, "quadrature.invert_monotone"),
    })

    for m in MESHES:
        def at_m(recs):
            return dur([r for r in recs if _mesh(spans, r) == m])
        out[f"solver.scheme_s.m{m}"] = at_m(named("solver.monotone_scheme"))
        out[f"fractional.residual_s.m{m}"] = at_m(residual)
        out[f"fractional.assemble_s.m{m}"] = at_m(assemble)
        out[f"solver.linsolve_s.m{m}"] = at_m(linsolve)

    selfs = dict.fromkeys(LAYERS, 0.0)
    for rec, self_s in zip(spans, self_times(spans)):
        layer = rec[NAME].split(".", 1)[0]
        if layer in selfs:
            selfs[layer] += self_s
    out.update({f"{layer}.self_s": v for layer, v in selfs.items()})
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over several traced runs of one workload."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
