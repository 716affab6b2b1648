"""Benchmark for the fglap CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each CLI command runs in a fresh
interpreter, one after another (closed loop, one client), with BLAS at its
default thread count, until S seconds have passed (at least once).

``--trace 0`` reports the end-to-end metrics: the median wall time and
peak RSS of the CLI commands, and the median set-up time of SETUP_REPEATS
fresh interpreters that import ``fglap.cli`` and load the config.
``--trace 1`` alternates an untraced command with one run under the span
tracer (traced_cli.py) and reports the per-layer metrics, the medians over
the traced runs, plus the Young-primitive micro table (micro.py).

Every command's output passes the correctness gate (gate.py) or counts as
failed. The last line of standard output is the result object; the line
before it records the environment and per-command diagnostics, which are
also written to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_REPEATS = 5
MICRO_POINTS = 1000
DEADLINE_S = 170.0   # every run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import fglap.cli
fglap.cli.load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


class Clock:
    """Time left before the run's deadline."""

    def __init__(self, budget: float = DEADLINE_S):
        self.end = time.perf_counter() + budget

    def left(self) -> float:
        return self.end - time.perf_counter()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def invoke(argv: list[str], log: Path, timeout: float) -> dict:
    """Run one child to completion: wall time, peak RSS and exit code.
    A child still running after ``timeout`` seconds is killed."""
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode}


class Runner:
    """Runs one workload's commands in ``work`` and gates their output."""

    def __init__(self, wl: Workload, seed: int, reference: dict, work: Path,
                 clock: Clock):
        self.wl, self.seed, self.reference = wl, seed, reference
        self.work, self.clock = work, clock
        self.config = work / f"{wl.name}.cfg"
        self.config.write_text(wl.config)
        self.commands: list[dict] = []

    def command(self, traced: bool) -> None:
        k = len(self.commands)
        out = self.work / f"cmd{k}"
        cli = self.wl.cli_args(self.config, out, self.seed)
        if traced:
            span_file = self.work / f"spans{k}.jsonl"
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(span_file), "--", *cli]
        else:
            argv = [sys.executable, "-m", "fglap.cli", *cli]
        rec = invoke(argv, self.work / f"cmd{k}.log", self.clock.left())
        rec["traced"] = traced
        rec["failures"], rec["drift"] = gate.check_run(
            self.wl.command, out, rec["exit_code"], self.reference)
        if traced and span_file.is_file():
            rec["spans"] = span_file
        self.commands.append(rec)

    def setup_times(self, repeats: int) -> list[float]:
        argv = [sys.executable, "-c", SETUP_PROBE, str(self.config)]
        times = []
        for _ in range(repeats):
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=child_env(), cwd=ROOT,
                                  timeout=max(self.clock.left(), 1.0))
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            times.append(float(proc.stdout))
        return times

    def micro_table(self) -> dict[str, float]:
        proc = subprocess.run([sys.executable, str(HERE / "micro.py"),
                               str(self.seed), str(MICRO_POINTS)],
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=max(self.clock.left(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"micro table failed:\n{proc.stderr}")
        return json.loads(proc.stdout)

    def loop(self, seconds: float, traced_pairs: bool) -> None:
        """Closed loop: the next command starts when the last one ends."""
        t0 = time.perf_counter()
        while not self.commands or time.perf_counter() - t0 < seconds:
            if self.clock.left() <= 0.0:
                break
            self.command(traced=False)
            if traced_pairs and self.clock.left() > 0.0:
                self.command(traced=True)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 reference: dict, work: Path,
                 clock: Clock | None = None) -> tuple[dict, list[dict]]:
    """Metric values by name, and one record per CLI command."""
    runner = Runner(wl, seed, reference, work, clock or Clock())
    if not trace:
        setup = runner.setup_times(SETUP_REPEATS)
        runner.loop(seconds, traced_pairs=False)
        cmds = runner.commands
        return {
            "wall_s": statistics.median(c["wall_s"] for c in cmds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in cmds),
        }, cmds

    runner.loop(seconds, traced_pairs=True)
    cmds = runner.commands
    traced = [c for c in cmds if c["traced"] and "spans" in c]
    plain = [c for c in cmds if not c["traced"]]
    if not traced:
        raise RuntimeError("no traced command completed")
    values = spans.median_metrics(
        [spans.layer_metrics(spans.read_jsonl(c["spans"])) for c in traced])
    traced_wall = statistics.median(c["wall_s"] for c in traced)
    plain_wall = statistics.median(c["wall_s"] for c in plain)
    values.update({
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    })
    values.update(runner.micro_table())
    return values, cmds


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in
                ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True,
                                    text=True).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def result_object(values: dict, specs: list[dict], cmds: list[dict]) -> dict:
    failed = sum(1 for c in cmds if c["failures"])
    return {
        "correct": failed == 0,
        "attempted": len(cmds),
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "fglap" / "cli.py").is_file():
        print(f"fglap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    clock = Clock()
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        values, cmds = run_workload(wl, args.seed, args.seconds,
                                    bool(args.trace),
                                    gate.load_reference()[wl.name], work,
                                    clock)
        result = result_object(values, specs, cmds)
        tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            first = next(c["spans"] for c in cmds if "spans" in c)
            shutil.copyfile(first, OUT / f"spans-{tag}.jsonl")
        drifts = [c["drift"] for c in cmds if c["drift"] is not None]
        record = {
            "workload": wl.name, "trace": args.trace,
            "seconds": args.seconds, "env": environment(args.seed),
            "fail_frac": result["failed"] / result["attempted"],
            "max_drift": max(drifts) if drifts else None,
            "commands": [{k: v for k, v in c.items() if k != "spans"}
                         for c in cmds],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
