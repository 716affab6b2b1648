"""A/B benchmark of the working tree against a git revision.

    python3 scripts/bench_ab.py --base REV --workload NAME [--workload NAME ...]
                                [--pairs 10] [--seconds 20] [--seed 41]
                                [--json BENCH_n.json]

Run from anywhere inside the repository. REV's committed files are exported
with ``git archive`` into a temporary directory (nothing is registered in
the repository), and the working tree's files into a sibling directory:
the tracked files with their working contents and the untracked files
that are not ignored. ``python3 perfbench/run.py --trace 0`` then runs
alternately in the two exports, so both sides use their own sources and
their own copy of the benchmark, from the same kind of tree: the tree's
location alone moved refine-scheme's peak RSS by up to 0.15 MB. Pair k
runs the base first when k is even and the working tree first when k is
odd.

For every end-to-end metric of BENCHMARK.json the script prints each
pair's values, each side's median and quartiles, the median and quartiles
of the per-pair ratios change/base, and the number of pairs the working
tree won (ties count for neither). A gain is judged on the pairs: it is
claimed when the working tree wins at least nine tenths of them and the
ratios' upper quartile is below 1 (their lower quartile above 1 for a
metric where higher is better). Machine drift between windows moves both
sides of a pair alike, so it cancels in the ratios but widens each side's
own spread. The earlier unpaired rule, at least nine tenths of the pairs
won and the medians apart by more than the base's quartile distance, is
kept beside it as ``gain_claimable_unpaired``. ``--json`` writes all of
it, plus the environment (nproc, Python, numpy, BLAS and its thread
variables) and the trees measured, to a file. Each side is named by its
revision and a SHA-256 of its ``src/`` files; the working tree's revision
reads ``<HEAD>+dirty`` when ``git status`` lists changes under ``src/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """REV's committed files under ``dest``."""
    archive = dest.parent / "base.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def export_worktree(dest: Path) -> None:
    """The working tree's files under ``dest``, as a commit of the tree
    would hold them: the tracked files with their working contents (those
    deleted there are left out) and the untracked files that are not
    ignored."""
    for name in git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def src_sha256(tree: Path, files: list[str]) -> str:
    """SHA-256 over the sorted relative paths and contents of ``files``
    under ``tree``."""
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0")
        digest.update((tree / name).read_bytes())
    return digest.hexdigest()


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its metric values by name."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"perfbench gate failed in {tree}: "
                           f"{result['failed']} of {result['attempted']} "
                           "commands")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(base: list[float], change: list[float], better: str) -> dict:
    """Both sides' spreads, the spread of the per-pair ratios change/base,
    the pairs won, and the paired and the unpaired verdicts (see the
    module docstring)."""
    def spread(vals):
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        return {"median": statistics.median(vals), "q1": q1, "q3": q3}

    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0.0 for b, c in zip(base, change))
    ties = sum(b == c for b, c in zip(base, change))
    b, c = spread(base), spread(change)
    ratio = spread([y / x for x, y in zip(base, change)])
    won = wins >= 0.9 * len(base)
    gap = sign * (b["median"] - c["median"])
    return {
        "base": b, "change": c, "ratio": ratio,
        "rel_change": c["median"] / b["median"] - 1.0,
        "wins": wins, "ties": ties, "pairs": len(base),
        "gain_claimable": won and (ratio["q3"] < 1.0 if better == "lower"
                                   else ratio["q1"] > 1.0),
        "gain_claimable_unpaired": won and gap > b["q3"] - b["q1"],
    }


def environment(base_rev: str, base_tree: Path) -> dict:
    """The machine, the toolchain and the two trees: ``base_tree`` is the
    export of ``base_rev``, the working tree is ROOT."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in
                ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src"))
    # tracked and unignored files, as a commit of the tree would hold them
    change_files = [f for f in git("ls-files", "--cached", "--others",
                                   "--exclude-standard", "--", "src").splitlines()
                    if (ROOT / f).is_file()]
    base_files = [f.relative_to(base_tree).as_posix()
                  for f in (base_tree / "src").rglob("*") if f.is_file()]
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "base": git("rev-parse", base_rev),
        "base_src_sha256": src_sha256(base_tree, base_files),
        "change": f"{head}+dirty" if dirty else head,
        "change_src_sha256": src_sha256(ROOT, change_files),
        "change_dirty": dirty,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--json", type=Path, help="write the results here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    argv = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        base_tree = Path(tmp) / "base"
        export(args.base, base_tree)
        change_tree = Path(tmp) / "change"
        export_worktree(change_tree)
        record = {"command": ["python3", "scripts/bench_ab.py", *argv],
                  "env": environment(args.base, base_tree), "seed": args.seed,
                  "seconds": args.seconds, "workloads": {}}
        trees = {"base": base_tree, "change": change_tree}
        for workload in args.workload:
            runs = {"base": [], "change": []}
            for k in range(args.pairs):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run_side(trees[side], workload,
                                               args.seed, args.seconds))
                print(f"{workload} pair {k}: " + "  ".join(
                    f"{s['name']} {runs['base'][-1][s['name']]:.4g} -> "
                    f"{runs['change'][-1][s['name']]:.4g}" for s in specs),
                    flush=True)
            metrics = {}
            for s in specs:
                base = [r[s["name"]] for r in runs["base"]]
                change = [r[s["name"]] for r in runs["change"]]
                metrics[s["name"]] = {"unit": s["unit"], "better": s["better"],
                                      "base_runs": base, "change_runs": change,
                                      **summary(base, change, s["better"])}
                m = metrics[s["name"]]
                print(f"{workload} {s['name']}: median {m['base']['median']:.4g}"
                      f" [{m['base']['q1']:.4g}, {m['base']['q3']:.4g}] -> "
                      f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, "
                      f"{m['change']['q3']:.4g}] {s['unit']}, "
                      f"{m['rel_change']:+.1%}, pair ratio "
                      f"{m['ratio']['median']:.4f} [{m['ratio']['q1']:.4f}, "
                      f"{m['ratio']['q3']:.4f}], won {m['wins']}/{m['pairs']}, "
                      f"gain claimable: paired {m['gain_claimable']}, "
                      f"unpaired {m['gain_claimable_unpaired']}", flush=True)
            record["workloads"][workload] = metrics
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
