"""How scripts/bench_ab.py names the two trees it measured, with git
replaced by a stub."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HEAD = "0123456789abcdef0123456789abcdef01234567"


@pytest.fixture
def bench_ab(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("bench_ab")


def make_tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def stub_git(monkeypatch, bench_ab, tree: Path, status: str) -> None:
    """git answers for the working tree ``tree``: HEAD for any rev-parse,
    ``status`` for ``status --porcelain``, and the files under tree/src."""
    def git(*args):
        if args[0] == "rev-parse":
            return HEAD
        if args[0] == "status":
            return status
        assert args[0] == "ls-files"
        return "\n".join(sorted(f.relative_to(tree).as_posix()
                                for f in (tree / "src").rglob("*")
                                if f.is_file()))
    monkeypatch.setattr(bench_ab, "git", git)
    monkeypatch.setattr(bench_ab, "ROOT", tree)


SOURCES = {"src/pkg/__init__.py": "", "src/pkg/core.py": "X = 1\n"}


def test_clean_tree_names_head_and_the_base_digest(tmp_path, monkeypatch,
                                                   bench_ab):
    base = make_tree(tmp_path / "base", SOURCES)
    change = make_tree(tmp_path / "change", {**SOURCES, "README": "docs\n"})
    stub_git(monkeypatch, bench_ab, change, "")
    env = bench_ab.environment("HEAD", base)
    assert env["base"] == env["change"] == HEAD
    assert not env["change_dirty"]
    # only src/ counts, and equal sources give equal digests
    assert env["change_src_sha256"] == env["base_src_sha256"]
    assert len(env["base_src_sha256"]) == 64


def test_dirty_tree_is_labelled_and_hashed_apart(tmp_path, monkeypatch,
                                                 bench_ab):
    base = make_tree(tmp_path / "base", SOURCES)
    change = make_tree(tmp_path / "change", {**SOURCES,
                                             "src/pkg/core.py": "X = 2\n"})
    stub_git(monkeypatch, bench_ab, change, " M src/pkg/core.py")
    env = bench_ab.environment("HEAD", base)
    assert env["base"] == HEAD
    assert env["change"] == HEAD + "+dirty"
    assert env["change_dirty"]
    assert env["change_src_sha256"] != env["base_src_sha256"]


def test_digest_covers_file_names(tmp_path, bench_ab):
    a = make_tree(tmp_path / "a", {"src/x.py": "1\n"})
    b = make_tree(tmp_path / "b", {"src/y.py": "1\n"})
    assert (bench_ab.src_sha256(a, ["src/x.py"])
            != bench_ab.src_sha256(b, ["src/y.py"]))


def drifting_pairs(factor: float, pairs: int = 10, drift: float = 0.3):
    """Base and change runs of a metric whose level drifts linearly by
    ``drift`` over all the runs, the change a constant ``factor`` of
    the base; pair k runs the base first when k is even, as the script
    does."""
    runs = 2 * pairs
    level = [1.0 + drift * t / (runs - 1) for t in range(runs)]
    base, change = [], []
    for k in range(pairs):
        tb, tc = (2 * k, 2 * k + 1) if k % 2 == 0 else (2 * k + 1, 2 * k)
        base.append(level[tb])
        change.append(factor * level[tc])
    return base, change


def test_paired_rule_claims_a_gain_under_drift(bench_ab):
    # a constant 10 % gain under a 30 % drift: every pair won and every
    # ratio near 0.9, while the drift spreads the base wider than the gap,
    # so the unpaired rule misses it
    m = bench_ab.summary(*drifting_pairs(0.9), "lower")
    assert m["wins"] == m["pairs"] == 10
    assert m["ratio"]["q3"] < 1.0
    assert m["ratio"]["median"] == pytest.approx(0.9, rel=0.02)
    assert m["gain_claimable"]
    assert not m["gain_claimable_unpaired"]


def test_paired_rule_claims_no_null_change_under_drift(bench_ab):
    # the change equals the base: the drift inside a pair decides it, for
    # the side that runs first, and the alternating order splits the wins
    m = bench_ab.summary(*drifting_pairs(1.0), "lower")
    assert m["wins"] == 5
    assert m["ratio"]["q1"] < 1.0 < m["ratio"]["q3"]
    assert not m["gain_claimable"] and not m["gain_claimable_unpaired"]


def test_paired_rule_flips_for_higher_is_better(bench_ab):
    base, change = drifting_pairs(1.1)
    assert bench_ab.summary(base, change, "higher")["gain_claimable"]
    assert not bench_ab.summary(base, change, "lower")["gain_claimable"]
    base, change = drifting_pairs(0.9)
    assert not bench_ab.summary(base, change, "higher")["gain_claimable"]
