"""Source hygiene: no module in src/, tests/ or scripts/ imports a name it
never reads, and the source line counter adds up."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/fglap/*.py"), *ROOT.glob("tests/*.py"),
                  *ROOT.glob("scripts/*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import but never read; a package's ``__all__``
    entries count as read, and ``__future__`` imports are skipped."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import os\nfrom pathlib import Path\nimport numpy.linalg\nnumpy.linalg\n"
    assert unused_imports(source) == ["Path (line 2)", "os (line 1)"]


def test_src_lines_totals_match_files():
    spec = importlib.util.spec_from_file_location(
        "src_lines", ROOT / "scripts" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    rows = src_lines.table(ROOT / "src" / "fglap")
    paths = sorted((ROOT / "src" / "fglap").glob("*.py"))
    assert sorted(rows) == sorted([p.name for p in paths] + ["total"])
    for path in paths:
        assert rows[path.name]["total"] == len(path.read_text().splitlines())
        assert min(rows[path.name].values()) >= 0
    assert rows["total"]["total"] == sum(rows[p.name]["total"] for p in paths)
    source = '"""Doc\n\nmore."""\n\n# note\nx = """a\n\nb"""  # tail\n'
    # the blank line inside a non-docstring string counts as code
    assert src_lines.count(source) == {"total": 8, "docstring": 3, "comment": 1,
                                       "blank": 1, "code": 3}
