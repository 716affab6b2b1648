"""Line counts of the package source, per module.

    python3 scripts/src_lines.py [DIR]

For every ``*.py`` file in DIR (default ``src/fglap``) it prints the total
line count split into docstring, comment-only, blank and code lines, then
a total row. Docstring lines are the lines spanned by the string that
opens a module, class or function body (found with ``ast``). Comment-only
and blank lines are found with ``tokenize`` outside those strings. Code
lines are whatever is left.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("total", "docstring", "comment", "blank", "code")


def docstring_lines(source: str) -> set[int]:
    """Line numbers covered by the docstrings of a module's bodies."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The columns of COLUMNS for one file's text."""
    total = len(source.splitlines())
    doc = docstring_lines(source)
    # lines holding a token other than a comment or layout
    code_tokens = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            code_tokens.update(range(tok.start[0], tok.end[0] + 1))
    blank = comment = 0
    for n, line in enumerate(source.splitlines(), start=1):
        if n in doc or n in code_tokens:
            continue
        if line.strip():
            comment += 1
        else:
            blank += 1
    return {"total": total, "docstring": len(doc), "comment": comment,
            "blank": blank, "code": total - len(doc) - comment - blank}


def table(directory: Path) -> dict[str, dict[str, int]]:
    """Per-file counts keyed by file name, plus a ``total`` row."""
    rows = {path.name: count(path.read_text())
            for path in sorted(directory.glob("*.py"))}
    rows["total"] = {col: sum(r[col] for r in rows.values()) for col in COLUMNS}
    return rows


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else ROOT / "src" / "fglap"
    print(f"{'file':<16}" + "".join(f"{col:>10}" for col in COLUMNS))
    for name, row in table(directory).items():
        print(f"{name:<16}" + "".join(f"{row[col]:>10}" for col in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
