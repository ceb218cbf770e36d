"""Count the code lines of Python files: lines that hold a token other than
a comment, outside module, class and function docstrings.

Usage: python scripts/code_lines.py [PATH ...]   (default: src/choqlat)

Each PATH is a file or a directory searched for ``*.py``. One line per file
gives its code lines and physical lines, then a total line.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, physical lines) of one Python file."""
    source = path.read_bytes()
    skipped = docstring_lines(ast.parse(source))
    code: set[int] = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in SKIPPED:
                code.update(range(token.start[0], token.end[0] + 1))
    return len(code - skipped), len(source.splitlines())


def files(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for name in paths:
        path = Path(name)
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    total_code = total_physical = 0
    for path in files(argv or ["src/choqlat"]):
        code, physical = count(path)
        total_code += code
        total_physical += physical
        print(f"{code:6d} {physical:6d}  {path}")
    print(f"{total_code:6d} {total_physical:6d}  total (code lines, physical lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
