"""Count the lines of the Python files under ``src/`` and ``tests/``.

For each tree it prints the total line count and the code lines: every
line that is not blank, not a comment line and not part of a docstring
(the first statement of a module, class or function, when that is a
string). Run it from the repository root, or pass the root:

    python3 tools/code_lines.py [root]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one Python file."""
    text = path.read_text()
    skip = _docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in skip and line.strip() and not line.strip().startswith("#"))
    return len(lines), code


def main(argv: list[str]) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(".")
    for tree in ("src", "tests"):
        total = code = 0
        for path in sorted((root / tree).rglob("*.py")):
            t, c = count(path)
            total, code = total + t, code + c
        print(f"{tree}/: {total:,} lines, {code:,} code lines")


if __name__ == "__main__":
    main(sys.argv)
