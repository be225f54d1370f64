#!/usr/bin/env python3
"""Count the code lines of each module of ``src/liesplit`` and their total.

    python3 tools/code_lines.py

A code line is a non-blank line that is neither a comment nor part of a
docstring (the string that opens a module, class or function body, found
with ``ast``).  Deleting a comment or a docstring leaves the count as it
is, where ``wc -l`` would fall.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "liesplit"


def code_lines(text: str) -> int:
    """The non-blank lines of ``text`` outside comments and docstrings."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and n not in docstrings)


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
