"""Print each module's lines split into code, docstring, comment and blank.

    python tools/source_size.py src/tradelab/*.py

A docstring line is any line of a module, class or function docstring, blank
ones included; a comment line holds only a comment; a blank line outside a
docstring holds only whitespace; every other line is code. The four columns
add up to ``wc -l``. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

COLUMNS = ("code", "docstring", "comment", "blank")


def split(text: str) -> dict[str, int]:
    lines = text.splitlines()
    kind = ["code"] * len(lines)
    for i, line in enumerate(lines):
        if not line.strip():
            kind[i] = "blank"
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            kind[tok.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                for n in range(first.lineno - 1, first.end_lineno):
                    kind[n] = "docstring"
    return {c: kind.count(c) for c in COLUMNS}


def main(paths: list[str]) -> None:
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'lines':>7} " + " ".join(f"{c:>9}" for c in COLUMNS) + "  module")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts = split(fh.read())
        for c in COLUMNS:
            total[c] += counts[c]
        print(f"{sum(counts.values()):7d} " + " ".join(f"{counts[c]:9d}" for c in COLUMNS)
              + f"  {path}")
    print(f"{sum(total.values()):7d} " + " ".join(f"{total[c]:9d}" for c in COLUMNS)
          + "  total")


if __name__ == "__main__":
    main(sys.argv[1:])
