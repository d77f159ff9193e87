"""Count the code lines of Python files: lines holding a Python token
other than a comment, outside docstrings.

Usage: python scripts/code_lines.py [FILE_OR_DIR ...]   (default: src)

Prints one line per file, then the total.  A directory counts every .py
file below it.  A docstring is the string-literal expression that opens
a module, class or function body.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    with open(path, "rb") as fh:
        tokens = tokenize.tokenize(fh.readline)
        lines = {line for tok in tokens if tok.type not in _NOT_CODE
                 for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - skip)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src"]:
        root = Path(arg)
        files += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
