"""Count the file lines and code lines of Python sources.

A code line carries a token other than a comment, a newline or an
indentation, and is not part of a docstring (the string that opens a module,
class or function). Run with files or directories (searched for ``*.py``):

    python3 tools/code_lines.py src/monocal

It prints one line per file and a total line. It uses the stdlib only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(file lines, code lines)`` of one source file."""
    source = path.read_bytes()
    code = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _LAYOUT:
                code.update(range(token.start[0], token.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    paths = []
    for arg in argv or ["."]:
        root = Path(arg)
        paths.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    total_file = total_code = 0
    for path in paths:
        file_lines, code_lines = count(path)
        total_file += file_lines
        total_code += code_lines
        print(f"{file_lines:6} {code_lines:6}  {path}")
    print(f"{total_file:6} {total_code:6}  total (file lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
