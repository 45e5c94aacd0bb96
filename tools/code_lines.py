"""Count the code lines of Python source files.

A line counts when it holds a token other than a comment or a
NL/NEWLINE/INDENT/DEDENT token, and is not part of a module, class or
function docstring.  Blank lines, comment-only lines and docstrings are
therefore left out; a string literal spanning several lines counts on
every line it covers.

Usage: python3 tools/code_lines.py PATH [PATH ...]
Each PATH is a .py file or a directory searched recursively; the total
over all of them is printed as one integer.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    files = []
    for arg in argv:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    print(sum(code_lines(f.read_text(encoding="utf-8")) for f in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
