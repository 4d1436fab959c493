"""Count the code lines of Python source files: the non-blank lines that hold
a token which is neither a comment nor part of a docstring.

A docstring is the string literal that opens a module, a class or a function
(``ast``); every other token, a line of a multi-line string among them,
makes its lines code lines (``tokenize``).  Run from the repository root::

    python tests/code_lines.py             # every module of src/twistkick
    python tests/code_lines.py a.py b.py   # the files named

It prints one line per file, ``<code lines>  <path>``, and the total last.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    # the line numbers that the docstrings of ``tree`` span
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path) -> int:
    """The number of code lines of the Python file at ``path``."""
    source = Path(path).read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as file:
        for token in tokenize.tokenize(file.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    text = source.splitlines()
    return sum(1 for n in lines - docstrings if text[n - 1].strip())


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted(Path("src/twistkick").glob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
