"""Print the total lines and code lines of each module of a package, and their sums.

A code line is a line that holds a token other than a comment, a newline or
an indent (tokenize) and is not part of a module, class or function
docstring (ast). Blank lines, comments and docstrings are counted in the
total only.

    python3 tools/size.py [package directory, default src/symfd]
"""

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(path):
    """(total lines, code lines) of the Python file at path."""
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
        text = path.read_text(encoding="utf-8")
    code = set()
    for token in tokens:
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv):
    package = Path(argv[0] if argv else "src/symfd")
    rows = [(path.name, *size(path)) for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
