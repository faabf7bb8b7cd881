"""Count the code lines of Python modules.

A code line is a line that holds a token other than a comment, a newline
or indentation, and that lies in no module, class or function docstring
(``tokenize`` for the tokens, ``ast`` for the docstrings).  A token that
spans several lines, such as a string, counts on every line it spans.

    python tests/code_lines.py src/frlimits/*.py

prints the count of each module and their total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the module, class and function docstrings of
    a parsed module span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of one module's source text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(paths):
    total = 0
    for path in paths:
        count = code_lines(Path(path).read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
