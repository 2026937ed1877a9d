"""Code lines of the package's modules: the lines that hold a token of
code, with comments, docstrings and blank lines left out.

    python3 scripts/code_lines.py            # the modules of src/dpglock
    python3 scripts/code_lines.py FILE ...   # any Python files

Prints one line per module, "<count> <path>", and then "<total> total".
A docstring is a string statement that opens a module, class or function
body; a line counts when a token other than a comment, a newline or an
indentation change starts or runs over it outside every docstring.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dpglock"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="Python files (default: the modules of src/dpglock)")
    files = parser.parse_args(argv).files or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {path.name if path.parent == PACKAGE else path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
