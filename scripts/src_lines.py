#!/usr/bin/env python3
"""Count the lines of the library, raw and as code.

    python3 scripts/src_lines.py [DIRECTORY]

For each ``*.py`` module of DIRECTORY (default: the checkout's
``src/troprays``) this prints the module's raw line count and its code line
count, then a total.  A code line holds at least one token that is not a
comment and is not part of a docstring; blank lines, comment lines and the
docstrings of modules, classes and functions (found with ``ast``) are left
out.  A line inside a multi-line string that is not a docstring counts.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SILENT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(raw, code) lines of one module's text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SILENT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = argv[0] if argv else os.path.join(ROOT, "src", "troprays")
    total_raw = total_code = 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            raw, code = count(f.read())
        total_raw += raw
        total_code += code
        print(f"{name:<16} {raw:>6} {code:>6}")
    print(f"{'total':<16} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
