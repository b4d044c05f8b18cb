"""Counts the code lines of each module of ``src/geostream`` and in total.

    python tools/code_lines.py [PATH ...]

A code line holds at least one token that is neither a comment nor a
docstring, so blank lines, comment lines and docstring lines do not
count. A docstring is a string expression that comes first in a module,
class or function body. Every line a multi-line token spans counts, so a
string that is not a docstring counts whole. With no PATH it reads every
``.py`` file of the ``src/geostream`` beside it; a PATH may be a file or
a directory, whose ``.py`` files are read, not those of its
subdirectories. It prints one row per file, its count and its name, and
then the total. The figures are informational; nothing is gated.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geostream"

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstrings(tree):
    """The ``(start, end)`` positions of each docstring of ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source):
    """The number of code lines of the Python ``source``."""
    spans = docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path, default=[PACKAGE])
    args = ap.parse_args(argv)
    files = []
    for path in args.paths:
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return total


if __name__ == "__main__":
    main()
