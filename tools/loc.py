"""Count the code lines of lpslice's sources.

    python3 tools/loc.py [DIR]

Prints one line ``<lines> <file>`` per Python file under DIR (default the
``src/`` of the checkout that holds this script), then ``<lines> total``.
A code line is a line that holds a token of code: blank lines, comments
and docstrings (a string literal that opens a module, class or function
body) do not count.  A statement that spans several lines counts each of
them.
"""

from __future__ import annotations

import argparse
import ast
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file at path."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with path.open() as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> None:
    root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", type=Path, default=root / "src")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.dir.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path.relative_to(args.dir)}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
