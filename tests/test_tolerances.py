"""Every small threshold of the package is a named constant at module level.

The library's thresholds live in ``lpslice.tolerances``; the brute-force
oracle keeps its own at the top of ``oracle.py``, because it is the referee
of the fast path.  A float literal of magnitude at most 1e-6 inside a
function body or a default argument is a tolerance that has escaped its
home.  Module-level data, such as the preset dictionaries, is not looked at.
"""

import ast
from pathlib import Path

import lpslice

SRC = Path(lpslice.__file__).resolve().parent
SMALL = 1e-6


def _small_floats(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and type(sub.value) is float and 0.0 < abs(sub.value) <= SMALL:
            yield sub


def _stray_literals(tree: ast.Module):
    """(line, value) of each small float literal in a function body or default."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        defaults = fn.args.defaults + [d for d in fn.args.kw_defaults if d is not None]
        for node in body + defaults:
            for lit in _small_floats(node):
                yield lit.lineno, lit.value


def test_no_tolerance_literal_outside_its_home():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} ({value!r})" for line, value in sorted(set(_stray_literals(tree)))]
    assert found == []


def test_the_scan_sees_bodies_and_defaults():
    tree = ast.parse(
        "X = {'keep': 1e-9}\n"
        "def f(a, b=1e-7, *, c=2e-8):\n"
        "    return a <= 1e-6 * (1.0 + abs(b)) and a > 1e-5\n"
        "g = lambda v: v < 3e-10\n"
    )
    assert sorted(v for _, v in _stray_literals(tree)) == [3e-10, 2e-8, 1e-7, 1e-6]
