"""Every elimination enters through `matrix.rank` or `matrix.rref`.

`matrix._echelon` is the one Gaussian loop.  The benchmark's tracer counts
eliminations (`matrix.elim.entries`, `matrix.elim.nnz`, `matrix.rref.calls`)
at the public entry points, so a module that called `_echelon` directly
would eliminate out of its sight.  This lint parses each `src/koszulcat/*.py`
with `ast`: inside `matrix.py` the name may appear only in the bodies of
`rank` and `rref` (and its own definition); no other module may import or
mention it.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "koszulcat")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))
CORE = "_echelon"
ENTRY_POINTS = {"rank", "rref"}


def core_uses(source: str):
    """(line, enclosing top-level function or None) of every mention of the core."""
    tree = ast.parse(source)
    uses = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == CORE or \
                    isinstance(node, ast.Attribute) and node.attr == CORE:
                uses.append((node.lineno, owner))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                uses.extend((node.lineno, None) for alias in node.names
                            if alias.name.split(".")[-1] == CORE)
    return uses


def test_modules_found():
    assert "matrix.py" in {os.path.basename(p) for p in MODULES}
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_core_is_reached_only_through_the_entry_points(path):
    with open(path, encoding="utf-8") as fh:
        uses = core_uses(fh.read())
    if os.path.basename(path) == "matrix.py":
        assert {owner for _, owner in uses} == ENTRY_POINTS
    else:
        assert uses == []


def test_detector_flags_imports_aliases_and_calls():
    src = ("from .matrix import _echelon\n"
           "import koszulcat.matrix as m\n"
           "def rank(x):\n    return _echelon(x)\n"
           "def fast(x):\n    return m._echelon(x)\n"
           "step = _echelon\n")
    assert core_uses(src) == [(1, None), (4, "rank"), (6, "fast"), (7, None)]
