"""`fractions.Fraction` is imported and constructed only in the scalar layer.

Over Q a scalar is an `int` until a division leaves a remainder; only
`koszulcat.field` decides when to box one.  A `Fraction` built anywhere else
in `src/koszulcat` would bring boxed scalars back into the elimination and
certificate loops, so this ast lint forbids importing the `fractions` module
or its `Fraction` name, and any call spelled `Fraction(...)` or
`fractions.Fraction(...)`, outside `field.py`.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "koszulcat")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))
SCALAR_LAYER = "field.py"


def fraction_uses(source: str):
    """(line, what) for every import of `fractions` and every `Fraction(...)` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import " + a.name) for a in node.names
                      if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            found.append((node.lineno, "from fractions import"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name == "Fraction":
                found.append((node.lineno, "Fraction(...)"))
    return sorted(found)


def test_scalar_layer_found():
    names = [os.path.basename(p) for p in MODULES]
    assert SCALAR_LAYER in names and len(names) > 10


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_fraction_only_in_scalar_layer(path):
    with open(path, encoding="utf-8") as fh:
        uses = fraction_uses(fh.read())
    if os.path.basename(path) == SCALAR_LAYER:
        assert uses  # the one place that boxes
    else:
        assert uses == []


def test_detector_flags_every_spelling():
    src = ("import fractions\nimport fractions as fr\nfrom fractions import Fraction as F\n"
           "x = fractions.Fraction(1, 2)\ny = Fraction(3)\nz = fr.Fraction(1)\nF(2)\n")
    assert fraction_uses(src) == [(1, "import fractions"), (2, "import fractions"),
                                  (3, "from fractions import"), (4, "Fraction(...)"),
                                  (5, "Fraction(...)"), (6, "Fraction(...)")]
