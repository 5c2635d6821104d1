"""Terms of copies get their dims only from `Term.copies`.

A term made of copies of a base counts its cell dims as |summands| * dim(base)
in one place, `Term.copies`, which also records the base and summands that
`koszul.summand_map` reads.  This ast lint forbids any `Term(...)` call in
`src/koszulcat` that passes `summands` or `base` itself, by keyword or as a
third or fourth positional argument, so the dims formula cannot be repeated.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "koszulcat")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))
COPY_FIELDS = ("summands", "base")


def copies_by_hand(source: str):
    """(line, what) for every `Term(...)` call that passes summands or base."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name != "Term":
            continue
        if len(node.args) > 2 or any(isinstance(a, ast.Starred) for a in node.args):
            found.append((node.lineno, "positional"))
        found += [(node.lineno, kw.arg or "**") for kw in node.keywords
                  if kw.arg in COPY_FIELDS or kw.arg is None]
    return sorted(found)


def test_term_copies_is_defined():
    with open(os.path.join(SRC, "complexes.py"), encoding="utf-8") as fh:
        assert "def copies(" in fh.read()


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_term_of_copies_built_by_hand(path):
    with open(path, encoding="utf-8") as fh:
        assert copies_by_hand(fh.read()) == []


def test_detector_flags_every_spelling():
    src = ("Term('a', {})\nTerm('a', {}, summands=[1])\ncomplexes.Term('a', {}, [1], b)\n"
           "Term('a', {}, base=b)\nTerm(*args)\nTerm('a', {}, **kw)\nTerm.copies('a', b, [])\n")
    assert copies_by_hand(src) == [(2, "summands"), (3, "positional"), (4, "base"),
                                   (5, "positional"), (6, "**")]
