"""No certificate is passed before it checks anything.

A report line that says PASS must come from a computed verdict.  This ast
lint fails on any `add_certificate` call in `src/koszulcat` whose `passed`
argument, positional or keyword, is the literal `True`.  A literal `False`
stays allowed: a refusal is decided before the report is written, and the
report only records it.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "koszulcat")


def constant_passes(source: str):
    """Line numbers of `add_certificate` calls whose `passed` is the literal True."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_certificate"):
            continue
        passed = node.args[1] if len(node.args) > 1 else \
            next((k.value for k in node.keywords if k.arg == "passed"), None)
        if isinstance(passed, ast.Constant) and passed.value is True:
            found.append(node.lineno)
    return found


def test_no_certificate_passes_by_construction():
    sites = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            sites += ["%s:%d" % (os.path.basename(path), line)
                      for line in constant_passes(fh.read())]
    assert sites == []


def test_detector_flags_both_spellings_and_only_true():
    src = ("r.add_certificate('a', True)\n"
           "r.add_certificate('b', passed=True, detail='x')\n"
           "r.add_certificate('c', False, detail='refused')\n"
           "r.add_certificate('d', ok)\n"
           "r.add_certificate('e', bool(1))\n")
    assert constant_passes(src) == [1, 2]
