"""No check in the package is an `assert`.

`python -O` strips assert statements, and a certificate must still check
something there.  This ast lint fails on any `assert` statement under
`src/koszulcat`; a check raises a `KoszulcatError` instead, as
`matrix.checked_quotient` does.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "koszulcat")


def assert_lines(source: str):
    """Line numbers of the assert statements in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_no_assert_statements_in_src():
    paths = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    assert paths
    sites = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sites += ["%s:%d" % (os.path.relpath(path, SRC), line)
                      for line in assert_lines(fh.read())]
    assert sites == []


def test_detector_finds_nested_asserts_only():
    src = ("def f(x):\n"
           "    if x:\n"
           "        assert x > 0, 'positive'\n"
           "    y = 'assert x'\n"
           "    return x\n"
           "assert f(1)\n")
    assert assert_lines(src) == [3, 6]
