"""No package module imports an underscore name from another package module.

A name that starts with an underscore is private to the module that
defines it; what another module needs it reaches through a public name, as
`gtensor` reaches the copy rule through `monoid.form_moves`.  This ast lint
reads every import under `src/koszulcat`, nested ones included: a relative
import, or one from `koszulcat`, may name no `_private` object.  Dunder
names and `from __future__` are not private.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "koszulcat")


def private_imports(source: str):
    """(line, module, name) of each underscore name imported from the package."""
    return sorted((node.lineno, "." * node.level + (node.module or ""), alias.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and
                  (node.level or (node.module or "").split(".")[0] == "koszulcat")
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__"))


def test_no_private_names_imported_across_package_modules():
    paths = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    assert paths
    sites = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sites += ["%s:%d %s.%s" % ((os.path.relpath(path, SRC),) + site)
                      for site in private_imports(fh.read())]
    assert sites == []


def test_detector_finds_private_package_imports_only():
    src = ("from __future__ import annotations\n"
           "from os import _exit\n"
           "from .monoid import form_moves, _copy_rule\n"
           "def f():\n"
           "    from koszulcat.poly import _basis_names as names\n"
           "    from . import __version__\n"
           "    return names\n")
    assert private_imports(src) == [(3, ".monoid", "_copy_rule"),
                                    (5, "koszulcat.poly", "_basis_names")]
