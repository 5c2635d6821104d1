"""Every name a package module imports is used in that module.

Parses each `src/koszulcat/*.py` except the package `__init__` (which
re-exports) with `ast`; `from __future__` imports are compiler directives and
are skipped.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "koszulcat")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_detector_flags_an_unused_name():
    src = "from __future__ import annotations\nimport os\nfrom x import a, b as c\nc()\n"
    assert unused_imports(src) == [(2, "os"), (3, "a")]
