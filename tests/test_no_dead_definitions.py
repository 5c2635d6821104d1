"""Every function the package defines is referenced somewhere.

Parses `src/`, `tests/` and `perfbench/` with `ast`.  A function defined in
`src/koszulcat` counts as referenced when its name is read as a bare name or
imported (also under an alias); a method, when its name is read as an
attribute.  Dunder methods, which the language calls, and the problem-file
`p_*` handlers, which the parser reaches through `getattr`, are exempt.
"""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src", "koszulcat")
SEARCHED = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def definitions(tree):
    """(name, is_method, line) for every function, nested ones included."""
    out = []
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, ast.FunctionDef):
                out.append((child.name, isinstance(parent, ast.ClassDef), child.lineno))
    return out


def references(trees):
    """(names read or imported, attribute names read) across the trees."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names, attrs


def dead_definitions(package_trees, all_trees):
    names, attrs = references(all_trees)
    dead = []
    for module, tree in package_trees.items():
        for name, is_method, line in definitions(tree):
            if (name.startswith("__") and name.endswith("__")) or name.startswith("p_"):
                continue
            if name not in (attrs if is_method else names):
                dead.append("%s:%d %s" % (module, line, name))
    return sorted(dead)


def test_every_package_function_is_referenced():
    package = {os.path.basename(p): parse(p)
               for p in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))}
    assert len(package) > 10
    searched = [parse(p) for d in SEARCHED
                for p in glob.glob(os.path.join(d, "**", "*.py"), recursive=True)]
    assert dead_definitions(package, searched) == []


def test_detector_flags_an_unreferenced_function_and_method():
    src = ast.parse(
        "def used(): pass\n"
        "def unused(): pass\n"
        "class K:\n"
        "    def __init__(self): pass\n"
        "    def p_main(self): pass\n"
        "    def called(self): pass\n"
        "    def uncalled(self): pass\n"
        "    def shadowed(self): pass\n"
        "used()\nK().called()\nshadowed()\n")
    assert dead_definitions({"m.py": src}, [src]) == ["m.py:2 unused", "m.py:7 uncalled",
                                                       "m.py:8 shadowed"]
