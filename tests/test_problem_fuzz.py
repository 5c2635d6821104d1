"""Seeded random edits of the shipped problems: every run exits 0, 1 or 2.

Each edit swaps a token for another name of the file or an undeclared one,
deletes or duplicates a line, deletes or inserts a token, or replaces a token
with a scalar.  The edited file runs in-process through `cli.main` with one
of its corpus verbs at a small cap; an input error must exit 2 with a
message, never escape as a traceback.
"""

import contextlib
import io
import os
import random

import pytest

from koszulcat.cli import main

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")

# file -> its corpus verbs, each run at --max-degree 2
VERBS = {
    "c2conv.kz": (["validate"], ["tensor-idem"], ["hh", "-n", "1", "-p", "1"],
                  ["syzygy", "-n", "1", "--module", "R"]),
    "poly_xy.kz": (["koszul", "--alpha", "x,y", "--check-resolution"], ["regular-check"]),
    "dual_numbers.kz": (["koszul"], ["tensor-over", "--module", "R,M"]),
    "s3_group_algebra.kz": (["commutant"],),
    "trivial_q.kz": (["hh", "-n", "2", "-p", "1"], ["syzygy", "-n", "1", "--module", "Mt"]),
}
EDITS_PER_FILE = 250
SCALARS = ("0", "1", "-1", "2", "1/2", "3 mod 5")
UNDECLARED = "zz"


def _edit(rng, lines, names):
    """One seeded edit of the directive lines of a problem file."""
    lines = list(lines)
    directive = [i for i, ln in enumerate(lines) if ln.split("#", 1)[0].strip()]
    i = rng.choice(directive)
    toks = lines[i].split("#", 1)[0].split()
    kind = rng.choice(("swap", "delete-line", "duplicate-line", "delete-token",
                       "insert-token", "scalar"))
    k = rng.randrange(len(toks))
    other = rng.choice(names + [UNDECLARED])
    if kind == "delete-line":
        del lines[i]
        return lines
    if kind == "duplicate-line":
        lines.insert(rng.choice(directive) + 1, lines[i])
        return lines
    if kind == "swap":
        toks[k] = other
    elif kind == "delete-token":
        del toks[k]
    elif kind == "insert-token":
        toks.insert(rng.randrange(len(toks) + 1), other)
    else:
        toks[k] = rng.choice(SCALARS)
    lines[i] = " ".join(toks)
    return lines


@pytest.mark.parametrize("name", sorted(VERBS))
def test_seeded_edits_exit_zero_one_or_two(tmp_path, name):
    with open(os.path.join(PROBLEMS, name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    names = sorted({t for ln in lines for t in ln.split("#", 1)[0].split()})
    rng = random.Random("fuzz:" + name)
    path = str(tmp_path / name)
    codes = set()
    for n in range(EDITS_PER_FILE):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(_edit(rng, lines, names)) + "\n")
        verb = VERBS[name][n % len(VERBS[name])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb[0], path, "--max-degree", "2"] + verb[1:])
        assert code in (0, 1, 2), (name, n, code)
        codes.add(code)
    assert 2 in codes
