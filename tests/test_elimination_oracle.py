"""`rref`, `rank` and `kernel_basis` against a textbook reduced row echelon form.

The reduced row echelon form of a matrix is unique, so the package's
min-fill elimination must reproduce, entry for entry, the one computed here
by dense Gauss-Jordan elimination with the first nonzero entry as pivot.
Inputs are seeded: empty and zero matrices, row-mixed low-rank matrices,
fractional entries over Q, and F_2, F_5, F_101.
"""

import random
from fractions import Fraction

import pytest

from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix, kernel_basis, rank, rref

FIELDS = [QQ, Field(2), Field(5), Field(101)]


def textbook_rref(p, data, ncols):
    """(pivot columns, dense reduced rows) by Gauss-Jordan elimination."""
    def inv(a):
        return 1 / Fraction(a) if p == 0 else pow(a, p - 2, p)

    def red(a):
        return a if p == 0 else a % p

    work = [list(r) for r in data]
    pivcols = []
    for j in range(ncols):
        r = len(pivcols)
        piv = next((i for i in range(r, len(work)) if work[i][j]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        s = inv(work[r][j])
        work[r] = [red(s * a) for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][j]:
                fac = work[i][j]
                work[i] = [red(a - fac * b) for a, b in zip(work[i], work[r])]
        pivcols.append(j)
    return pivcols, work[:len(pivcols)]


def scalar(field, rng):
    if field.char == 0:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7)))
    return rng.randrange(field.char)


def random_data(field, rng, nrows, ncols):
    kind = rng.choice(("dense", "sparse", "low-rank", "zero"))
    if kind == "zero":
        return [[field.zero()] * ncols for _ in range(nrows)]
    if kind == "low-rank":
        # every row is a random combination of a few random rows
        base = random_data(field, rng, rng.randint(0, 3), ncols) if ncols else []
        out = []
        for _ in range(nrows):
            row = [field.zero()] * ncols
            for b in base:
                c = scalar(field, rng)
                row = [field.add(a, field.mul(c, x)) for a, x in zip(row, b)]
            out.append(row)
        return out
    density = 0.9 if kind == "dense" else 0.25
    return [[scalar(field, rng) if rng.random() < density else field.zero()
             for _ in range(ncols)] for _ in range(nrows)]


def cases(field, seed, count=150):
    rng = random.Random(seed)
    yield [], 0
    yield [], 4
    yield [[] for _ in range(3)], 0
    yield [[field.zero()] * 5 for _ in range(4)], 5
    for _ in range(count):
        nrows, ncols = rng.randint(0, 10), rng.randint(0, 10)
        yield random_data(field, rng, nrows, ncols), ncols


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.descriptor())
def test_rref_rank_kernel_match_textbook(field):
    checked = 0
    for data, ncols in cases(field, 7000 + field.char):
        rows = [{j: v for j, v in enumerate(r) if v} for r in data]
        before = [dict(r) for r in rows]
        want_piv, want_rows = textbook_rref(field.char, data, ncols)
        pivcols, reduced = rref(field, rows, ncols)
        assert rows == before  # the input rows are left alone
        assert pivcols == want_piv
        assert reduced == [{j: v for j, v in enumerate(r) if v} for r in want_rows]
        m = Matrix(field, len(rows), ncols, rows)
        assert rank(m) == len(want_piv)
        want_kernel = []
        for free in (j for j in range(ncols) if j not in want_piv):
            vec = [field.zero()] * ncols
            vec[free] = field.one()
            for k, col in enumerate(want_piv):
                vec[col] = field.neg(want_rows[k][free])
            want_kernel.append(tuple(vec))
        assert kernel_basis(m) == want_kernel
        checked += 1
    assert checked == 154


def test_rank_at_larger_sizes():
    rng = random.Random(8128)
    for field in FIELDS:
        for _ in range(6):
            nrows, ncols = rng.randint(12, 24), rng.randint(12, 24)
            data = random_data(field, rng, nrows, ncols)
            m = Matrix.from_rows(field, data)
            assert rank(m) == len(textbook_rref(field.char, data, ncols)[0])
