"""`rref`, `rank` and `kernel_basis` against a textbook reduced row echelon form.

The reduced row echelon form of a matrix is unique, so the package's
min-fill elimination must reproduce, entry for entry, the one computed here
by dense Gauss-Jordan elimination with the first nonzero entry as pivot.
Inputs are seeded: empty and zero matrices, row-mixed low-rank matrices,
fractional entries over Q, and F_2, F_5, F_101.

Over Q the elimination runs on integer rows.  Further seeded Q inputs (entries
up to 10^12, denominators 2, 3, 7 and 10^6 + 3, integral `Fraction`s, rows
that are exact multiples of others) are checked against the textbook form,
and their pivot choices against `reference_echelon`, the min-fill loop in
plain `Fraction` arithmetic.  Every Q output scalar is an `int` exactly when
it is integral.

`rank` eliminates the shorter side of a matrix.  Seeded tall and wide
matrices over Q and F_101 must have rank(m) == rank(m^T) == the textbook
rank, and a spy on `_echelon` sees a tall block arrive with its short side as
the rows.
"""

import random
from fractions import Fraction
from itertools import chain

import pytest

import koszulcat.matrix as matrix_mod
from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix, _echelon, kernel_basis, rank, rref

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


# -- fraction-free elimination over Q -------------------------------------------

DENOMINATORS = (2, 3, 7, 10**6 + 3)
BIG = 10**12


def big_scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-BIG, BIG)
    if kind == 1:
        return Fraction(rng.randint(-BIG, BIG), rng.choice(DENOMINATORS))
    if kind == 2:
        return Fraction(rng.randint(-9, 9), 1)  # integral, but boxed
    if kind == 3:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def big_q_cases(seed, count):
    """Seeded dense data over Q; some rows are exact multiples of earlier rows."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        data = [[big_scalar(rng) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        for i in range(1, nrows):
            if rng.random() < 0.3:
                c = big_scalar(rng) or Fraction(-5, 7)
                data[i] = [c * v for v in data[rng.randrange(i)]]
        yield data, ncols


def sparse(data):
    return [{j: v for j, v in enumerate(r) if v} for r in data]


def check_int_exactly_when_integral(values):
    for v in values:
        assert (v.__class__ is int) == (Fraction(v).denominator == 1), v
        assert v.__class__ in (int, Fraction)


def reference_echelon(rows, ncols):
    """(pivot columns, pivot row indices, final rows) of the min-fill loop over Q.

    The Gaussian loop in plain `Fraction` arithmetic: at each column the pivot
    is the unused candidate row with the fewest nonzeros, ties by position,
    and every other candidate becomes row - (b/a) * pivot row.
    """
    work = [{j: Fraction(v) for j, v in r.items()} for r in rows]
    pivcols, pivrows = [], []
    used = [False] * len(work)
    for col in range(ncols):
        cand = [i for i in range(len(work)) if not used[i] and col in work[i]]
        if not cand:
            continue
        piv = min(cand, key=lambda i: (len(work[i]), i))
        used[piv] = True
        pivcols.append(col)
        pivrows.append(piv)
        prow = work[piv]
        for i in cand:
            if i == piv:
                continue
            row = work[i]
            q = row.pop(col) / prow[col]
            for j, pv in prow.items():
                if j != col:
                    v = row.get(j, 0) - q * pv
                    if v:
                        row[j] = v
                    else:
                        row.pop(j, None)
    return pivcols, pivrows, work


def test_q_rref_matches_textbook_on_large_mixed_entries():
    checked = 0
    for data, ncols in big_q_cases(7200, 200):
        rows = sparse(data)
        before = [dict(r) for r in rows]
        want_piv, want_rows = textbook_rref(0, data, ncols)
        pivcols, reduced = rref(QQ, rows, ncols)
        assert rows == before
        assert pivcols == want_piv
        assert reduced == sparse(want_rows)
        for r in reduced:
            check_int_exactly_when_integral(r.values())
        m = Matrix(QQ, len(rows), ncols, rows)
        assert rank(m) == len(want_piv)
        for vec in kernel_basis(m):
            check_int_exactly_when_integral(vec)
        checked += 1
    assert checked == 200


def test_q_pivots_match_the_reference_fraction_loop(monkeypatch):
    # the integer rows `_echelon` works on, seen through the field hook
    seen = []
    integral_rows = Field.integral_rows

    def spy(self, rows):
        seen.append(integral_rows(self, rows))
        return seen[-1]

    monkeypatch.setattr(Field, "integral_rows", spy)
    checked = 0
    for data, ncols in chain(cases(QQ, 7000), big_q_cases(7100, 200)):
        rows = sparse(data)
        want_cols, want_pivrows, want_work = reference_echelon(rows, ncols)
        pivcols, pivrows = _echelon(QQ, rows, ncols)
        work = seen[-1]
        assert pivcols == want_cols
        assert [next(i for i, r in enumerate(work) if r is pr) for pr in pivrows] == want_pivrows
        for got, want in zip(work, want_work):
            # every row, pivot or not, is a nonzero integer multiple of the
            # reference row, with the same nonzero pattern
            assert got.keys() == want.keys()
            assert all(v.__class__ is int for v in got.values())
            if got:
                j = next(iter(got))
                c = got[j] / want[j]
                assert all(v == c * want[k] for k, v in got.items())
        checked += 1
    assert checked == 354


# -- rank eliminates the shorter side --------------------------------------------


def tall_and_wide_cases(field, seed, count):
    """Seeded pairs of matrices, one with more rows than columns and one with fewer."""
    rng = random.Random(seed)
    for _ in range(count):
        short, long = rng.randint(1, 6), rng.randint(7, 14)
        for nrows, ncols in ((long, short), (short, long)):
            yield random_data(field, rng, nrows, ncols), ncols


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=lambda f: f.descriptor())
def test_rank_of_tall_and_wide_matrices(field):
    """rank(m) == rank(m^T) == the textbook rank; over Q with denominators 2, 3, 7."""
    checked = 0
    for data, ncols in tall_and_wide_cases(field, 7300 + field.char, 60):
        m = Matrix(field, len(data), ncols, sparse(data))
        want = len(textbook_rref(field.char, data, ncols)[0])
        assert rank(m) == rank(m.transpose()) == want
        checked += 1
    assert checked == 120


def test_rank_eliminates_a_tall_block_by_its_short_side(monkeypatch):
    """A 9 x 4 block reaches `_echelon` as 4 rows of 9 columns; `rref` keeps its rows."""
    shapes = []
    real = matrix_mod._echelon

    def spy(field, rows, ncols):
        shapes.append((len(rows), ncols))
        return real(field, rows, ncols)

    monkeypatch.setattr(matrix_mod, "_echelon", spy)
    rng = random.Random(7400)
    tall = Matrix.from_rows(QQ, [[scalar(QQ, rng) for _ in range(4)] for _ in range(9)])
    assert rank(tall) == rank(tall.transpose())
    assert shapes == [(4, 9), (4, 9)]
    rref(QQ, tall.rows, 4)
    assert shapes[-1] == (9, 4)
