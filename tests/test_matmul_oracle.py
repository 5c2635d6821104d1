"""`Matrix.__mul__` with inline field arithmetic against the `Field.add`/`Field.mul` loop.

The product writes its arithmetic inline (reduction mod p; over Q one
`Field.add` per term).  The oracle is the loop it replaced, copied here, on
seeded sparse matrices over Q with mixed denominators and over F_101,
including empty rows, terms that cancel to zero and 1x1 products.  Entries,
their order within each row and their types must agree, and no stored entry
may be zero.  `Matrix.__sub__`, one pass over the right operand, is checked
the same way against a + b.scale(-1).
"""

import random

import pytest

from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix

F101 = Field(101)


def reference_product(a: Matrix, b: Matrix, cancels=None) -> list:
    """The rows of a * b by the former loop; appends to cancels each sum that hit zero."""
    f = a.field
    out = []
    for ra in a.rows:
        acc: dict = {}
        for k, x in ra.items():
            for j, y in b.rows[k].items():
                s = f.add(acc.get(j, f.zero()), f.mul(x, y))
                if s:
                    acc[j] = s
                else:
                    acc.pop(j, None)
                    if cancels is not None:
                        cancels.append(j)
        out.append(acc)
    return out


def _scalar(rng, field):
    """A nonzero scalar; over Q often +-1 (so sums cancel) and often fractional."""
    num = rng.choice([1, -1, 1, -1, 1, -1, 2, -3, 7, 60])
    if field.char:
        return field.from_int(num)
    return field.div(field.from_int(num), field.from_int(rng.choice([1, 1, 1, 2, 3, 4, 6, 9])))


def _random_matrix(rng, field, nrows, ncols, density):
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.2:
            rows.append({})  # an empty row
            continue
        rows.append({j: _scalar(rng, field) for j in range(ncols) if rng.random() < density})
    return Matrix(field, nrows, ncols, rows)


def _with_cancelling_pair(rng, a: Matrix, b: Matrix):
    """Make row k2 of b minus row k1 and give one row of a equal entries at k1, k2."""
    field = a.field
    if a.nrows and b.nrows >= 2 and b.ncols:
        k1, k2 = rng.sample(range(b.nrows), 2)
        b.rows[k1] = b.rows[k1] or {rng.randrange(b.ncols): _scalar(rng, field)}
        b.rows[k2] = {j: field.neg(v) for j, v in b.rows[k1].items()}
        x = _scalar(rng, field)
        a.rows[rng.randrange(a.nrows)].update({k1: x, k2: x})


def _assert_same(got: Matrix, want: list):
    assert got.rows == want
    for g, w in zip(got.rows, want):
        assert list(g) == list(w)  # the same entry order
        assert [v.__class__ for v in g.values()] == [v.__class__ for v in w.values()]
        assert all(g.values())  # zeros omitted


@pytest.mark.parametrize("field", [pytest.param(QQ, id="Q"), pytest.param(F101, id="F101")])
@pytest.mark.parametrize("seed", range(6))
def test_product_matches_reference_loop(field, seed):
    rng = random.Random(seed)
    cancels = []
    for _ in range(60):
        n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = _random_matrix(rng, field, n, k, rng.choice([0.2, 0.5, 0.9]))
        b = _random_matrix(rng, field, k, m, rng.choice([0.2, 0.5, 0.9]))
        if rng.random() < 0.3:
            _with_cancelling_pair(rng, a, b)
        _assert_same(a * b, reference_product(a, b, cancels))
    assert cancels  # some entries summed to zero on the way


@pytest.mark.parametrize("field", [pytest.param(QQ, id="Q"), pytest.param(F101, id="F101")])
def test_cancellation_and_one_by_one(field):
    one, neg = field.one(), field.neg(field.one())
    a = Matrix(field, 2, 2, [{0: one, 1: one}, {}])
    b = Matrix(field, 2, 2, [{0: one, 1: one}, {0: neg, 1: one}])
    _assert_same(a * b, reference_product(a, b))
    assert (a * b).rows == [{1: field.from_int(2)}, {}]
    half = field.div(one, field.from_int(2))
    for x, y in [(half, field.from_int(2)), (half, half), (neg, neg)]:
        p, q = Matrix(field, 1, 1, [{0: x}]), Matrix(field, 1, 1, [{0: y}])
        _assert_same(p * q, reference_product(p, q))
    if not field.char:
        # an integral product of fractions comes back as an int
        prod = Matrix(field, 1, 1, [{0: half}]) * Matrix(field, 1, 1, [{0: field.from_int(2)}])
        assert prod.rows == [{0: 1}] and prod.rows[0][0].__class__ is int


@pytest.mark.parametrize("field", [pytest.param(QQ, id="Q"), pytest.param(F101, id="F101")])
@pytest.mark.parametrize("seed", range(6))
def test_difference_matches_adding_the_negation(field, seed):
    rng = random.Random(100 + seed)
    minus_one = field.from_int(-1)
    for _ in range(60):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        a = _random_matrix(rng, field, n, m, rng.choice([0.2, 0.5, 0.9]))
        b = _random_matrix(rng, field, n, m, rng.choice([0.2, 0.5, 0.9]))
        if n and m and rng.random() < 0.5:
            i = rng.randrange(n)
            b.rows[i] = dict(a.rows[i])  # a row that cancels entirely
        _assert_same(a - b, (a + b.scale(minus_one)).rows)
        assert (a - a).nnz() == 0 and (a - a).rows == [{} for _ in range(n)]
