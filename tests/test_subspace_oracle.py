"""Subspace membership and quotients against a naive elimination oracle.

`Subspace.contains` reads the answer off the canonical basis in one pass; the
oracle here decides membership the slow way, as rank [basis | v] == dim, by
plain dense Gaussian elimination written out below.
"""

import random
from fractions import Fraction

import pytest

from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix, Subspace, quotient

F101 = Field(101)


def naive_rank(field, cols, nrows):
    """Rank of the matrix whose columns are `cols`, by dense elimination."""
    p = field.char
    work = [[Fraction(c[i]) if p == 0 else c[i] % p for c in cols] for i in range(nrows)]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, nrows) if work[i][j]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(nrows):
            if i != rank and work[i][j]:
                if p == 0:
                    fac = work[i][j] / work[rank][j]
                    work[i] = [a - fac * b for a, b in zip(work[i], work[rank])]
                else:
                    fac = work[i][j] * pow(work[rank][j], p - 2, p) % p
                    work[i] = [(a - fac * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def naive_contains(sub, vec):
    cols = [sub.basis.column(j) for j in range(sub.dim)]
    return naive_rank(sub.field, cols + [list(vec)], sub.ambient) == sub.dim


def scalar(field, rng):
    if field.char == 0:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return rng.randrange(field.char)


def random_vec(field, rng, n):
    return [scalar(field, rng) if rng.random() < 0.6 else field.zero() for _ in range(n)]


def combination(field, rng, spanning, n):
    out = [field.zero()] * n
    for v in spanning:
        c = scalar(field, rng)
        out = [field.add(a, field.mul(c, b)) for a, b in zip(out, v)]
    return out


def random_subspace(field, rng, n):
    k = rng.randint(1, n + 1)
    spanning = [random_vec(field, rng, n) for _ in range(k)]
    # repeat a combination now and then so the spanning set is dependent
    if rng.random() < 0.5:
        spanning.append(combination(field, rng, spanning, n))
    return spanning, Subspace.from_columns(field, n, spanning)


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_contains_agrees_with_naive_rank(field):
    rng = random.Random(20261018 + field.char)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 7)
        spanning, sub = random_subspace(field, rng, n)
        assert sub.dim == naive_rank(field, spanning, n)
        # the canonical form both fast paths read: column k is the unit
        # vector at pivots[k] when restricted to the pivot rows
        for k in range(sub.dim):
            col = sub.basis.column(k)
            assert [col[r] for r in sub.pivots] == \
                [field.one() if j == k else field.zero() for j in range(sub.dim)]
        inside = combination(field, rng, spanning, n)
        probes = [inside, random_vec(field, rng, n)]
        # perturb one coordinate of a member: outside unless the span covers it
        bumped = list(inside)
        i = rng.randrange(n)
        bumped[i] = field.add(bumped[i], field.one())
        probes.append(bumped)
        assert sub.contains(inside)
        for v in probes:
            expect = naive_contains(sub, v)
            assert sub.contains(v) == expect, (spanning, v)
            seen[expect] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_contains_on_zero_and_full(field):
    rng = random.Random(7 + field.char)
    for n in range(0, 6):
        zero, full = Subspace.zero(field, n), Subspace.full(field, n)
        for _ in range(10):
            v = random_vec(field, rng, n)
            assert full.contains(v)
            assert zero.contains(v) == (not any(v)) == naive_contains(zero, v)
        assert zero.contains([field.zero()] * n)


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_quotient_projection_kills_exactly_the_subspace(field):
    rng = random.Random(99 + field.char)
    for _ in range(60):
        n = rng.randint(1, 7)
        spanning, sub = random_subspace(field, rng, n)
        for s in (sub, Subspace.zero(field, n), Subspace.full(field, n)):
            q = quotient(n, s)
            assert (q.projection * s.basis).is_zero()
            # kernel of the projection has dimension n - rank = dim s, so it is s
            proj_cols = [q.projection.column(j) for j in range(n)]
            assert naive_rank(field, proj_cols, q.dim) == q.dim == n - s.dim
            assert q.projection * q.section == Matrix.identity(field, q.dim)
        q = quotient(n, sub)
        for v in (combination(field, rng, spanning, n), random_vec(field, rng, n)):
            assert (not any(q.projection.apply(v))) == naive_contains(sub, v)
