"""Contracting homotopies of seeded split exact chains, over Q and F_101.

A split exact chain 0 -> V_N -> ... -> V_0 -> 0 with rank d_p = r_p is, in a
suitable basis, V_p = F^{r_{p+1}} (+) F^{r_p} with d_p the identity from the
second summand of V_p onto the first summand of V_{p-1}.  The chains here are
that normal form conjugated by random invertible matrices, built from row
additions and swaps so that each inverse is known without elimination.
"""

import random

import pytest

import koszulcat.complexes
import koszulcat.matrix
from koszulcat.category import CategoryPresentation
from koszulcat.complexes import (
    ChainComplex,
    GradedMap,
    Term,
    _chain_homotopy,
    contracting_homotopy,
)
from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix

FIELDS = [QQ, Field(101)]
SEEDS = range(25)


def invertible_pair(field, rng, n):
    """A random invertible n x n matrix and its inverse."""
    p, p_inv = Matrix.identity(field, n), Matrix.identity(field, n)
    for _ in range(3 * n if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        e, e_inv = Matrix.identity(field, n), Matrix.identity(field, n)
        if rng.random() < 0.2:
            for m in (e, e_inv):
                m.rows[i], m.rows[j] = m.rows[j], m.rows[i]
        else:
            c = field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
            e.rows[i][j], e_inv.rows[i][j] = c, field.neg(c)
        p, p_inv = e * p, p_inv * e_inv
    assert p * p_inv == Matrix.identity(field, n)
    return p, p_inv


def split_exact_chain(field, rng, ranks, top_kernel=0):
    """(spaces, mats) for a conjugated split exact chain with rank d_p = ranks[p-1].

    `top_kernel` > 0 adds that many columns mapping to zero at the top term,
    so d_N is not injective while every lower term stays exact.
    """
    r = [0] + list(ranks) + [0]
    n_terms = len(ranks) + 1
    spaces = [r[p] + r[p + 1] for p in range(n_terms)]
    spaces[-1] += top_kernel
    conj = [invertible_pair(field, rng, v) for v in spaces]
    mats = [None]
    for p in range(1, n_terms):
        d = Matrix.zeros(field, spaces[p - 1], spaces[p])
        for i in range(r[p]):
            d.rows[i][r[p + 1] + i] = field.one()
        mats.append(conj[p - 1][0] * d * conj[p][1])
    return spaces, mats


def random_ranks(rng):
    return [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]


def identity_defect(field, spaces, mats, hs, p):
    total = Matrix.zeros(field, spaces[p], spaces[p])
    if p < len(spaces) - 1:
        total = total + mats[p + 1] * hs[p]
    if p >= 1:
        total = total + hs[p - 1] * mats[p]
    return total - Matrix.identity(field, spaces[p])


def as_complex(field, spaces, mats):
    """The chain as a complex on the trivial category, every term in degree 0."""
    cat = CategoryPresentation.trivial(field)
    (u,) = cat.objects
    terms = [Term("V%d" % p, {(u, 0): v}) for p, v in enumerate(spaces)]
    diffs = [None] + [GradedMap(field, terms[p], terms[p - 1], {(u, 0, 0): mats[p]})
                      for p in range(1, len(terms))]
    return ChainComplex(cat, 0, terms, diffs)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
@pytest.mark.parametrize("seed", SEEDS)
def test_split_exact_chain_gets_a_contracting_homotopy(field, seed):
    rng = random.Random(seed)
    spaces, mats = split_exact_chain(field, rng, random_ranks(rng))
    hs, _ = _chain_homotopy(field, spaces, mats)
    assert hs is not None and len(hs) == len(spaces) - 1
    for p in range(len(spaces)):
        assert identity_defect(field, spaces, mats, hs, p).is_zero(), p
    cert = contracting_homotopy(as_complex(field, spaces, mats))
    assert cert.ok, cert.detail
    assert cert.cells_checked == sum(1 for v in spaces if v)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
@pytest.mark.parametrize("seed", SEEDS)
def test_zeroed_column_makes_the_chain_fail(field, seed):
    """Zeroing a nonzero column of d_p either shrinks im d_p below ker d_{p-1}
    or, if the column lay in the span of the others, grows ker d_p past
    im d_{p+1}; the latter needs p < N, which holds since d_N is injective."""
    rng = random.Random(seed)
    ranks = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
    spaces, mats = split_exact_chain(field, rng, ranks)
    p = rng.randrange(1, len(spaces))
    d = mats[p]
    j = rng.choice([j for j in range(d.ncols) if any(j in row for row in d.rows)])
    mats[p] = Matrix(field, d.nrows, d.ncols,
                     [{k: v for k, v in row.items() if k != j} for row in d.rows])
    assert _chain_homotopy(field, spaces, mats)[0] is None
    cert = contracting_homotopy(as_complex(field, spaces, mats))
    assert not cert.ok
    assert cert.detail == "no contracting homotopy along chain (1, 0)"


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
@pytest.mark.parametrize("seed", range(10))
def test_non_injective_top_fails_the_identity_check(field, seed):
    rng = random.Random(seed)
    ranks = random_ranks(rng)
    spaces, mats = split_exact_chain(field, rng, ranks, top_kernel=rng.randint(1, 2))
    top = len(spaces) - 1
    cert = contracting_homotopy(as_complex(field, spaces, mats))
    assert not cert.ok
    assert cert.detail == "dh + hd != id at term %d cell (1, 0)" % top


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
@pytest.mark.parametrize("seed", range(10))
def test_wrong_solver_answer_fails_the_identity_check(monkeypatch, field, seed):
    """One entry added to the solve for h_{N-1} fails dh + hd = id at term N-1.

    d_N is injective, so d_N h_{N-1} moves off e_{N-1}; no later solve runs,
    so the identity check is the failure reported."""
    rng = random.Random(seed)
    spaces, mats = split_exact_chain(field, rng, [rng.randint(1, 3)
                                                  for _ in range(rng.randint(1, 4))])
    below_top = len(spaces) - 2
    real_solve = koszulcat.complexes.solve_matrix
    solved = []

    def perturbed(m, b):
        h = real_solve(m, b)
        solved.append(h)
        if len(solved) - 1 == below_top:
            h = h + Matrix.from_entries(field, h.nrows, h.ncols, {(0, 0): field.one()})
        return h

    monkeypatch.setattr(koszulcat.complexes, "solve_matrix", perturbed)
    cert = contracting_homotopy(as_complex(field, spaces, mats))
    assert len(solved) == len(spaces) - 1
    assert not cert.ok
    assert cert.detail == "dh + hd != id at term %d cell (1, 0)" % below_top
    assert cert.cells_checked == below_top  # every term below is nonzero and passed


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_one_elimination_per_term_below_the_top(monkeypatch, field):
    calls = []
    real_rref = koszulcat.matrix.rref

    def counting_rref(*args):
        calls.append(1)
        return real_rref(*args)

    monkeypatch.setattr(koszulcat.matrix, "rref", counting_rref)
    rng = random.Random(7)
    for _ in range(5):
        spaces, mats = split_exact_chain(field, rng, random_ranks(rng))
        calls.clear()
        assert _chain_homotopy(field, spaces, mats)[0] is not None
        assert len(calls) == len(spaces) - 1
