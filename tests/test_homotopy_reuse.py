"""`contracting_homotopy` solves each distinct chain once within a call.

The complexes here have two objects and cap 1, every differential keeping
the degree, so there are four chains, anchored at (object, 0) and
(object, 1), each a copy of one seeded split exact chain.  A chain equal to
one certified earlier in the call is counted but not solved again; a chain
that differs from the others in a single block is solved, and its failure
is reported at its own object and degree, in either object order.
"""

import random
from types import SimpleNamespace

import pytest

import koszulcat.complexes
from koszulcat.complexes import ChainComplex, GradedMap, Term, contracting_homotopy
from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix
from test_homotopy_oracle import split_exact_chain

FIELDS = [QQ, Field(101)]
CAP = 1


def two_object_complex(field, objects, spaces, mats, odd=None):
    """Every chain (x, d) is (spaces, mats), except that odd = (x, d, p, block)
    puts block at d_p of chain (x, d)."""
    terms = [Term("V%d" % p, {(x, d): v for x in objects for d in range(CAP + 1)})
             for p, v in enumerate(spaces)]
    diffs = [None]
    for p in range(1, len(terms)):
        blocks = {(x, d, d): mats[p] for x in objects for d in range(CAP + 1)}
        if odd is not None and odd[2] == p:
            blocks[(odd[0], odd[1], odd[1])] = odd[3]
        diffs.append(GradedMap(field, terms[p], terms[p - 1], blocks))
    return ChainComplex(SimpleNamespace(field=field, objects=objects), CAP, terms, diffs)


def count_solves(monkeypatch):
    calls = []
    real = koszulcat.complexes.solve_matrix

    def counting(m, b):
        calls.append(1)
        return real(m, b)

    monkeypatch.setattr(koszulcat.complexes, "solve_matrix", counting)
    return calls


def seeded_chain(field, seed):
    rng = random.Random(seed)
    return rng, split_exact_chain(field, rng, [rng.randint(1, 3) for _ in range(rng.randint(2, 4))])


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
@pytest.mark.parametrize("seed", range(5))
def test_equal_chains_are_solved_once_and_all_counted(monkeypatch, field, seed):
    _, (spaces, mats) = seeded_chain(field, seed)
    calls = count_solves(monkeypatch)
    cert = contracting_homotopy(two_object_complex(field, ("x", "y"), spaces, mats))
    per_chain = sum(1 for v in spaces if v)
    assert len(calls) == len(spaces) - 1  # one chain's solves, not four
    assert cert.ok
    assert cert.cells_checked == 4 * per_chain
    assert cert.detail == "dh + hd = id on all %d cells" % (4 * per_chain)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("objects", [("x", "y"), ("y", "x")], ids=["xy", "yx"])
@pytest.mark.parametrize("odd_obj", ["x", "y"])
def test_a_chain_differing_in_one_block_fails_at_its_own_cell(field, seed, objects, odd_obj):
    """Zeroing a nonzero column of one d_p of chain (odd_obj, 1) makes that
    chain inexact (as in test_homotopy_oracle); the chains before it in the
    order objects x degrees are certified and counted, and it is not taken
    for their copy."""
    rng, (spaces, mats) = seeded_chain(field, seed)
    p = rng.randrange(1, len(spaces))
    d = mats[p]
    j = rng.choice([j for j in range(d.ncols) if any(j in row for row in d.rows)])
    zeroed = Matrix(field, d.nrows, d.ncols,
                    [{k: v for k, v in row.items() if k != j} for row in d.rows])
    cert = contracting_homotopy(two_object_complex(field, objects, spaces, mats,
                                                   (odd_obj, 1, p, zeroed)))
    before = objects.index(odd_obj) * (CAP + 1) + 1
    assert not cert.ok
    assert cert.detail == "no contracting homotopy along chain (%s, 1)" % odd_obj
    assert cert.cells_checked == before * sum(1 for v in spaces if v)
