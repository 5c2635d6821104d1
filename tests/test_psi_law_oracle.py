"""psi's law on its generators gives the verdict of the law on every pair of degrees.

`hochschild.psi_law` checks the substitution psi of the change of variables
multiplicative on the degree pairs (0, d) and (1, d) only.  The oracle below
is the law as it was checked before, on every pair (d1, d2) with
d1 + d2 <= cap.  Both must give the same verdict on the sound psi and on psi
with one entry changed (+1), at every entry of a cell of up to 36 entries
and at 6 seeded entries of a larger one, in every degree, for n = 1..3
variable pairs and caps 0..5, over Q and F_101.
"""

import random

import pytest

from koszulcat.field import QQ, Field
from koszulcat.hochschild import psi_law, substitution_matrices
from koszulcat.matrix import Matrix
from koszulcat.monoid import morphism_law
from koszulcat.poly import monomial_block_product

F101 = Field(101)
SMALL = 36


def all_pairs_law(psi, nvars, cap):
    """The oracle: psi's law on every pair of degrees (d1, d2), d1 + d2 <= cap."""
    one = Matrix.identity(psi[0].field, 1)
    conv = {(d1, d2): monomial_block_product(nvars, d1, nvars, d2, "add", one, 1, 1)
            for d1 in range(cap + 1) for d2 in range(cap + 1 - d1)}
    return morphism_law(psi, lambda *split: conv[split], lambda *split: conv[split],
                        [(d1, d2, d1 + d2) for d1, d2 in conv])


def entries(mat, rng):
    cells = [(r, c) for r in range(mat.nrows) for c in range(mat.ncols)]
    return cells if len(cells) <= SMALL else rng.sample(cells, 6)


def bumped(mat, r, c):
    """mat with entry (r, c) increased by one."""
    f = mat.field
    rows = [dict(row) for row in mat.rows]
    v = f.add(rows[r].get(c, f.zero()), f.one())
    if v:
        rows[r][c] = v
    else:
        rows[r].pop(c, None)
    return Matrix(f, mat.nrows, mat.ncols, rows)


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_law_matches_the_all_pairs_law(field, n):
    rng = random.Random(n)
    verdicts = set()
    for cap in range(6):
        psi = substitution_matrices(field, n, cap)
        assert psi_law(psi, 2 * n, cap) is all_pairs_law(psi, 2 * n, cap) is True
        for d, mat in psi.items():
            for r, c in entries(mat, rng):
                faulty = dict(psi)
                faulty[d] = bumped(mat, r, c)
                got = psi_law(faulty, 2 * n, cap)
                assert got == all_pairs_law(faulty, 2 * n, cap), (cap, d, r, c)
                verdicts.add(got)
    assert verdicts == {True, False}  # some faults pass both laws, the rest fail both
