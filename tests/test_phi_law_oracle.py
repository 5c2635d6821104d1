"""The multiplicativity law of the merge Phi, per pair of degrees, against the per-block law.

`poly._check_phi_multiplicative` runs `morphism_law` once per pair of tensor
cells (k1, k2).  The oracle is the law it replaced, copied here: one
`morphism_law` triple per pair of blocks C_{a1} (x) D_{a2}, C_{b1} (x) D_{b2}
with no empty factor.  Both must give the same verdict on the sound Phi and
on every single-entry fault (one entry raised by one) of a Phi cell or of a
cell mu_E(k1, k2) of the merged monoid's pairing.  Bases: the scalar monoid
over Q and over F_101, with n = m = 1, n = m = 2 and n != m variables, caps
1 to 4.  A cell of up to 36 entries is faulted at every entry, a larger one
at a seeded sample of 8.  Not every fault breaks the law (a fault of Phi at
degree 1 passes it at cap 1, where the unit is the only other factor), so
only the verdicts are compared.
"""

import random

import pytest

from koszulcat.category import CategoryPresentation
from koszulcat.field import QQ, Field
from koszulcat.gtensor import GradedTensor
from koszulcat.hochschild import certify_tensor_idempotent
from koszulcat.matrix import Matrix
from koszulcat.monoid import morphism_law, scalar_monoid
from koszulcat.poly import _check_phi_multiplicative, default_var_names, merge_variables, \
    polynomial_monoid

F101 = Field(101)
EVERY = 36  # cells up to this many entries are faulted at every entry
SAMPLE = 8  # faulted entries of a larger cell, seeded


def oracle_phi_multiplicative(c, d, merged, gt, phi) -> bool:
    """The per-block law, as `_check_phi_multiplicative` read before."""
    u, cap = c.cat.unit, gt.cap
    # phi restricted to the block C_{d1} (x) D_{d2} of its cell, per (d1, d2)
    phi_block = {(b.d1, b.d2): phi[(u, k)].select_columns(range(b.offset, b.offset + b.dim))
                 for k in range(cap + 1) for b in gt.layout[(u, k)]}

    def dims(split):
        return c.carrier.dim(u, split[0]), d.carrier.dim(u, split[1])

    def mu_tensor(a, b):
        (dc1, dd1), (dc2, dd2) = dims(a), dims(b)
        # the middle swap as a column order: source (p1 q1 p2 q2) reads
        # column (p1 p2 q1 q2) of mu_C (x) mu_D
        cols = [((p1 * dc2 + p2) * dd1 + q1) * dd2 + q2
                for p1 in range(dc1) for q1 in range(dd1)
                for p2 in range(dc2) for q2 in range(dd2)]
        return c.pairing_cell(u, a[0], u, b[0]).kron(
            d.pairing_cell(u, a[1], u, b[1])).select_columns(cols)

    splits = [split for split in phi_block if 0 not in dims(split)]
    return morphism_law(phi_block, mu_tensor,
                        lambda a, b: merged.pairing_cell(u, sum(a), u, sum(b)),
                        [(a, b, (a[0] + b[0], a[1] + b[1]))
                         for a in splits for b in splits if sum(a) + sum(b) <= cap])


class FaultedPairing:
    """The merged monoid with one pairing cell replaced."""

    def __init__(self, merged, key, cell):
        self.merged, self.key, self.cell = merged, key, cell

    def pairing_cell(self, *key):
        return self.cell if key == self.key else self.merged.pairing_cell(*key)


def bump(m: Matrix, i: int, j: int) -> Matrix:
    """m with entry (i, j) raised by one."""
    rows = [dict(r) for r in m.rows]
    v = m.field.add(rows[i].get(j, m.field.zero()), m.field.one())
    if v:
        rows[i][j] = v
    else:
        del rows[i][j]
    return Matrix(m.field, m.nrows, m.ncols, rows)


def positions(m: Matrix, rng):
    """Every entry of a small m, a seeded sample of the entries of a larger one."""
    every = [(i, j) for i in range(m.nrows) for j in range(m.ncols)]
    return every if len(every) <= EVERY else rng.sample(every, SAMPLE)


def merge(field, n, m, cap):
    base = scalar_monoid(CategoryPresentation.trivial(field))
    c = polynomial_monoid(base, n, cap, var_names=default_var_names(n, "u"))
    d = polynomial_monoid(base, m, cap, var_names=default_var_names(m, "v"))
    witness = {x: certify_tensor_idempotent(base).mu_cells[(x, 0)] for x in base.cat.objects}
    return c, d, merge_variables(c, d, base, witness)


SHAPES = [(n, m, cap) for n, m in ((1, 1), (2, 2), (1, 2), (2, 1)) for cap in (1, 2, 3, 4)]


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
@pytest.mark.parametrize("n,m,cap", SHAPES, ids=["n%d-m%d-cap%d" % s for s in SHAPES])
def test_whole_cell_law_matches_the_per_block_law(field, n, m, cap):
    c, d, res = merge(field, n, m, cap)
    merged, gt, phi = res.monoid, GradedTensor(c.carrier, d.carrier), res.phi
    u = c.cat.unit
    rng = random.Random(n * 100 + m * 10 + cap)

    assert _check_phi_multiplicative(c, d, merged, gt.layout, gt.dims, phi)
    assert oracle_phi_multiplicative(c, d, merged, gt, phi)

    verdicts = []
    for k in range(cap + 1):
        cell = phi[(u, k)]
        for i, j in positions(cell, rng):
            faulty = dict(phi)
            faulty[(u, k)] = bump(cell, i, j)
            verdicts.append((_check_phi_multiplicative(c, d, merged, gt.layout, gt.dims, faulty),
                             oracle_phi_multiplicative(c, d, merged, gt, faulty)))
    for k1 in range(cap + 1):
        for k2 in range(cap + 1 - k1):
            key = (u, k1, u, k2)
            cell = merged.pairing_cell(*key)
            for i, j in positions(cell, rng):
                faulty = FaultedPairing(merged, key, bump(cell, i, j))
                verdicts.append((_check_phi_multiplicative(c, d, faulty, gt.layout, gt.dims, phi),
                                 oracle_phi_multiplicative(c, d, faulty, gt, phi)))
    assert all(new == old for new, old in verdicts)
    assert not all(new for new, _ in verdicts)  # the law is not vacuous
