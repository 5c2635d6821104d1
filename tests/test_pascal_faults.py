"""Each certificate of the Pascal splitting fails on a fault made for it.

One table entry per certificate of `koszul.pascal_split`.  iota, tau and
sigma are copy maps there, so the two certificates read from their pairs
fail on a bad pair: a tau or sigma that sends a copy to the wrong place
(through `summand_copies`, which builds them in the order iota, tau, sigma
for p = 0..n).  The ladder squares and the restriction identity compare
blocks of d, d' and L, so they fail on one entry of a block of d_1 or d_2 of
the complex under test, bumped before `pascal_split` runs.  The connecting
map fails on a bumped entry of L, the last multiplication on a copy of a
small term.  The complex itself is built before the fault is installed, and
the same construction without the fault passes all six certificates, so
the failure is the fault's.

Base: `_forms_complex` of tests/test_koszul.py, three forms over
Q[t1, t2, t3] at cap 3 whose kernel bases are fractional.

Two further tests pin how `connecting-map-formula` follows from the
restriction identity cell by cell: for a cycle z of d' at (x, d) the identity
d sigma = sigma d' + (-1)^(p-1) iota L gives d sigma z = (-1)^(p-1) iota L z.
A fault in a column where a cycle is nonzero, at a cell of the connecting
window, fails both certificates; a fault at a source degree outside that
window fails the restriction identity only.
"""

import pytest

import koszulcat.koszul as koszul
from koszulcat.category import CategoryPresentation
from koszulcat.complexes import CopyMap
from koszulcat.field import QQ, Field
from koszulcat.koszul import build_koszul, pascal_split
from koszulcat.matrix import Matrix, kernel_basis
from koszulcat.monoid import scalar_monoid
from koszulcat.poly import polynomial_monoid, variable_element
from test_koszul import _forms_complex as forms_complex, _small_cycle_cells

F101 = Field(101)
CERTIFICATES = ["tau-iota-zero", "tau-sigma-identity", "ladder-left-square",
                "ladder-right-square", "restriction-formula", "connecting-map-formula"]


def mixed_degree_complex():
    """(t1, t2^2) over F_101 at cap 5: the last element raises the degree by 2."""
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(F101)), 2, 5)
    t1, t2 = variable_element(a, 1), variable_element(a, 2)
    return build_koszul(a, [t1, a.multiply(t2, t2)])


def certificates(kc):
    return {c.name: c for c in pascal_split(kc).report.certificates}


def bump(gmap, key, i, j):
    """Add one to entry (i, j) of block `key` of a graded map, in place."""
    block = gmap.block(*key)
    gmap.blocks[key] = block + Matrix.from_entries(gmap.field, block.nrows, block.ncols,
                                                   {(i, j): gmap.field.one()})


ROLES = ("iota", "tau", "sigma")


def pair_fault(role, p, pairs):
    """Give the p-th iota, tau or sigma the pairs `pairs` in place of its own;
    `pascal_split` builds them through `summand_copies` in this order for p = 0..n."""
    def install(monkeypatch, kc):
        real = koszul.summand_copies
        built = []

        def faulty(src, tgt, relabel):
            out = real(src, tgt, relabel)
            if len(built) == 3 * p + ROLES.index(role):
                out = CopyMap(src, tgt, pairs)
            built.append(out)
            return out

        monkeypatch.setattr(koszul, "summand_copies", faulty)
    return install


def d_fault(p, key, i, j):
    """Bump entry (i, j) of block `key` of d_p of the complex, before `pascal_split` runs."""
    def install(monkeypatch, kc):
        bump(kc.complex.diffs[p], key, i, j)
    return install


def l_fault(p, x, d, j):
    """Bump entry (0, j) of the block of L leaving (x, d) on the copies of K'_(p-1);
    L is built through `summand_map` on the copies of K'_0, ..., K'_(n-1) in this
    order, the only maps there made of the last multiplication alone."""
    def install(monkeypatch, kc):
        real = koszul.summand_map
        built = []

        def faulty(field, src, tgt, faces, cells):
            out = real(field, src, tgt, faces, cells)
            if set(cells) == {kc.n}:
                if len(built) == p - 1:
                    bump(out, (x, d, d + kc.mult_ops[kc.n].shift), 0, j)
                built.append(out)
            return out

        monkeypatch.setattr(koszul, "summand_map", faulty)
    return install


def first_cycle_cell(kc):
    """(p, x, d, j): the first window cell of the connecting map with a cycle,
    and a column where one of its cycles is nonzero."""
    p, x, d, z = next((p, x, d, z) for p, x, d, out in _small_cycle_cells(kc)
                      for z in [kernel_basis(out)] if z)
    return p, x, d, next(j for j, v in enumerate(z[0]) if v)


def cycle_column_fault(monkeypatch, kc):
    p, x, d, j = first_cycle_cell(kc)
    l_fault(p, x, d, j)(monkeypatch, kc)


U = CategoryPresentation.trivial(QQ).unit
# In K_1 the copies are {1}, {2}, {3}; in K_2, {1,2}, {1,3}, {2,3}.  A block of
# d_p leaving degree 0 has one column per copy of K_p and three rows per copy
# of K_(p-1) (the monomials t1, t2, t3 of degree 1).
FAULTS = [
    # tau sends the copy of {1}, which iota fills, to K'_0 in place of the copy of {3}
    ("tau-iota-zero", pair_fault("tau", 1, [(0, 0)])),
    # sigma sends K'_0 to the copy of {1} in place of the copy of {3}
    ("tau-sigma-identity", pair_fault("sigma", 1, [(0, 0)])),
    # d_1 on the copy of {1}, which iota fills, gains a t1 term
    ("ladder-left-square", d_fault(1, (U, 0, 1), 0, 0)),
    # d_2 sends the copy of {1, 2} into the copy of {3}, which tau reads
    ("ladder-right-square", d_fault(2, (U, 0, 1), 6, 0)),
    # d_2 on the copy of {1, 3}, which sigma fills, gains a t1 term in the copy of {1}
    ("restriction-formula", d_fault(2, (U, 0, 1), 0, 1)),
    ("connecting-map-formula", cycle_column_fault),
]


def test_every_certificate_passes_without_a_fault():
    got = certificates(forms_complex())
    assert [name for name, _ in FAULTS] == CERTIFICATES == list(got)
    assert all(c.passed for c in got.values())
    assert got["connecting-map-formula"].witness["cycles_checked"] > 0


@pytest.mark.parametrize("name, install", FAULTS, ids=[name for name, _ in FAULTS])
def test_fault_fails_its_certificate(monkeypatch, name, install):
    kc = forms_complex()
    install(monkeypatch, kc)
    assert certificates(kc)[name].passed is False


def test_fault_at_a_cycle_column_fails_both_formulas(monkeypatch):
    kc = forms_complex()
    cycles = certificates(kc)["connecting-map-formula"].witness
    cycle_column_fault(monkeypatch, kc)
    got = certificates(kc)
    assert not got["restriction-formula"].passed
    assert not got["connecting-map-formula"].passed
    assert got["connecting-map-formula"].witness == cycles


def test_fault_outside_the_connecting_window_fails_the_restriction_only():
    # at p = 2 the connecting window is min(5 - 1, 5 - 2) = 3, so degree 4 lies outside
    # row 0 of a block of d_2 lies in the copy of {1}, where its t1 face is zero;
    # tau reads only the copy of {2}, so the right square does not see it
    kc = mixed_degree_complex()
    bump(kc.complex.diffs[2], (kc.monoid.cat.unit, 4, 5), 0, 0)
    got = certificates(kc)
    assert {name for name, c in got.items() if not c.passed} == {"restriction-formula"}


def test_restriction_failure_names_its_cells():
    kc = mixed_degree_complex()
    assert certificates(kc)["restriction-formula"].witness is None
    unit = kc.monoid.cat.unit
    for key in [(unit, 4, 5), (unit, 1, 2)]:
        bump(kc.complex.diffs[2], key, 0, 0)
    got = certificates(kc)
    assert got["restriction-formula"].witness == {"cells": ["2,%s,1" % unit, "2,%s,4" % unit]}
    assert not got["connecting-map-formula"].passed  # degree 1 lies inside the window
