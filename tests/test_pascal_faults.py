"""Each certificate of the Pascal splitting fails on a fault made for it.

One table entry per certificate of `koszul.pascal_split`.  An entry adds one
to a single entry of one map that `pascal_split` builds: a block of iota, tau
or sigma (through `summand_map`, which builds them in that order for
p = 0..n), or a block of L, the last multiplication on a copy of a small term.
The complex itself is built before the fault is installed, and the same
construction without the fault passes all six certificates, so the failure
is the fault's.

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
from koszulcat.complexes import GradedMap
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


def built_map_fault(is_kind, index, edit):
    """Apply `edit` to the index-th map of one kind that `pascal_split` builds
    through `summand_map`; `is_kind(kc, cells)` tells the kind from its cells."""
    def install(monkeypatch, kc):
        real = koszul.summand_map
        built = []

        def faulty(field, src, tgt, faces, cells):
            out = real(field, src, tgt, faces, cells)
            if is_kind(kc, cells):
                if len(built) == index:
                    edit(kc, out)
                built.append(out)
            return out

        monkeypatch.setattr(koszul, "summand_map", faulty)
    return install


def split_map_fault(role, p, key, i, j):
    """Bump the p-th iota, tau or sigma; they are built in this order for p = 0..n."""
    return built_map_fault(lambda kc, cells: None in cells,
                           3 * p + ("iota", "tau", "sigma").index(role),
                           lambda kc, out: bump(out, key, i, j))


def l_fault(p, x, d, j):
    """Bump entry (0, j) of the block of L leaving (x, d) on the copies of K'_(p-1);
    L is built on the copies of K'_0, ..., K'_(n-1) in this order."""
    return built_map_fault(lambda kc, cells: set(cells) == {kc.n}, p - 1,
                           lambda kc, out: bump(out, (x, d, d + kc.mult_ops[kc.n].shift), 0, j))


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
FAULTS = [
    # tau reads column 0 of K_1, the copy of {1} that iota fills
    ("tau-iota-zero", split_map_fault("tau", 1, (U, 0, 0), 0, 0)),
    # sigma sends K'_0 to the copy of {3} in K_1 as 2, not 1
    ("tau-sigma-identity", split_map_fault("sigma", 1, (U, 0, 0), 2, 0)),
    # iota also sends the copy of {1} to the copy of {3}, where d multiplies by alpha_3
    ("ladder-left-square", split_map_fault("iota", 1, (U, 0, 0), 2, 0)),
    # tau sends the copy of {1, 2} in K_2 to the copy of {1}, where d' multiplies by alpha_1
    ("ladder-right-square", split_map_fault("tau", 2, (U, 0, 0), 0, 0)),
    ("restriction-formula", l_fault(2, U, 0, 0)),
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


def d_sigma_fault(monkeypatch, kc, keys):
    """Bump entry (0, 0) of each block in `keys` of d_2 o sigma_2 in a two-element complex.

    With n = 2 the left square of the ladder composes only d_1, so sigma_2 is
    the one map that d_2 composes with.
    """
    real = GradedMap.compose

    def faulty(self, inner):
        out = real(self, inner)
        if self is kc.complex.diffs[2]:
            for key in keys:
                bump(out, key, 0, 0)
        return out

    monkeypatch.setattr(GradedMap, "compose", faulty)


def test_fault_outside_the_connecting_window_fails_the_restriction_only(monkeypatch):
    # at p = 2 the connecting window is min(5 - 1, 5 - 2) = 3, so degree 4 lies outside
    kc = mixed_degree_complex()
    d_sigma_fault(monkeypatch, kc, [(kc.monoid.cat.unit, 4, 5)])
    got = certificates(kc)
    assert {name for name, c in got.items() if not c.passed} == {"restriction-formula"}


def test_restriction_failure_names_its_cells(monkeypatch):
    kc = mixed_degree_complex()
    assert certificates(kc)["restriction-formula"].witness is None
    unit = kc.monoid.cat.unit
    d_sigma_fault(monkeypatch, kc, [(unit, 4, 5), (unit, 1, 2)])
    got = certificates(kc)
    assert got["restriction-formula"].witness == {"cells": ["2,%s,1" % unit, "2,%s,4" % unit]}
    assert not got["connecting-map-formula"].passed  # degree 1 lies inside the window
