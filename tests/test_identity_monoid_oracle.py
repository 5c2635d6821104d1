"""`identity_monoid` through `monoid_from_table` against the hand assembly it replaced.

The unit monoid I = X(1, -) is built from its table: the hom basis names of
hom(1, x), the diamond of basis arrows as products, the identity of 1 as
unit and the postcomposition actions.  The oracle is the former assembly,
copied here, which placed each diamond's coefficients straight into the
pairing cells.  On the trivial category and `c2conv` over Q and F_101, and
on the C2-graded category with either symmetry sign, the two must agree in
every pairing cell (entries, their order within each row and their types),
the carrier's dimensions, actions and basis names, and the unit.
"""

import pytest

from c2_graded import c2_graded_category
from koszulcat.category import CategoryPresentation, identity_representation
from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix
from koszulcat.monoid import GradedCarrier, Monoid, identity_monoid
from koszulcat.sample import c2_convolution_category

F101 = Field(101)


def reference_identity_monoid(cat: CategoryPresentation) -> Monoid:
    """The former hand assembly of I, pairing cells filled from the diamonds."""
    field = cat.field
    u = cat.unit
    rep = identity_representation(cat)
    dims = {(x, 0): rep.dims[x] for x in cat.objects}
    actions = {(key, 0): mat for key, mat in rep.actions.items()}
    names = {(x, 0): cat.hom_basis(u, x) for x in cat.objects}
    carrier = GradedCarrier(cat, 0, False, dims, actions, names)
    pairing = {}
    for y in cat.objects:
        for z in cat.objects:
            yz = cat.dobj(y, z)
            mat = Matrix.zeros(field, rep.dims[yz], rep.dims[y] * rep.dims[z])
            for k1 in range(rep.dims[y]):
                for k2 in range(rep.dims[z]):
                    prod = cat.diamond(cat.basis_mor(u, y, k1), cat.basis_mor(u, z, k2))
                    for t, c in prod.coeffs.items():
                        mat.rows[t][k1 * rep.dims[z] + k2] = c
            pairing[(y, 0, z, 0)] = mat
    unit = [field.zero()] * rep.dims[u]
    for i, c in cat.identities[u].items():
        unit[i] = c
    return Monoid(carrier, pairing, tuple(unit), name="I")


def typed_rows(m: Matrix) -> list:
    """The rows of m as (column, value, type) lists in stored order."""
    return [[(j, v, type(v)) for j, v in row.items()] for row in m.rows]


CATEGORIES = {
    "trivial-q": lambda: CategoryPresentation.trivial(QQ),
    "trivial-f101": lambda: CategoryPresentation.trivial(F101),
    "c2conv-q": lambda: c2_convolution_category(QQ),
    "c2conv-f101": lambda: c2_convolution_category(F101),
    "c2graded+1-q": lambda: c2_graded_category(QQ, 1),
    "c2graded-1-q": lambda: c2_graded_category(QQ, -1),
    "c2graded+1-f101": lambda: c2_graded_category(F101, 1),
    "c2graded-1-f101": lambda: c2_graded_category(F101, -1),
}


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_identity_monoid_matches_hand_assembly(name):
    cat = CATEGORIES[name]()
    got, want = identity_monoid(cat), reference_identity_monoid(cat)
    assert (got.name, got.cap, got.carrier.truncated) == (want.name, want.cap, False)
    assert list(got.pairing) == list(want.pairing)
    for key, mat in want.pairing.items():
        assert (got.pairing[key].nrows, got.pairing[key].ncols) == (mat.nrows, mat.ncols)
        assert typed_rows(got.pairing[key]) == typed_rows(mat), key
    assert got.carrier.dims == want.carrier.dims
    assert got.carrier.basis_names == want.carrier.basis_names
    assert list(got.carrier.actions) == list(want.carrier.actions)
    for key, mat in want.carrier.actions.items():
        assert typed_rows(got.carrier.actions[key]) == typed_rows(mat), key
    assert got.unit == want.unit
    assert [type(c) for c in got.unit] == [type(c) for c in want.unit]
