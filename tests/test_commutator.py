"""The commutation condition c b = A(s)(b c), written once in `monoid._commutator`.

`is_commutative`, `commutant` and `is_central` all derive from it.  The
oracles here build the same conditions only from `Monoid.multiply` on basis
elements and the carrier's action of the symmetry table, and rank them with a
test-local elimination.  A discrete C2 category whose symmetry is -1 on g (x) g
(super vector spaces) is the one case where a sign error would show: there the
group algebra with theta theta = 1 is not commutative and theta is not
central, while with sign +1 both hold.
"""

import ast
import os
import random
from fractions import Fraction
from itertools import product

import pytest

from c2_graded import c2_group_algebra
from koszulcat.category import CategoryPresentation, validate_presentation
from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix
from koszulcat.monoid import (
    Element,
    GradedCarrier,
    Monoid,
    commutant,
    identity_monoid,
    is_central,
    is_commutative,
    scalar_monoid,
    validate_monoid,
)
from koszulcat.poly import polynomial_monoid
from koszulcat.sample import c2_convolution_category, s3_group_algebra

F101 = Field(101)
FIELDS = pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
MONOID_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "src", "koszulcat", "monoid.py")


# -- the oracle -------------------------------------------------------------------


def basis(a, x, d):
    f, n = a.field, a.carrier.dim(x, d)
    return [Element(x, d, tuple(f.one() if k == i else f.zero() for k in range(n)))
            for i in range(n)]


def symmetry(a, x, y, vec, deg):
    """A(s_{x,y}) on vec in A(x<>y)_deg, summed from the symmetry table."""
    cat, f = a.cat, a.field
    xy, yx = cat.dobj(x, y), cat.dobj(y, x)
    out = [f.zero()] * a.carrier.dim(yx, deg)
    for k, c in cat.symmetry_table[(x, y)].items():
        moved = a.carrier.action_matrix((xy, yx, k), deg).apply(vec)
        out = [f.add(o, f.mul(c, v)) for o, v in zip(out, moved)]
    return out


def conditions(a, x, d):
    """Rows over the basis of A(x)_d: c b - A(s)(b c) = 0 for each basis c in the window."""
    f, car = a.field, a.carrier
    bs = basis(a, x, d)
    rows = []
    for dp in range(car.cap + 1 - d):
        for y in a.cat.objects:
            for c in basis(a, y, dp):
                cols = [[f.sub(u, v) for u, v in zip(
                    a.multiply(c, b).coords, symmetry(a, x, y, a.multiply(b, c).coords, d + dp))]
                    for b in bs]
                rows += [list(r) for r in zip(*cols)]
    return rows


def oracle_rank(field, rows, ncols):
    """Gaussian elimination over Fraction or integers mod p, independent of koszulcat."""
    p = field.char
    rows = [[v % p if p else Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p) if p else 1 / rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                q = rows[i][col] * inv
                rows[i] = [(u - q * v) % p if p else u - q * v
                           for u, v in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_central(a, elt, rows):
    """elt satisfies every condition row, summed in plain Fraction arithmetic."""
    p = a.field.char
    sums = (sum(Fraction(b) * r for b, r in zip(elt.coords, row)) for row in rows)
    return all(not (s % p if p else s) for s in sums)


# -- signed symmetry ------------------------------------------------------------------


@FIELDS
@pytest.mark.parametrize("sign", [1, -1])
def test_signed_symmetry_decides_centrality(field, sign):
    a = c2_group_algebra(field, sign)
    assert validate_presentation(a.cat).ok
    assert validate_monoid(a).ok
    theta = a.basis_element("theta")
    central = sign == 1
    assert commutant(a, "g")[0].dim == (1 if central else 0)
    assert is_central(a, theta) is central
    assert is_commutative(a) is central
    # the unit is central for either sign
    assert commutant(a, "e")[0].dim == 1 and is_central(a, a.unit_element())
    assert oracle_central(a, theta, conditions(a, "g", 0)) is central


# -- seeded oracle ------------------------------------------------------------------


def s3(field):
    return s3_group_algebra(field)


def c2_day_unit_poly(n, cap):
    return lambda field: polynomial_monoid(identity_monoid(c2_convolution_category(field)), n, cap)


def scalar_poly(field):
    return polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), 2, 3)


def s3_poly(field):
    return polynomial_monoid(s3_group_algebra(field), 1, 2)


def free_algebra(field, letters=2, cap=2):
    """The free algebra on `letters` degree-one generators, truncated above `cap`.

    Words of length d span degree d; x is not central although it commutes
    with every scalar, so only the conditions of positive degree see it.
    """
    cat = CategoryPresentation.trivial(field)
    u, one = cat.unit, field.one()
    words = {d: list(product(range(letters), repeat=d)) for d in range(cap + 1)}
    dims = {(u, d): len(w) for d, w in words.items()}
    actions = {((u, u, 0), d): Matrix.identity(field, n) for (_, d), n in dims.items()}
    pairing = {}
    for d1 in range(cap + 1):
        for d2 in range(cap + 1 - d1):
            index = {w: k for k, w in enumerate(words[d1 + d2])}
            pairing[(u, d1, u, d2)] = Matrix.from_entries(
                field, dims[(u, d1 + d2)], dims[(u, d1)] * dims[(u, d2)],
                {(index[w1 + w2], i * dims[(u, d2)] + j): one
                 for i, w1 in enumerate(words[d1]) for j, w2 in enumerate(words[d2])})
    return Monoid(GradedCarrier(cat, cap, True, dims, actions), pairing, (one,), name="free")


def s3_poly2(field):
    return polynomial_monoid(s3_group_algebra(field), 2, 1)


CASES = [
    ("s3-Q", s3, QQ),
    ("c2-day-unit-n1-cap3-F101", c2_day_unit_poly(1, 3), F101),
    ("c2-day-unit-n2-cap2-F101", c2_day_unit_poly(2, 2), F101),
    ("Q[t1,t2]-cap3", scalar_poly, QQ),
    ("s3[t]-cap2-F101", s3_poly, F101),
    ("s3[t1,t2]-cap1-F101", s3_poly2, F101),
    ("c2-signed-F101", lambda field: c2_group_algebra(field, -1), F101),
    ("free-2-cap2-Q", free_algebra, QQ),
]


@pytest.mark.parametrize("build,field", [(b, f) for _, b, f in CASES],
                         ids=[name for name, _, _ in CASES])
def test_commutant_and_centrality_match_the_oracle(build, field):
    a = build(field)
    rng = random.Random(15)
    f = a.field
    all_zero = True
    for (x, d) in a.carrier.cells():
        dim = a.carrier.dim(x, d)
        rows = conditions(a, x, d)
        all_zero = all_zero and not any(any(r) for r in rows)
        cell = commutant(a, x)[d]
        assert cell.dim == dim - oracle_rank(f, rows, dim), (x, d)
        if not dim:
            continue
        seeded = [Element(x, d, tuple(f.from_int(rng.randint(-3, 3)) for _ in range(dim)))
                  for _ in range(4)]
        for _ in range(2):
            coefs = [f.from_int(rng.randint(-3, 3)) for _ in range(cell.dim)]
            seeded.append(Element(x, d, cell.basis.apply(coefs)))
        for elt in seeded:
            assert is_central(a, elt) == oracle_central(a, elt, rows), (x, d, elt.coords)
        for elt in seeded[4:]:
            assert is_central(a, elt)
    assert is_commutative(a) == all_zero


def test_the_oracle_sees_noncentral_elements():
    a = s3(QQ)
    t12 = a.basis_element("t12")
    assert not oracle_central(a, t12, conditions(a, a.cat.unit, 0))
    assert not is_central(a, t12)
    free = free_algebra(QQ)
    assert [commutant(free, free.cat.unit)[d].dim for d in range(3)] == [1, 0, 4]
    assert validate_monoid(free).ok and not is_commutative(free)


# -- one commutation condition ---------------------------------------------------------


def test_symmetry_is_read_in_one_function_of_monoid():
    """`cat.symmetry_mor` appears only in `_commutator`, the one commutation condition."""
    with open(MONOID_PY, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    readers = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "symmetry_mor":
                    readers.append(fn.name)
    assert readers == ["_commutator"]
