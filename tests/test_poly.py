"""Polynomial monoids: dimension formulas, grading, centrality, variable merging."""

import random
from math import comb

import pytest

from koszulcat.category import CategoryPresentation
from koszulcat.errors import IsoFailureError, PreconditionError, StructuralError
from koszulcat.field import QQ, Field
from koszulcat.gtensor import GradedTensor
from koszulcat.matrix import Matrix, place
from koszulcat.monoid import (
    Element,
    identity_monoid,
    is_central,
    is_commutative,
    monoid_from_table,
    regular_bimodule,
    scalar_monoid,
    validate_module,
    validate_monoid,
)
from koszulcat.poly import (
    element_from_name,
    merge_variables,
    mono_index,
    multi_indices,
    polynomial_monoid,
    variable_element,
)
from koszulcat.sample import c2_convolution_category, dual_numbers, s3_group_algebra

CAT = CategoryPresentation.trivial(QQ)
U = CAT.unit


def test_multi_index_counts_and_order():
    assert multi_indices(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert len(multi_indices(3, 4)) == comb(3 + 4 - 1, 4)
    assert mono_index(2, 2)[(1, 1)] == 1


def test_univariate_dims():
    a = polynomial_monoid(scalar_monoid(CAT), 1, 3)
    assert [a.carrier.dim(U, d) for d in range(4)] == [1, 1, 1, 1]
    assert a.carrier.truncated


def test_bivariate_dims_stars_and_bars():
    a = polynomial_monoid(scalar_monoid(CAT), 2, 2)
    assert [a.carrier.dim(U, d) for d in range(3)] == [1, 2, 3]


def test_dual_number_coefficients_dims():
    a = polynomial_monoid(dual_numbers(QQ), 1, 2)
    assert [a.carrier.dim(U, d) for d in range(3)] == [2, 2, 2]


def test_graded_piece_dimension_formula():
    base = dual_numbers(QQ)
    for n in (1, 2, 3):
        a = polynomial_monoid(base, n, 3)
        for d in range(4):
            assert a.carrier.dim(U, d) == 2 * comb(n + d - 1, d)


def test_polynomial_monoid_validates_degreewise():
    assert validate_monoid(polynomial_monoid(scalar_monoid(CAT), 2, 3)).ok
    assert validate_monoid(polynomial_monoid(dual_numbers(QQ), 1, 2)).ok
    assert validate_module(regular_bimodule(polynomial_monoid(scalar_monoid(CAT), 2, 2))).ok


def test_degree_zero_slice_is_the_base():
    base = dual_numbers(QQ)
    a = polynomial_monoid(base, 2, 3)
    assert a.pairing_cell(U, 0, U, 0) == base.pairing_cell(U, 0, U, 0)
    assert a.unit == base.unit
    assert a.carrier.names(U, 0) == base.carrier.names(U, 0)


def test_zero_variables_returns_base():
    base = dual_numbers(QQ)
    assert polynomial_monoid(base, 0, 5) is base


def test_variable_elements_are_degree_one_and_central():
    a = polynomial_monoid(scalar_monoid(CAT), 2, 3)
    t1 = variable_element(a, 1)
    assert t1.degree == 1 and t1.obj == U
    assert is_central(a, t1)
    with pytest.raises(PreconditionError):
        variable_element(a, 3)


def test_variables_central_over_noncommutative_base():
    a = polynomial_monoid(s3_group_algebra(QQ), 1, 2)
    t = variable_element(a, 1)
    assert is_central(a, t)
    assert not is_commutative(a)


def test_commutativity_propagates():
    assert is_commutative(polynomial_monoid(dual_numbers(QQ), 2, 2))


def test_monomial_names():
    a = polynomial_monoid(scalar_monoid(CAT), 2, 2, var_names=("x", "y"))
    assert a.carrier.names(U, 1) == ("x", "y")
    assert a.carrier.names(U, 2) == ("x^2", "x*y", "y^2")
    e = element_from_name(a, "x")
    assert e.degree == 1


def test_differences_subtract_from_left_to_right():
    a = polynomial_monoid(scalar_monoid(CAT), 3, 1, var_names=("x", "y", "z"))
    assert element_from_name(a, "x-y-z").coords == (1, -1, -1)
    assert element_from_name(a, "x - y - x").coords == (0, -1, 0)
    assert element_from_name(a, "y-x").coords == (-1, 1, 0)
    with pytest.raises(StructuralError, match="mixes cells"):
        element_from_name(a, "x-one")


def test_exact_names_with_a_dash_resolve_before_differences():
    one = QQ.one()
    names = ("one", "a-b", "a", "b")
    a = monoid_from_table(CAT, {U: names}, {("one", nm): {nm: one} for nm in names}
                          | {(nm, "one"): {nm: one} for nm in names}, {"one": one})
    assert element_from_name(a, "a-b").coords == (0, 1, 0, 0)
    assert element_from_name(a, "a - b").coords == (0, 0, 1, -1)
    assert element_from_name(a, "a-b-a").coords == (0, 0, 0, -1)
    p = polynomial_monoid(scalar_monoid(CAT), 3, 1, var_names=("s-t", "s", "t"))
    assert element_from_name(p, "s-t") == variable_element(p, 1)
    # any other name splits at every '-': s - t - s, not (s-t) - s
    assert element_from_name(p, "s-t-s").coords == (0, 0, -1)


def test_polynomial_construction_is_functorial():
    # a monoid morphism f: dual numbers -> Q (xbar -> 0) extends degreewise
    # and commutes with the pairings of the polynomial monoids
    base_a = dual_numbers(QQ)
    base_b = scalar_monoid(CAT)
    f0 = Matrix.from_rows(QQ, [[1, 0]])  # one -> one, xbar -> 0
    n, cap = 2, 2
    pa = polynomial_monoid(base_a, n, cap)
    pb = polynomial_monoid(base_b, n, cap)
    f = {d: Matrix.identity(QQ, len(multi_indices(n, d))).kron(f0) for d in range(cap + 1)}
    assert f[0].apply(pa.unit) == tuple(pb.unit)
    for d1 in range(cap + 1):
        for d2 in range(cap + 1 - d1):
            lhs = f[d1 + d2] * pa.pairing_cell(U, d1, U, d2)
            rhs = pb.pairing_cell(U, d1, U, d2) * f[d1].kron(f[d2])
            assert lhs == rhs


# -- merge_variables -------------------------------------------------------------


def _q_witness():
    return {U: Matrix.identity(QQ, 1)}


def test_merge_bivariate_dims():
    q = scalar_monoid(CAT)
    c = polynomial_monoid(q, 1, 3, var_names=("u",))
    d = polynomial_monoid(q, 1, 3, var_names=("v",))
    res = merge_variables(c, d, q, _q_witness())
    assert res.monoid.poly_info.var_names == ("u", "v")
    assert [res.monoid.carrier.dim(U, k) for k in range(4)] == [1, 2, 3, 4]
    assert res.unit_preserved
    assert res.hom_checked and res.hom_ok
    for (x, deg), mat in res.phi.items():
        assert mat.nrows == mat.ncols == res.monoid.carrier.dim(x, deg)


@pytest.mark.parametrize("scale,multiplicative", [(1, True), (2, False)])
def test_merge_multiplicative_detects_a_wrong_witness(scale, multiplicative):
    """With two variables on each side the middle swap moves coordinates, so a
    wrong column order fails the identity witness; one variable cannot see it."""
    q = scalar_monoid(CAT)
    c = polynomial_monoid(q, 2, 3, var_names=("u1", "u2"))
    d = polynomial_monoid(q, 2, 3, var_names=("v1", "v2"))
    res = merge_variables(c, d, q, {U: Matrix.identity(QQ, 1).scale(QQ.from_int(scale))})
    assert res.hom_checked
    assert res.hom_ok is multiplicative


def _phi_multiplicative_by_embedding(c, d, merged, gt, phi):
    """Reference for `poly._check_phi_multiplicative`: phi times placed
    identity blocks, the cell embeddings spelled out, for every 4-tuple."""
    field, u = c.field, c.cat.unit

    def block_embed(d1, d2, cols):
        return place(field, gt.dim(u, d1 + d2), cols.ncols,
                     [(gt.layout[(u, d1 + d2)][d1].offset, 0, cols)])

    cap = gt.cap
    for da1 in range(cap + 1):
        for da2 in range(cap + 1 - da1):
            for db1 in range(cap + 1 - da1 - da2):
                for db2 in range(cap + 1 - da1 - da2 - db1):
                    dc1, dd1 = c.carrier.dim(u, da1), d.carrier.dim(u, da2)
                    dc2, dd2 = c.carrier.dim(u, db1), d.carrier.dim(u, db2)
                    if dc1 * dd1 * dc2 * dd2 == 0:
                        continue
                    cols = [((p1 * dc2 + p2) * dd1 + q1) * dd2 + q2
                            for p1 in range(dc1) for q1 in range(dd1)
                            for p2 in range(dc2) for q2 in range(dd2)]
                    mu = c.pairing_cell(u, da1, u, db1).kron(
                        d.pairing_cell(u, da2, u, db2)).select_columns(cols)
                    lhs = phi[(u, da1 + da2 + db1 + db2)] * block_embed(da1 + db1, da2 + db2, mu)
                    emb1 = block_embed(da1, da2, Matrix.identity(field, dc1 * dd1))
                    emb2 = block_embed(db1, db2, Matrix.identity(field, dc2 * dd2))
                    rhs = merged.pairing_cell(u, da1 + da2, u, db1 + db2) * \
                        (phi[(u, da1 + da2)] * emb1).kron(phi[(u, db1 + db2)] * emb2)
                    if lhs != rhs:
                        return False
    return True


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=["Q", "F101"])
@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_phi_multiplicative_matches_embedding_reference(field, n, m):
    q = scalar_monoid(CategoryPresentation.trivial(field))
    u = q.cat.unit
    c = polynomial_monoid(q, n, 3, var_names=tuple("u%d" % i for i in range(n)))
    d = polynomial_monoid(q, m, 3, var_names=tuple("v%d" % i for i in range(m)))
    verdicts = []
    for scale in (1, 2, -1):
        res = merge_variables(c, d, q, {u: Matrix.identity(field, 1).scale(field.from_int(scale))})
        want = _phi_multiplicative_by_embedding(c, d, res.monoid,
                                                GradedTensor(c.carrier, d.carrier), res.phi)
        assert res.hom_ok is want
        verdicts.append(want)
    assert verdicts == [True, False, False]


def test_merge_zero_variables_returns_equivalent_monoid():
    q = scalar_monoid(CAT)
    c = polynomial_monoid(q, 2, 2)
    res = merge_variables(c, q, q, _q_witness())
    assert res.monoid.carrier.dims == c.carrier.dims
    assert res.monoid.pairing == c.pairing


def test_merge_rejects_bad_witness():
    q = scalar_monoid(CAT)
    c = polynomial_monoid(q, 1, 2)
    d = polynomial_monoid(q, 1, 2, var_names=("v",))
    with pytest.raises(IsoFailureError):
        merge_variables(c, d, q, {U: Matrix.zeros(QQ, 1, 1)})


# -- pairing oracle ---------------------------------------------------------------


def _naive_pairing_cell(base, n, x, d1, y, d2):
    """Entries of the (x, d1, y, d2) pairing cell by dict convolution.

    A basis vector of a cell is a (monomial, base index) pair, listed with the
    base index fastest; (u, p) times (v, q) is the sum over base rows r of
    base[r, (p, q)] (u + v, r).
    """
    car = base.carrier
    dx, dy = car.dim(x, 0), car.dim(y, 0)
    cell = base.pairing_cell(x, 0, y, 0)
    rows = {(u, r): i for i, (u, r) in enumerate(
        (u, r) for u in multi_indices(n, d1 + d2) for r in range(cell.nrows))}
    left = [(u, p) for u in multi_indices(n, d1) for p in range(dx)]
    right = [(v, q) for v in multi_indices(n, d2) for q in range(dy)]
    out = {}
    for i, (u, p) in enumerate(left):
        for j, (v, q) in enumerate(right):
            w = tuple(a + b for a, b in zip(u, v))
            for r in range(cell.nrows):
                c = cell.entry(r, p * dy + q)
                if c:
                    out[(rows[(w, r)], i * len(right) + j)] = c
    return out


def _pairing_bases(field):
    return {
        "scalar": scalar_monoid(CategoryPresentation.trivial(field)),
        "c2-day-unit": identity_monoid(c2_convolution_category(field)),
        "s3": s3_group_algebra(field),
    }


@pytest.mark.parametrize("p", [0, 101], ids=["Q", "F101"])
@pytest.mark.parametrize("base_name", ["scalar", "c2-day-unit", "s3"])
def test_pairing_cells_match_naive_convolution(p, base_name):
    field = Field(p)
    base = _pairing_bases(field)[base_name]
    rng = random.Random(1100 + p)
    cap = 3
    for n in (1, 2, 3):
        a = polynomial_monoid(base, n, cap)
        for d1 in range(cap + 1):
            for d2 in range(cap + 1 - d1):
                for x in base.cat.objects:
                    for y in base.cat.objects:
                        got = a.pairing_cell(x, d1, y, d2)
                        want = _naive_pairing_cell(base, n, x, d1, y, d2)
                        assert {(i, j): v for i, row in enumerate(got.rows)
                                for j, v in row.items()} == want
                        # a seeded product of two random elements agrees too
                        ea = [field.from_int(rng.randint(-3, 3)) for _ in range(a.carrier.dim(x, d1))]
                        eb = [field.from_int(rng.randint(-3, 3)) for _ in range(a.carrier.dim(y, d2))]
                        prod = a.multiply(Element(x, d1, tuple(ea)), Element(y, d2, tuple(eb)))
                        expect = [field.zero()] * got.nrows
                        for (i, j), v in want.items():
                            c = field.mul(v, field.mul(ea[j // len(eb)], eb[j % len(eb)]))
                            expect[i] = field.add(expect[i], c)
                        assert prod.coords == tuple(expect)
