"""Descent along I_left (x) q (x) I_right through `times_bracket`, against the Kronecker route.

`matrix.descend` checks that a map kills I (x) q.sub.basis (x) I and returns
its product with I (x) q.section (x) I, both as bracketed products.  The
oracle is the route every descent took before: the identity Kronecker
factors formed, then multiplied, copied here.  Over Q and F_101, with the
bracket (1, 1), (k, 1) and (1, k): a map that descends gives the oracle's
result, a map that does not gives None, and through `quotient_module` an
unstable family raises the same StabilityError text on both routes.  On the
C2 cyclic module A_2/(3t1 - 7t2) at cap 4, `quotient_module` forms no
Kronecker product and every induced cell equals the oracle's.
"""

import random

import pytest

import koszulcat.monoid as monoid
from koszulcat.category import CategoryPresentation
from koszulcat.errors import StabilityError
from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix, Subspace, descend, quotient
from koszulcat.monoid import (
    Module,
    generated_submodule,
    identity_monoid,
    quotient_module,
    regular_bimodule,
    scalar_monoid,
)
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.sample import c2_convolution_category
from test_homology_rank import linear_form

FIELDS = [pytest.param(QQ, id="Q"), pytest.param(Field(101), id="F101")]
BRACKETS = [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3)]


def kron_descend(m, q, left=1, right=1):
    """The former route: the factors I (x) basis (x) I and I (x) section (x) I formed."""
    f = q.field

    def wide(x):
        return Matrix.identity(f, left).kron(x).kron(Matrix.identity(f, right))

    if not (m * wide(q.sub.basis)).is_zero():
        return None
    return m * wide(q.section)


def _random_matrix(field, rng, nrows, ncols):
    values = [field.parse(t) for t in ("0", "0", "0", "1", "-1", "3", "1/2", "-5/3")]
    return Matrix.from_entries(field, nrows, ncols, {(i, j): rng.choice(values)
                                                     for i in range(nrows) for j in range(ncols)})


def _random_quotient(field, rng, ambient, sub_dim):
    cols = _random_matrix(field, rng, ambient, sub_dim)
    return quotient(ambient, Subspace.from_matrix_columns(cols))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("left, right", BRACKETS)
def test_a_map_that_descends_gives_the_oracles_result(field, left, right):
    rng = random.Random(31 + left + 7 * right + field.char)
    for _ in range(25):
        q = _random_quotient(field, rng, rng.randint(1, 4), rng.randint(0, 3))
        # a map through the projection kills the relations on every copy
        through = _random_matrix(field, rng, rng.randint(0, 3), left * q.dim * right)
        proj = Matrix.identity(field, left).kron(q.projection).kron(Matrix.identity(field, right))
        m = through * proj
        got = descend(m, q, left, right)
        assert got is not None
        assert got == kron_descend(m, q, left, right) == through


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("left, right", BRACKETS)
def test_a_map_that_does_not_kill_the_relations_returns_none(field, left, right):
    rng = random.Random(37 + left + 7 * right + field.char)
    drawn = 0
    while drawn < 25:
        q = _random_quotient(field, rng, rng.randint(1, 4), rng.randint(1, 3))
        m = _random_matrix(field, rng, rng.randint(1, 3), left * q.ambient * right)
        if kron_descend(m, q, left, right) is not None:
            continue
        drawn += 1
        assert descend(m, q, left, right) is None


def _poly(field):
    return polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), 2, 2)


def _t1_alone(field, a):
    """The span of t1 at degree 1: t1 times any variable escapes it."""
    sub = {cell: Subspace.zero(field, a.carrier.dim(*cell)) for cell in a.carrier.cells()}
    sub[(a.cat.unit, 1)] = Subspace.from_columns(field, 2, [variable_element(a, 1).coords])
    return sub


def arrow_case(field):
    a = identity_monoid(c2_convolution_category(field))
    sub = {cell: Subspace.zero(field, a.carrier.dim(*cell)) for cell in a.carrier.cells()}
    sub[("e", 0)] = Subspace.full(field, 1)  # the arrow e -> g carries it out
    return regular_bimodule(a), sub


def left_case(field):
    a = _poly(field)
    return Module(a, a.carrier, dict(a.pairing), None), _t1_alone(field, a)


def right_case(field):
    a = _poly(field)
    return Module(a, a.carrier, None, dict(a.pairing)), _t1_alone(field, a)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("case, bracket", [(arrow_case, (1, 1)), (left_case, (2, 1)),
                                           (right_case, (1, 2))],
                         ids=["arrow", "left", "right"])
def test_an_unstable_family_raises_the_same_text_on_both_routes(field, case, bracket,
                                                                 monkeypatch):
    m, sub = case(field)
    brackets = []

    def recorded(route):
        def run(mat, q, left=1, right=1):
            brackets.append((left, right))
            return route(mat, q, left, right)
        return run

    texts = []
    for route in (descend, kron_descend):
        monkeypatch.setattr(monoid, "descend", recorded(route))
        brackets.clear()
        with pytest.raises(StabilityError) as info:
            quotient_module(m, sub)
        assert brackets[-1] == bracket  # the descent that failed
        texts.append(str(info.value))
    assert texts[0] == texts[1]
    assert texts[0].startswith("submodule not stable under ")


@pytest.mark.parametrize("field", FIELDS)
def test_the_c2_cyclic_module_forms_no_kronecker_product(field, monkeypatch):
    """A_2/(3t1 - 7t2) over the C2 Day unit at cap 4: no `Matrix.kron` call, and
    every arrow and action cell equals the one the Kronecker route induces."""
    a = polynomial_monoid(identity_monoid(c2_convolution_category(field)), 2, 4)
    reg = regular_bimodule(a)
    sub = generated_submodule(a, [linear_form(field, [variable_element(a, 1),
                                                      variable_element(a, 2)], [3, -7])])
    real_kron, krons = Matrix.kron, []
    monkeypatch.setattr(Matrix, "kron", lambda s, o: krons.append(1) or real_kron(s, o))
    got = quotient_module(reg, sub).module
    assert krons == []
    monkeypatch.setattr(monoid, "descend", kron_descend)
    want = quotient_module(reg, sub).module
    assert krons  # the oracle route forms them
    assert got.carrier.dims == want.carrier.dims
    assert got.carrier.actions == want.carrier.actions
    assert got.left == want.left and got.right == want.right
    assert any(not cell.is_zero() for cell in got.left.values())
