"""Day tensors of polynomial slices are placed copies of the base's, equal to the eliminated ones.

A degree slice of a polynomial carrier is #monomials copies of its base
slice, so `day_tensor_copies` builds Day(F^kf, G^kg) from Day(F, G) with no
elimination.  The oracle is `day_tensor` on the slices themselves, run on a
cleared memo so that it eliminates.
"""

import pytest

from koszulcat import category
from koszulcat.category import (
    CategoryPresentation,
    Representation,
    day_tensor,
    day_tensor_copies,
    identity_representation,
)
from koszulcat.errors import StructuralError
from koszulcat.field import QQ, Field
from koszulcat.gtensor import GradedTensor
from koszulcat.hochschild import build_enveloping
from koszulcat.matrix import Matrix
from koszulcat.monoid import (
    generated_submodule,
    identity_monoid,
    quotient_module,
    regular_bimodule,
    scalar_monoid,
)
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.sample import c2_convolution_category, c2_regular_representation
from koszulcat.tensor import build_syzygy_resolution
from test_day_memo import _count_quotients

F101 = Field(101)
FIELDS = [pytest.param(F101, id="F101"), pytest.param(QQ, id="Q")]


def _base(field, kind):
    if kind == "scalar":
        return scalar_monoid(CategoryPresentation.trivial(field))
    return identity_monoid(c2_convolution_category(field))


def _assert_same(placed, eliminated):
    assert placed.layout == eliminated.layout
    for x, q in eliminated.quot.items():
        p = placed.quot[x]
        assert (p.dim, p.ambient) == (q.dim, q.ambient)
        assert p.projection == q.projection
        assert p.section == q.section
        assert p.sub.basis == q.sub.basis
        assert p.sub.pivots == q.sub.pivots
    assert placed.rep.dims == eliminated.rep.dims
    assert placed.rep.actions == eliminated.rep.actions


def _copies(rep, k):
    """k copies of rep, copy index slowest: every arrow acts by I_k (x) rep(arrow)."""
    fld = rep.cat.field
    return Representation(rep.cat, {x: k * d for x, d in rep.dims.items()},
                          {key: Matrix.identity(fld, k).kron(m) for key, m in rep.actions.items()})


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", ["scalar", "c2unit"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_polynomial_slices_match_elimination(field, kind, n):
    a = polynomial_monoid(_base(field, kind), n, 4)
    cat, car = a.cat, a.carrier
    gt = GradedTensor(car, car, cap=car.cap + 1)  # slices above the cap have no copies
    for (d1, d2), placed in sorted(gt.day.items()):
        cat.day_memo.clear()
        _assert_same(placed, day_tensor(cat, car.slice_rep(d1), car.slice_rep(d2)))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kf, kg", [(2, 3), (3, 1), (1, 2), (0, 2), (2, 0)])
def test_copies_of_distinct_factors_match_elimination(field, kf, kg):
    """Factors of dimension 2 with a nontrivial transport, against the unit, and no copies."""
    cat = c2_convolution_category(field)
    f, g = c2_regular_representation(cat), identity_representation(cat)
    placed = day_tensor_copies(cat, f, g, kf, kg)
    cat.day_memo.clear()
    _assert_same(placed, day_tensor(cat, _copies(f, kf), _copies(g, kg)))


def test_copies_are_memoized_by_representation_data():
    cat = c2_convolution_category(F101)
    reg = c2_regular_representation(cat)
    dt = day_tensor_copies(cat, reg, reg, 2, 3)
    assert day_tensor_copies(cat, c2_regular_representation(cat), reg, 2, 3) is dt
    assert day_tensor_copies(cat, reg, reg, 3, 2) is not dt
    assert day_tensor_copies(cat, reg, reg, 1, 1) is day_tensor(cat, reg, reg)
    assert all(isinstance(v, category.DayTensor) for v in cat.day_memo.values())


@pytest.mark.parametrize("kind", ["scalar", "c2unit"])
def test_enveloping_eliminates_only_the_base_pair(monkeypatch, kind):
    """The quotient count does not grow with the slices: one per object, for the base pair."""
    calls = _count_quotients(monkeypatch)
    counts = []
    for n, cap in [(1, 2), (2, 4)]:
        base = _base(F101, kind)
        before = len(calls)
        build_enveloping(base, n, cap)
        counts.append(len(calls) - before)
    assert counts == [len(base.cat.objects)] * 2


def test_quotient_module_keeps_the_eliminated_route(monkeypatch):
    base = _base(F101, "c2unit")
    env = build_enveloping(base, 2, 3)
    a = env.a_n
    cyclic = quotient_module(regular_bimodule(a),
                             generated_submodule(a, [variable_element(a, 1)])).module
    assert a.carrier.copies is not None and cyclic.carrier.copies is None
    routes = []
    real = category.day_tensor_copies

    def counted(*args):
        routes.append(args)
        return real(*args)

    monkeypatch.setattr("koszulcat.gtensor.day_tensor_copies", counted)
    calls = _count_quotients(monkeypatch)
    res = build_syzygy_resolution(env, cyclic)
    assert res.passed
    assert not routes
    assert calls  # the module's slices are eliminated


def test_graded_descent_rejects_a_nonnatural_family():
    """The pairing descends; scaling its (g, g) cell at degrees (1, 1) breaks naturality.

    Q[t1, t2] over the Day unit of C2: the degree-1 slices are two copies of
    the base, so the split (1, 1) is a placed Day tensor, not an eliminated one.
    """
    a = polynomial_monoid(_base(QQ, "c2unit"), 2, 2)
    gt = GradedTensor(a.carrier, a.carrier)
    assert a.carrier.copies[1][1] == 2
    assert gt.induced_map_cells(a.carrier, a.pairing_cell)

    def family(y, d1, z, d2):
        cell = a.pairing_cell(y, d1, z, d2)
        return cell.scale(QQ.from_int(3)) if (y, d1, z, d2) == ("g", 1, "g", 1) else cell

    with pytest.raises(StructuralError, match="bilinear family is not natural; does not descend"):
        gt.induced_map_cells(a.carrier, family)
