"""Day tensors of polynomial slices are placed copies of the base's, equal to the eliminated ones.

A degree slice of a polynomial carrier is #monomials copies of its base
slice, so `day_tensor_copies` builds Day(F^kf, G^kg) from Day(F, G) with no
elimination, also when only one side is polynomial (A_n (x) M).  The oracle
is `day_tensor` on the slices themselves, run on a cleared memo so that it
eliminates.
"""

import pytest

from koszulcat import category, gtensor
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


def _cyclic(field, kind):
    """The enveloping data of A_3 at cap 3 and the cyclic module A_3 / (t1).

    The module's carrier is not a term of copies, and its degree-d slice
    (d + 1 monomials in t2, t3) is a representation of its own for d > 0.
    """
    env = build_enveloping(_base(field, kind), 3, 3)
    a = env.a_n
    cyclic = quotient_module(regular_bimodule(a),
                             generated_submodule(a, [variable_element(a, 1)])).module
    assert a.carrier.copies is not None and cyclic.carrier.copies is None
    return env, cyclic


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", ["scalar", "c2unit"])
@pytest.mark.parametrize("side", ["poly-left", "poly-right"])
def test_one_sided_copies_match_elimination(field, kind, side):
    """Polynomial slices against module slices: copy counts 0..3 and every split of A_n (x) M."""
    env, cyclic = _cyclic(field, kind)
    cat, car, mod = env.a_n.cat, env.a_n.carrier, cyclic.carrier
    f = car.copies[0]
    checked = 0
    for d in range(mod.cap + 1):
        g = mod.slice_rep(d)
        for k in range(4):
            placed = day_tensor_copies(cat, f, g, k, 1) if side == "poly-left" \
                else day_tensor_copies(cat, g, f, 1, k)
            cat.day_memo.clear()
            _assert_same(placed, day_tensor(cat, _copies(f, k), g) if side == "poly-left"
                         else day_tensor(cat, g, _copies(f, k)))
            checked += 1
    left, right = (car, mod) if side == "poly-left" else (mod, car)
    gt = GradedTensor(left, right, cap=mod.cap + 1)  # the top slices have no copies
    for (d1, d2), placed in sorted(gt.day.items()):
        cat.day_memo.clear()
        _assert_same(placed, day_tensor(cat, left.slice_rep(d1), right.slice_rep(d2)))
        checked += 1
    assert checked == 4 * (mod.cap + 1) + (mod.cap + 2) * (mod.cap + 3) // 2


@pytest.mark.parametrize("kind", ["scalar", "c2unit"])
def test_module_tensor_eliminates_only_base_pairs(monkeypatch, kind):
    """While A_n (x) M is built, `day_tensor` only ever sees the base slice on the A_n side.

    Each distinct module slice is eliminated once against it, one quotient
    per object, instead of once per degree split.
    """
    env, cyclic = _cyclic(F101, kind)
    cat, f = env.a_n.cat, env.a_n.carrier.copies[0]
    seen = []
    real = category.day_tensor

    def recording(cat_, left, right):
        seen.append(left)
        return real(cat_, left, right)

    monkeypatch.setattr(category, "day_tensor", recording)
    cat.day_memo.clear()
    calls = _count_quotients(monkeypatch)
    res = build_syzygy_resolution(env, cyclic)
    assert res.passed
    assert seen and all(category._rep_key(left) == category._rep_key(f) for left in seen)
    slices = {category._rep_key(cyclic.carrier.slice_rep(d)) for d in range(res.tensor.cap + 1)}
    assert len(slices) == res.tensor.cap + 1
    assert len(calls) == len(cat.objects) * len(slices) < \
        len(cat.objects) * (res.tensor.cap + 1) * (res.tensor.cap + 2) // 2


@pytest.mark.parametrize("kind", ["scalar", "c2unit"])
def test_copies_lookup_hashes_each_factor_once(monkeypatch, kind):
    """A_n (x) M: each `day_tensor_copies` lookup computes `_rep_key` of f and of g once.

    The copies entry is keyed by the base `DayTensor` that `day_tensor`
    returns, so a placed split costs the two keys of its base lookup, on a
    cold memo and on a warm one alike.
    """
    env, cyclic = _cyclic(F101, kind)
    env.a_n.cat.day_memo.clear()
    lookups, keys = [], []
    real_copies, real_key = gtensor.day_tensor_copies, category._rep_key
    monkeypatch.setattr(gtensor, "day_tensor_copies",
                        lambda *args: lookups.append(args) or real_copies(*args))
    monkeypatch.setattr(category, "_rep_key", lambda f: keys.append(f) or real_key(f))
    for _ in range(2):
        lookups.clear()
        keys.clear()
        gt = GradedTensor(env.a_n.carrier, cyclic.carrier)
        assert len(lookups) == (gt.cap + 1) * (gt.cap + 2) // 2
        assert any(kf > 1 for _, _, _, kf, _ in lookups)
        assert len(keys) == 2 * len(lookups)


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
