"""Each commutant cell is computed once per monoid, however many elements are tested.

`is_central` is membership in the commutant cell of the element's object and
degree, which `Monoid.central_memo` keeps under (obj, degree); `commutant`
reads and fills the same memo.  So the memo is bounded by the number of cells.
Each cell costs one `kernel`, counted by monkeypatching `monoid.kernel`.
"""

import random
from fractions import Fraction

import pytest

import koszulcat.monoid as monoid_mod
from koszulcat.category import CategoryPresentation
from koszulcat.errors import NotCentralError
from koszulcat.field import QQ, Field
from koszulcat.koszul import build_koszul, check_resolution
from koszulcat.monoid import (
    Element,
    commutant,
    is_central,
    is_regular,
    is_regular_sequence,
    regular_bimodule,
    scalar_monoid,
)
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.sample import _s3_elements, s3_group_algebra
from test_homology_rank import linear_form


def _count_kernels(monkeypatch):
    calls = []
    real = monoid_mod.kernel

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(monoid_mod, "kernel", counted)
    return calls


def _poly(field=QQ, n=2):
    return polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), n, 3)


def test_equal_elements_are_certified_once(monkeypatch):
    kernels = _count_kernels(monkeypatch)
    a = _poly()
    u = a.cat.unit
    t1 = variable_element(a, 1)
    assert len(kernels) == 1
    assert list(a.central_memo) == [(u, 1)]
    fresh = Element(t1.obj, t1.degree, tuple(t1.coords))
    assert fresh is not t1 and is_central(a, fresh)
    t2 = variable_element(a, 2)
    # every caller reads the same cell
    assert check_resolution(a, [t1, t2]).report.all_passed
    build_koszul(a, [t2, t1])
    assert is_regular(a, t1, regular_bimodule(a)).regular
    assert len(kernels) == 1
    # commutant fills the other cells and reuses the one already kept
    cells = commutant(a, u)
    assert cells[1] is a.central_memo[(u, 1)]
    assert len(kernels) == 4 == len(a.central_memo)
    commutant(a, u)
    assert len(kernels) == 4


def test_fifty_linear_forms_keep_one_cell(monkeypatch):
    kernels = _count_kernels(monkeypatch)
    a = _poly(n=3)
    ts = [variable_element(a, i) for i in (1, 2, 3)]
    rng = random.Random(50)
    forms = set()
    while len(forms) < 50:
        forms.add(tuple(rng.randint(-4, 4) for _ in ts))
    assert all(is_central(a, linear_form(QQ, ts, c)) for c in sorted(forms))
    assert len(a.central_memo) == 1
    assert len(kernels) == 1


def test_integral_fractions_hit_the_memo_over_q(monkeypatch):
    kernels = _count_kernels(monkeypatch)
    a = _poly()
    t1 = variable_element(a, 1)
    as_fractions = Element(t1.obj, t1.degree, tuple(Fraction(c) for c in t1.coords))
    assert is_central(a, as_fractions)
    assert len(kernels) == 1


def test_prime_field_coordinates_share_the_cell(monkeypatch):
    kernels = _count_kernels(monkeypatch)
    a = _poly(Field(101))
    t1 = variable_element(a, 1)
    doubled = Element(t1.obj, 1, tuple(a.field.add(c, c) for c in t1.coords))
    assert is_central(a, doubled) and is_central(a, doubled)
    assert len(kernels) == 1


def test_fraction_and_prime_field_coordinates_agree():
    """Over S3, an element is central iff it is constant on conjugacy classes."""
    classes = {"e": 0, "t12": 1, "t13": 1, "t23": 1, "c123": 2, "c132": 2}
    names = list(_s3_elements())
    q, fp = s3_group_algebra(QQ), s3_group_algebra(Field(101))
    u = q.cat.unit
    rng = random.Random(7)
    verdicts = []
    for k in range(20):
        if k % 2:
            per_class = [rng.randint(-3, 3) for _ in range(3)]
            ints = [per_class[classes[nm]] for nm in names]
        else:
            ints = [rng.randint(-3, 3) for _ in names]
        want = all(ints[i] == ints[j] for i in range(6) for j in range(6)
                   if classes[names[i]] == classes[names[j]])
        got = (is_central(q, Element(u, 0, tuple(ints))),
               is_central(q, Element(u, 0, tuple(Fraction(c) for c in ints))),
               is_central(fp, Element(u, 0, tuple(fp.field.from_int(c) for c in ints))))
        assert got == (want,) * 3, ints
        verdicts.append(want)
    assert True in verdicts and False in verdicts
    assert len(q.central_memo) == len(fp.central_memo) == 1


def test_non_central_verdict_is_kept_and_raises_alike(monkeypatch):
    kernels = _count_kernels(monkeypatch)
    a = s3_group_algebra(QQ)
    t12 = a.basis_element("t12")
    messages = []
    for _ in range(2):
        for call in (lambda: is_regular_sequence(a, [t12]),
                     lambda: is_regular(a, t12, regular_bimodule(a)),
                     lambda: build_koszul(a, [t12])):
            with pytest.raises(NotCentralError) as info:
                call()
            messages.append(str(info.value))
    assert messages[:3] == messages[3:]
    assert messages[0] == "element at (1, degree 0) is not in the commutant"
    assert messages[2] == "alpha_1 is not in the commutant"
    assert len(kernels) == 1


def test_monoids_built_alike_share_nothing(monkeypatch):
    kernels = _count_kernels(monkeypatch)
    a, b = _poly(), _poly()
    ta = variable_element(a, 1)
    assert a.central_memo and not b.central_memo
    tb = variable_element(b, 1)
    assert ta == tb
    assert len(kernels) == 2
    assert a.central_memo is not b.central_memo
    assert a.central_memo.keys() == b.central_memo.keys()
    for key, cell in a.central_memo.items():
        assert cell == b.central_memo[key] and cell is not b.central_memo[key]
