"""Each element is certified central once per monoid.

`is_central` keeps its verdict in `Monoid.central_memo`, keyed by the
element's object, degree and coordinates.  The uncached check is counted by
monkeypatching `monoid._commutes_with_all`.
"""

from fractions import Fraction

import pytest

import koszulcat.monoid as monoid_mod
from koszulcat.category import CategoryPresentation
from koszulcat.errors import NotCentralError
from koszulcat.field import QQ, Field
from koszulcat.koszul import build_koszul, check_resolution
from koszulcat.monoid import (
    Element,
    is_central,
    is_regular,
    is_regular_sequence,
    regular_bimodule,
    scalar_monoid,
)
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.sample import s3_group_algebra


def _count_checks(monkeypatch):
    checked = []
    real = monoid_mod._commutes_with_all

    def counted(a, elt):
        checked.append((a, elt))
        return real(a, elt)

    monkeypatch.setattr(monoid_mod, "_commutes_with_all", counted)
    return checked


def _poly(field=QQ):
    return polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), 2, 3)


def test_equal_elements_are_certified_once(monkeypatch):
    checked = _count_checks(monkeypatch)
    a = _poly()
    t1 = variable_element(a, 1)
    assert len(checked) == 1
    assert a.central_memo == {(t1.obj, 1, tuple(t1.coords)): True}
    fresh = Element(t1.obj, t1.degree, tuple(t1.coords))
    assert fresh is not t1 and is_central(a, fresh)
    assert variable_element(a, 1) == t1
    assert len(checked) == 1
    t2 = variable_element(a, 2)
    assert len(checked) == 2
    # every caller reads the same verdicts
    assert check_resolution(a, [t1, t2]).report.all_passed
    build_koszul(a, [t2, t1])
    assert is_regular(a, t1, regular_bimodule(a)).regular
    assert len(checked) == 2


def test_integral_fractions_hit_the_memo_over_q(monkeypatch):
    checked = _count_checks(monkeypatch)
    a = _poly()
    t1 = variable_element(a, 1)
    as_fractions = Element(t1.obj, t1.degree, tuple(Fraction(c) for c in t1.coords))
    assert is_central(a, as_fractions)
    assert len(checked) == 1


def test_prime_field_coordinates_are_keys_too(monkeypatch):
    checked = _count_checks(monkeypatch)
    a = _poly(Field(101))
    t1 = variable_element(a, 1)
    doubled = Element(t1.obj, 1, tuple(a.field.add(c, c) for c in t1.coords))
    assert is_central(a, doubled) and is_central(a, doubled)
    assert len(checked) == 2


def test_non_central_verdict_is_kept_and_raises_alike(monkeypatch):
    checked = _count_checks(monkeypatch)
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
    assert len(checked) == 1


def test_monoids_built_alike_share_nothing(monkeypatch):
    checked = _count_checks(monkeypatch)
    a, b = _poly(), _poly()
    ta = variable_element(a, 1)
    assert a.central_memo and not b.central_memo
    tb = variable_element(b, 1)
    assert ta == tb
    assert [m for m, _ in checked] == [a, b]
    assert a.central_memo == b.central_memo and a.central_memo is not b.central_memo
