"""Integer-backed rationals: Q scalars are ints until a division leaves a remainder.

Three checks of the char-0 fast path in `koszulcat.field`:

(a) every arithmetic result over Q is an `int` exactly when it is integral,
    and has the value plain `Fraction` arithmetic gives;
(b) the same seeded matrices, once with `Fraction` entries and once with
    `int` entries, give equal `rref`, `rank`, `kernel_basis`,
    `Subspace.contains` and `quotient` projections, both equal to a textbook
    Fraction RREF (`textbook_rref` of `test_elimination_oracle`);
(c) the Koszul differentials that `check_resolution` assembles from integer
    linear forms hold no `Fraction` with denominator 1.
"""

import random
from fractions import Fraction

import pytest

import koszulcat.koszul as koszul
from koszulcat.category import CategoryPresentation
from koszulcat.field import QQ
from koszulcat.matrix import Matrix, Subspace, kernel_basis, quotient, rank, rref
from koszulcat.monoid import scalar_monoid
from koszulcat.poly import polynomial_monoid, variable_element
from test_elimination_oracle import textbook_rref
from test_homology_rank import linear_form


def is_canonical(x):
    """An int when integral, a non-integral Fraction otherwise."""
    if x.__class__ is int:
        return True
    return x.__class__ is Fraction and x.denominator != 1


def operand(rng):
    """An integral int, an integral Fraction or a non-integral Fraction."""
    kind = rng.randrange(3)
    n = rng.randint(-9, 9)
    if kind == 0:
        return n
    if kind == 1:
        return Fraction(n)
    return Fraction(n, rng.choice((2, 3, 4, 6, 7)))


# -- (a) type invariant --------------------------------------------------------------


def test_constants_and_conversions_are_ints():
    for x in (QQ.zero(), QQ.one(), QQ.from_int(-12), QQ.from_int(True)):
        assert x.__class__ is int
    assert QQ.from_int(True) == 1
    for text, want in [("3", 3), ("-2", -2), ("0", 0), ("6/3", 2), ("-8/4", -2),
                       ("3/7", Fraction(3, 7)), ("-4/6", Fraction(-2, 3)), (" 5 ", 5)]:
        got = QQ.parse(text)
        assert got == want and is_canonical(got), text


def test_arithmetic_results_are_int_exactly_when_integral():
    rng = random.Random(20261018)
    seen_int = seen_frac = 0
    for _ in range(3000):
        a, b = operand(rng), operand(rng)
        fa, fb = Fraction(a), Fraction(b)
        results = [(QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
                   (QQ.mul(a, b), fa * fb), (QQ.neg(a), -fa)]
        if b:
            results += [(QQ.inv(b), 1 / fb), (QQ.div(a, b), fa / fb)]
        for got, want in results:
            assert got == want
            assert is_canonical(got), (a, b, got)
            seen_int += got.__class__ is int
            seen_frac += got.__class__ is Fraction
    assert seen_int > 1000 and seen_frac > 1000


def test_division_by_zero_raises():
    for a in (0, 3, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0 * a)
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, 0)


# -- (b) Fraction entries against int entries ----------------------------------------


def integer_data(rng, nrows, ncols):
    kind = rng.choice(("dense", "sparse", "low-rank"))
    if kind == "low-rank":
        base = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(0, 3))]
        out = []
        for _ in range(nrows):
            cs = [rng.randint(-3, 3) for _ in base]
            out.append([sum(c * b[j] for c, b in zip(cs, base)) for j in range(ncols)])
        return out
    density = 0.9 if kind == "dense" else 0.3
    return [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]


def sparse(data, box):
    return [{j: box(v) for j, v in enumerate(r) if v} for r in data]


def integer_cases(seed, count=120):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        yield rng, integer_data(rng, nrows, ncols), ncols


def test_elimination_agrees_on_boxed_and_int_entries():
    for _, data, ncols in integer_cases(5101):
        want_piv, want_rows = textbook_rref(0, data, ncols)
        want_rows = [{j: v for j, v in enumerate(r) if v} for r in want_rows]
        results = []
        for box in (Fraction, int):
            rows = sparse(data, box)
            pivcols, reduced = rref(QQ, rows, ncols)
            assert pivcols == want_piv
            assert reduced == want_rows
            m = Matrix(QQ, len(rows), ncols, rows)
            kb = kernel_basis(m)
            assert rank(m) == len(want_piv)
            assert all(is_canonical(v) for r in reduced for v in r.values())
            assert all(is_canonical(v) for vec in kb for v in vec)
            results.append((pivcols, reduced, kb))
        assert results[0] == results[1]


def test_membership_and_quotient_agree_on_boxed_and_int_entries():
    for rng, data, ncols in integer_cases(5102):
        nrows = len(data)
        cols = [[data[i][j] for i in range(nrows)] for j in range(ncols)]
        cs = [rng.randint(-2, 2) for _ in cols]
        member = [sum(c * col[i] for c, col in zip(cs, cols)) for i in range(nrows)]
        probes = [member, [rng.randint(-3, 3) for _ in range(nrows)], [0] * nrows]
        want_dim = len(textbook_rref(0, cols, nrows)[0])
        outcomes = []
        for box in (Fraction, int):
            sub = Subspace.from_columns(QQ, nrows, [[box(v) for v in c] for c in cols])
            assert sub.dim == want_dim
            verdicts = [sub.contains([box(v) for v in p]) for p in probes]
            assert verdicts[0] and verdicts[2]
            q = quotient(nrows, sub)
            for p in probes:
                image = q.projection.apply([box(v) for v in p])
                assert all(is_canonical(v) for v in image)
            outcomes.append((sub.pivots, sub.basis, verdicts, q.projection, q.section))
        assert outcomes[0] == outcomes[1]
        # a probe lies in the span exactly when it adds nothing to the rank
        for p, verdict in zip(probes, outcomes[1][2]):
            grown = len(textbook_rref(0, cols + [p], nrows)[0])
            assert verdict == (grown == want_dim)


# -- (c) no integral Fraction in a resolution ------------------------------------------


def test_resolution_differentials_hold_no_integral_fraction(monkeypatch):
    built = []
    real = koszul.build_koszul

    def recording(*args, **kwargs):
        kc = real(*args, **kwargs)
        built.append(kc)
        return kc

    monkeypatch.setattr(koszul, "build_koszul", recording)
    cat = CategoryPresentation.trivial(QQ)
    a = polynomial_monoid(scalar_monoid(cat), 3, 3)
    ts = [variable_element(a, i) for i in (1, 2, 3)]
    rng = random.Random(77)
    for k in (1, 2, 3):
        forms = [linear_form(QQ, ts, [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in ts])
                 for _ in range(k)]
        koszul.check_resolution(a, forms)
    assert len(built) == 3
    entries = 0
    for kc in built:
        for d in kc.complex.diffs[1:]:
            for m in d.blocks.values():
                for row in m.rows:
                    for v in row.values():
                        assert not (v.__class__ is Fraction and v.denominator == 1)
                        entries += 1
    assert entries > 100
