"""The same integer data over Q and over F_p for a large prime give the same answers.

Linear forms with small integer coefficients have minors far below
p = 1 000 003, so every rank, and with it every homology dimension and the
regular-sequence verdict, must come out equal over Q and over F_p.  A
disagreement means one of the two scalar paths computed something wrong.
"""

import random

import pytest

from koszulcat.category import CategoryPresentation
from koszulcat.field import QQ, Field
from koszulcat.hochschild import build_enveloping, hochschild_cohomology
from koszulcat.koszul import check_resolution
from koszulcat.monoid import regular_bimodule, scalar_monoid
from koszulcat.poly import polynomial_monoid, variable_element
from test_golden_reports import _twisted_bimodule
from test_homology_rank import linear_form

BIG = Field(1000003)


def coefficient_tuples(seed):
    """Seeded integer tuples of 1-3 forms in 3 variables, some dependent."""
    rng = random.Random(seed)
    out = []
    for k in (1, 2, 3, 2, 3, 3):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(k)]
        if not any(rows[0]):
            rows[0][0] = 1
        out.append(rows)
    # tuples whose last form is a combination of the others: never regular
    out.append([[1, 2, -1], [0, 1, 3], [2, 5, 1]])
    out.append([[1, -1, 0], [2, -2, 0]])
    return out


def resolution_summary(field, rows):
    cat = CategoryPresentation.trivial(field)
    a = polynomial_monoid(scalar_monoid(cat), 3, 3)
    ts = [variable_element(a, i) for i in (1, 2, 3)]
    cert = check_resolution(a, [linear_form(field, ts, r) for r in rows])
    entries = [(e.p, e.obj, e.degree, e.dim) for e in cert.report.entries]
    verdicts = [(c.name, c.passed) for c in cert.report.certificates]
    return cert.regular, entries, verdicts


def test_resolution_dims_and_verdict_match():
    regular = 0
    for rows in coefficient_tuples(424242):
        over_q = resolution_summary(QQ, rows)
        assert over_q == resolution_summary(BIG, rows), rows
        regular += over_q[0]
    assert 0 < regular < len(coefficient_tuples(424242))


def hochschild_summary(field, coefficients):
    e = build_enveloping(scalar_monoid(CategoryPresentation.trivial(field)), 2, 3)
    m = coefficients(e.a_n)
    out = []
    for p in range(4):
        rep = hochschild_cohomology(e, m, p)
        out.append(([(x.p, x.obj, x.degree, x.dim) for x in rep.entries],
                    [(c.name, c.passed) for c in rep.certificates]))
    return out


@pytest.mark.parametrize("coefficients", [regular_bimodule, _twisted_bimodule],
                         ids=["regular", "twisted"])
def test_hochschild_dims_match(coefficients):
    over_q = hochschild_summary(QQ, coefficients)
    assert over_q == hochschild_summary(BIG, coefficients)
    assert any(dim for entries, _ in over_q for *_, dim in entries)
