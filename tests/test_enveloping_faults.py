"""Each certificate of the enveloping monoid fails on a fault made for it.

One table entry per certificate of `build_enveloping` and for the
`change-of-variables-iso` certificate that `koszul_bimodule_resolution`
reports.  An entry injects one fault into the data the certificate reads: one
column or row of the collapse map pi (through `_collapse_matrix`), one
generator of the ideal, or one binomial coefficient of the substitution psi.
The same construction without the fault passes every certificate, so the
failure is the fault's.  The three morphism certificates (pi, psi and the
merge Phi) are also faulted together through the one law that checks them,
`monoid.morphism_law`.

The variable differences u_i - v_i carry no certificate of their own:
`variable_element` refuses a u_i or v_i that is not central, and the
commutant is a subspace, so each difference is central (`build_koszul`
checks each again).  The last test breaks the centrality of u1 and sees
`build_enveloping` refuse it.

Base: the scalar monoid over F_101, n = 2 variables (u1, u2, v1, v2 on the
enveloping side, t1, t2 on the target), cap 3.
"""

from math import comb

import pytest

import koszulcat.hochschild as hochschild
import koszulcat.monoid as monoid
import koszulcat.poly as poly
from koszulcat.category import CategoryPresentation
from koszulcat.errors import StructuralError
from koszulcat.field import Field
from koszulcat.hochschild import build_enveloping, change_of_variables_certificate
from koszulcat.matrix import Matrix
from koszulcat.monoid import scalar_monoid
from koszulcat.poly import mono_index

F101 = Field(101)
CAT = CategoryPresentation.trivial(F101)
N, CAP = 2, 3

U1, U2, V1 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)


def monomial(*exponents):
    """Sum of exponent tuples: the product of those monomials."""
    return tuple(map(sum, zip(*exponents)))


def verdicts():
    e = build_enveloping(scalar_monoid(CAT), N, CAP)
    out = {c.name: c.passed for c in e.report.certificates}
    out["change-of-variables-iso"] = change_of_variables_certificate(e)
    return out


def edit_rows(m: Matrix, edit) -> Matrix:
    rows = [dict(r) for r in m.rows]
    edit(rows)
    return Matrix(m.field, m.nrows, m.ncols, [{j: v for j, v in r.items() if v} for r in rows])


def scale_column(col):
    """Double column `col` of a matrix."""
    def edit(rows):
        for r in rows:
            if col in r:
                r[col] = F101.mul(2, r[col])
    return edit


def pi_fault(monkeypatch, degree, edit):
    """Edit the collapse map pi in one degree, through `_collapse_matrix`."""
    real = hochschild._collapse_matrix

    def faulty(field, n, d, base_dim):
        m = real(field, n, d, base_dim)
        return edit_rows(m, edit(d)) if d == degree else m

    monkeypatch.setattr(hochschild, "_collapse_matrix", faulty)


def double_pi_column(degree, exponent):
    def install(monkeypatch):
        pi_fault(monkeypatch, degree,
                 lambda d: scale_column(mono_index(2 * N, d)[exponent]))
    return install


def drop_pi_row(degree, target_exponent):
    def install(monkeypatch):
        def edit(d):
            def clear(rows):
                rows[mono_index(N, d)[target_exponent]].clear()
            return clear
        pi_fault(monkeypatch, degree, edit)
    return install


def send_u2_to_t1(monkeypatch):
    """pi(u2) = t1 instead of t2, so u1 and u2 collapse to one variable."""
    def edit(d):
        col = mono_index(2 * N, d)[U2]
        t1, t2 = (mono_index(N, d)[t] for t in ((1, 0), (0, 1)))

        def move(rows):
            rows[t1][col] = rows[t2].pop(col)
        return move
    pi_fault(monkeypatch, 1, edit)


def drop_last_difference(monkeypatch):
    """Generate the ideal from u1 - v1 alone."""
    real = hochschild.generated_submodule
    monkeypatch.setattr(hochschild, "generated_submodule",
                        lambda c, gens: real(c, gens[:-1]))


def wrong_binomial(monkeypatch):
    """comb(2, 1) = 3 in psi, so psi((u - v)^2) has -3 u v."""
    monkeypatch.setattr(hochschild, "comb",
                        lambda n, k: comb(n, k) + ((n, k) == (2, 1)))


FAULTS = [
    ("collapse-is-monoid-morphism", double_pi_column(2, monomial(U1, U1))),
    ("collapse-preserves-unit", double_pi_column(0, (0, 0, 0, 0))),
    ("collapse-matches-variables", double_pi_column(1, V1)),
    ("ideal-inside-kernel", double_pi_column(2, monomial(U1, V1))),
    ("collapse-surjective", drop_pi_row(1, (0, 1))),
    ("kernel-dimension-match", drop_last_difference),
    ("collapse-injective-on-first-family", send_u2_to_t1),
    ("change-of-variables-iso", wrong_binomial),
]


def test_every_certificate_passes_without_a_fault():
    got = verdicts()
    assert {name for name, _ in FAULTS} <= set(got)
    assert all(got.values()), got


@pytest.mark.parametrize("name, install", FAULTS, ids=[name for name, _ in FAULTS])
def test_fault_fails_its_certificate(monkeypatch, name, install):
    install(monkeypatch)
    assert verdicts()[name] is False


def test_a_degree_three_binomial_fault_fails_the_change_of_variables(monkeypatch):
    """comb(3, 1) = 4 in psi: a fault that first shows in the law at (1, 2)."""
    monkeypatch.setattr(hochschild, "comb",
                        lambda n, k: comb(n, k) + ((n, k) == (3, 1)))
    assert verdicts()["change-of-variables-iso"] is False


def test_morphism_certificates_are_read_from_the_shared_law(monkeypatch):
    """With the law answering False, exactly pi's, psi's and Phi's certificates fail."""
    assert hochschild.morphism_law is poly.morphism_law is monoid.morphism_law
    for module in (hochschild, poly):
        monkeypatch.setattr(module, "morphism_law", lambda *args: False)
    failed = {name for name, ok in verdicts().items() if not ok}
    assert failed == {"collapse-is-monoid-morphism", "change-of-variables-iso",
                      "merge-multiplicative"}


def test_a_non_central_variable_is_refused(monkeypatch):
    """v1 u1 is doubled in the merged monoid, so u1 v1 != v1 u1: u1, variable 1
    of A_2n, is not central, and `build_enveloping` refuses it by name."""
    real = hochschild.merge_variables
    degree_one = mono_index(2 * N, 1)

    def faulty(*args):
        merge = real(*args)
        cell = (CAT.unit, 1, CAT.unit, 1)
        col = degree_one[V1] * len(degree_one) + degree_one[U1]
        merge.monoid.pairing[cell] = edit_rows(merge.monoid.pairing[cell], scale_column(col))
        return merge

    monkeypatch.setattr(hochschild, "merge_variables", faulty)
    with pytest.raises(StructuralError, match="variable 1 is not central"):
        build_enveloping(scalar_monoid(CAT), N, CAP)
