"""Tensor idempotence, enveloping monoids, bimodule resolutions, Hochschild groups."""

from math import comb

import pytest

import koszulcat.hochschild
from koszulcat.category import CategoryPresentation
from koszulcat.errors import PreconditionError, StructuralError
from koszulcat.field import QQ, Field
from koszulcat.hochschild import (
    build_enveloping,
    certify_tensor_idempotent,
    change_of_variables_certificate,
    hochschild_cohomology,
    koszul_bimodule_resolution,
)
from koszulcat.matrix import Matrix
from koszulcat.monoid import (
    Module,
    identity_monoid,
    regular_bimodule,
    scalar_monoid,
    validate_module,
)
from koszulcat.poly import default_var_names, mono_index, multi_indices, polynomial_monoid
from koszulcat.sample import c2_convolution_category, dual_numbers, s3_group_algebra

CAT = CategoryPresentation.trivial(QQ)
U = CAT.unit


def test_scalar_monoid_is_tensor_idempotent_direct():
    cert = certify_tensor_idempotent(scalar_monoid(CAT))
    assert cert.passed and cert.mode == "direct"
    assert cert.quotient_ok  # both roads agree here


def test_identity_monoid_idempotent_both_modes():
    cat = c2_convolution_category(QQ)
    cert = certify_tensor_idempotent(identity_monoid(cat))
    assert cert.passed
    assert cert.direct_ok and cert.quotient_ok
    assert cert.mode == "direct"


def test_dual_numbers_not_idempotent():
    cert = certify_tensor_idempotent(dual_numbers(QQ))
    assert not cert.passed
    assert "dim 4" in cert.detail and "target 2" in cert.detail


def test_idempotence_requires_commutativity():
    with pytest.raises(PreconditionError):
        certify_tensor_idempotent(s3_group_algebra(QQ))


# -- enveloping -------------------------------------------------------------------


def test_enveloping_kernel_dims_one_variable():
    e = build_enveloping(scalar_monoid(CAT), 1, 3)
    assert e.passed
    # bivariate degree d has d+1 monomials collapsing onto a single target
    for d in range(4):
        assert e.ideal[(U, d)].dim == d
        assert e.c.carrier.dim(U, d) == d + 1
        assert e.a_n.carrier.dim(U, d) == 1


def test_enveloping_two_variables_cap_two():
    e = build_enveloping(scalar_monoid(CAT), 2, 2)
    assert e.passed
    for d in range(3):
        assert e.ideal[(U, d)].dim == \
            e.c.carrier.dim(U, d) - e.a_n.carrier.dim(U, d)
    assert all(a.degree == 1 for a in e.alphas)


def test_enveloping_requires_certificate():
    with pytest.raises(PreconditionError):
        build_enveloping(dual_numbers(QQ), 1, 2)


@pytest.mark.parametrize("n,t,u,v", [(1, ("t",), ("u",), ("v",)),
                                     (2, ("t1", "t2"), ("u1", "u2"), ("v1", "v2"))])
def test_enveloping_default_variable_names(n, t, u, v):
    e = build_enveloping(scalar_monoid(CAT), n, 2)
    assert e.a_n.poly_info.var_names == t
    assert e.c.poly_info.var_names == u + v


def test_enveloping_rejects_wrong_number_of_variable_names():
    with pytest.raises(PreconditionError, match="expected 2 variable names"):
        build_enveloping(scalar_monoid(CAT), 2, 2, var_names=("x",))


def test_change_of_variables_mechanism():
    e = build_enveloping(scalar_monoid(CAT), 2, 3)
    assert change_of_variables_certificate(e)


# -- bimodule resolution -----------------------------------------------------------


def test_bimodule_resolution_one_variable():
    e = build_enveloping(scalar_monoid(CAT), 1, 4)
    res = koszul_bimodule_resolution(e)
    assert res.passed
    # augmented shape: A_n <- C <- C, with binomial(1, p) copies
    assert [len(t.dims) for t in res.complex.terms] == [5, 5, 5]
    names = {c.name for c in res.report.certificates}
    assert "contracting-homotopy" in names and "differences-regular-sequence" in names


def test_bimodule_resolution_two_variables():
    e = build_enveloping(scalar_monoid(CAT), 2, 3)
    res = koszul_bimodule_resolution(e)
    assert res.passed
    assert len(res.complex.terms) == 4  # A_n, C, C^2, C


def test_resolution_term_ranks_are_binomial():
    e = build_enveloping(scalar_monoid(CAT), 2, 3)
    res = koszul_bimodule_resolution(e)
    for p in range(3):
        term = res.complex.terms[p + 1]
        assert term.dim(U, 0) == comb(2, p) * 1


# -- Hochschild cohomology -----------------------------------------------------------


def test_hh_zero_and_one_for_one_variable():
    e = build_enveloping(scalar_monoid(CAT), 1, 4)
    m = regular_bimodule(e.a_n)
    for p in (0, 1):
        rep = hochschild_cohomology(e, m, p)
        assert rep.all_passed
        dims = {en.degree: en.dim for en in rep.entries}
        assert all(dims[d] == 1 for d in range(4))  # C(1,p) * one monomial per degree


def test_hh_dimension_formula_two_variables():
    e = build_enveloping(scalar_monoid(CAT), 2, 3)
    m = regular_bimodule(e.a_n)
    for p in range(3):
        rep = hochschild_cohomology(e, m, p)
        dims = {en.degree: en.dim for en in rep.entries}
        for d in range(3):
            assert dims[d] == comb(2, p) * comb(2 + d - 1, d)


def test_hh_phi_certificate_present():
    e = build_enveloping(scalar_monoid(CAT), 2, 3)
    rep = hochschild_cohomology(e, regular_bimodule(e.a_n), 1)
    cert = next(c for c in rep.certificates if c.name == "cochain-differential-zero")
    assert cert.passed


def test_hh_vanishes_above_n():
    e = build_enveloping(scalar_monoid(CAT), 2, 3)
    m = regular_bimodule(e.a_n)
    for p in (3, 4):
        rep = hochschild_cohomology(e, m, p)
        assert all(en.dim == 0 for en in rep.entries)
        assert not any(c.name == "vanishes-above-n" for c in rep.certificates)


def _skew_module(a_n):
    """Q[t1,t2] acting on itself: on the left by the pairing, on the right by T.

    Each t_i acts on the right as T: m -> t1 swap(m), swap exchanging the two
    exponents, so a monomial of degree k acts as T^k.  Both actions are
    associative and unital, but they do not commute: not a bimodule.
    """
    fld = a_n.field
    right = {}
    for d1 in range(a_n.cap + 1):
        for d2 in range(a_n.cap + 1 - d1):
            src, tgt = multi_indices(2, d1), mono_index(2, d1 + d2)
            width, half = len(multi_indices(2, d2)), d2 // 2
            entries = {}
            for i, (p, q) in enumerate(src):
                if d2 % 2:
                    p, q = q + 1, p
                for j in range(width):
                    entries[(tgt[(p + half, q + half)], i * width + j)] = fld.one()
            right[(U, d1, U, d2)] = Matrix.from_entries(fld, len(tgt), len(src) * width, entries)
    return Module(a_n, a_n.carrier, dict(a_n.pairing), right, name="skew")


def test_hh_of_a_non_bimodule_raises_instead_of_counting():
    """Phi_1 Phi_0 != 0 here, so rank counts would not be dimensions."""
    e = build_enveloping(scalar_monoid(CategoryPresentation.trivial(Field(101))), 2, 3)
    m = _skew_module(e.a_n)
    assert {v.axiom for v in validate_module(m).violations} == {"bimodule-compatibility"}
    with pytest.raises(StructuralError, match=r"boundaries escape cycles at p=1 cell \(1,1\)"):
        hochschild_cohomology(e, m, 1)


def test_hh_negative_degree_rejected():
    e = build_enveloping(scalar_monoid(CAT), 1, 2)
    with pytest.raises(PreconditionError):
        hochschild_cohomology(e, regular_bimodule(e.a_n), -1)


def test_full_pipeline_over_finite_backend():
    # the identity monoid of the two-object convolution category is tensor
    # idempotent, and the whole enveloping machinery runs over it unchanged
    cat = c2_convolution_category(QQ)
    ident = identity_monoid(cat)
    e = build_enveloping(ident, 1, 3)
    assert e.passed
    res = koszul_bimodule_resolution(e)
    assert res.passed
    rep = hochschild_cohomology(e, regular_bimodule(e.a_n), 1)
    dims = {(en.obj, en.degree): en.dim for en in rep.entries}
    for x in cat.objects:
        for d in range(3):
            assert dims[(x, d)] == 1


@pytest.mark.parametrize("var_names", [None, ("x", "y")], ids=["t", "xy"])
@pytest.mark.parametrize("base", [scalar_monoid(CategoryPresentation.trivial(Field(101))),
                                  identity_monoid(c2_convolution_category(Field(101)))],
                         ids=["scalar", "c2unit"])
def test_a_u_and_a_v_are_a_n_renamed(monkeypatch, base, var_names):
    """A_u and A_v share A_n's carrier data and pairing cells, as the same
    objects, and carry the names a fresh polynomial monoid would."""
    merged = []
    real = koszulcat.hochschild.merge_variables
    monkeypatch.setattr(koszulcat.hochschild, "merge_variables",
                        lambda c, d, *rest: merged.append((c, d)) or real(c, d, *rest))
    a_n = build_enveloping(base, 2, 3, var_names=var_names).a_n
    (a_u, a_v), = merged
    for g, letter in ((a_u, "u"), (a_v, "v")):
        assert g.carrier is not a_n.carrier and g.central_memo is not a_n.central_memo
        assert g.carrier.dims == a_n.carrier.dims
        assert g.carrier.copies is a_n.carrier.copies
        for mine, theirs in ((g.carrier.actions, a_n.carrier.actions), (g.pairing, a_n.pairing)):
            assert mine.keys() == theirs.keys()
            assert all(mine[k] is m for k, m in theirs.items())
        fresh = polynomial_monoid(base, 2, 3, var_names=default_var_names(2, letter))
        assert g.carrier.basis_names == fresh.carrier.basis_names
        assert g.name == fresh.name
        assert g.poly_info.var_names == fresh.poly_info.var_names == default_var_names(2, letter)
        assert g.poly_info.base is base
        assert g.pairing == fresh.pairing and g.carrier.actions == fresh.carrier.actions
