"""Monoid core: validation, commutants, generated ideals, quotients, regularity."""

import random
from fractions import Fraction

import pytest

from koszulcat.category import CategoryPresentation
from koszulcat.errors import NotCentralError, StabilityError, WrongObjectError
from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix
from koszulcat.monoid import (
    Element,
    Module,
    Monoid,
    commutant,
    fix_slot,
    generated_submodule,
    identity_monoid,
    is_central,
    is_commutative,
    is_regular,
    is_regular_sequence,
    monoid_from_table,
    mult_operator,
    quotient_module,
    regular_bimodule,
    scalar_monoid,
    times_bracket,
    validate_module,
    validate_monoid,
)
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.sample import (
    c2_convolution_category,
    dual_numbers,
    s3_center,
    s3_group_algebra,
)

CAT = CategoryPresentation.trivial(QQ)
U = CAT.unit


def q_monoid():
    return scalar_monoid(CAT)


# -- validation ----------------------------------------------------------------


def test_scalar_monoid_valid():
    assert validate_monoid(q_monoid()).ok


def test_dual_numbers_valid():
    rep = validate_monoid(dual_numbers(QQ))
    assert rep.ok and rep.checked > 0


def test_s3_and_center_valid():
    assert validate_monoid(s3_group_algebra(QQ)).ok
    assert validate_monoid(s3_center(QQ)).ok


def test_perturbed_structure_constant_fails():
    # z2*z3 = 3*z2 instead of 2*z2 makes (z2 z2) z3 != z2 (z2 z3)
    one = QQ.one()

    def c(n):
        return QQ.from_int(n)

    mul = {
        ("z1", "z1"): {"z1": one},
        ("z1", "z2"): {"z2": one},
        ("z1", "z3"): {"z3": one},
        ("z2", "z1"): {"z2": one},
        ("z3", "z1"): {"z3": one},
        ("z2", "z2"): {"z1": c(3), "z3": c(3)},
        ("z2", "z3"): {"z2": c(3)},
        ("z3", "z2"): {"z2": c(2)},
        ("z3", "z3"): {"z1": c(2), "z3": one},
    }
    bad = monoid_from_table(CAT, {U: ("z1", "z2", "z3")}, mul, {"z1": one})
    rep = validate_monoid(bad)
    assert not rep.ok
    assert summary(rep) == (3, ["associativity at cells (1,0)(1,0)(1,0)"])


def perturbed(pairing, edits):
    """A copy of a cell dict with entries (cell key, row, col, int) overwritten."""
    out = {key: Matrix(QQ, m.nrows, m.ncols, [dict(r) for r in m.rows])
           for key, m in pairing.items()}
    for key, i, j, v in edits:
        out[key].rows[i][j] = QQ.from_int(v)
    return out


def summary(rep):
    return rep.checked, [str(v) for v in rep.violations]


# The tests below pin the validators' exact output on broken structures:
# violation names, instances, their order and the number of checked instances.


def test_perturbed_graded_monoid_violations_in_cell_order():
    p = polynomial_monoid(dual_numbers(QQ), 1, 2)
    bad = Monoid(p.carrier, perturbed(p.pairing, [((U, 1, U, 0), 0, 0, 5)]), p.unit)
    assert summary(validate_monoid(bad)) == (16, [
        "unit-right at (1, 1)",
        "associativity at cells (1,0)(1,1)(1,0)",
        "associativity at cells (1,1)(1,0)(1,0)",
        "associativity at cells (1,1)(1,0)(1,1)",
        "associativity at cells (1,1)(1,1)(1,0)",
    ])


def test_bimodule_failing_every_law_on_dual_numbers():
    a = dual_numbers(QQ)
    cell = (U, 0, U, 0)
    # left: xbar.xbar = xbar; right: xbar.xbar = one and xbar.one = 2 xbar
    m = Module(a, a.carrier, perturbed(a.pairing, [(cell, 1, 3, 1)]),
               perturbed(a.pairing, [(cell, 0, 3, 1), (cell, 1, 2, 2)]))
    assert summary(validate_module(m)) == (5, [
        "unit-acts-as-identity-right at (1, 0)",
        "left-action-associativity at cells (1,0)(1,0)(1,0)",
        "right-action-associativity at cells (1,0)(1,0)(1,0)",
        "bimodule-compatibility at cells (1,0)(1,0)(1,0)",
    ])


def test_bimodule_failing_every_law_on_c2conv():
    ident = identity_monoid(c2_convolution_category(QQ))
    m = Module(ident, ident.carrier,
               perturbed(ident.pairing, [(("g", 0, "g", 0), 0, 0, 2)]),
               perturbed(ident.pairing, [(("g", 0, "e", 0), 0, 0, 3)]))
    assert summary(validate_module(m)) == (28, [
        "unit-acts-as-identity-right at (g, 0)",
        "right-action-associativity at cells (e,0)(g,0)(e,0)",
        "right-action-associativity at cells (g,0)(e,0)(e,0)",
        "bimodule-compatibility at cells (g,0)(e,0)(e,0)",
        "right-action-associativity at cells (g,0)(e,0)(g,0)",
        "bimodule-compatibility at cells (g,0)(e,0)(g,0)",
        "left-action-associativity at cells (g,0)(g,0)(e,0)",
        "bimodule-compatibility at cells (g,0)(g,0)(e,0)",
        "left-action-associativity at cells (g,0)(g,0)(g,0)",
        "right-action-associativity at cells (g,0)(g,0)(g,0)",
        "bimodule-compatibility at cells (g,0)(g,0)(g,0)",
    ])


def test_graded_left_module_violation_and_count():
    p = polynomial_monoid(dual_numbers(QQ), 1, 2)
    m = Module(p, p.carrier, perturbed(p.pairing, [((U, 1, U, 1), 1, 0, 1)]), None)
    assert summary(validate_module(m)) == (
        13, ["left-action-associativity at cells (1,1)(1,1)(1,0)"])


def test_identity_monoid_on_c2conv_valid():
    cat = c2_convolution_category(QQ)
    ident = identity_monoid(cat)
    assert validate_monoid(ident).ok
    assert is_commutative(ident)


# -- commutant -----------------------------------------------------------------


def test_commutant_of_commutative_monoid_is_everything():
    a = dual_numbers(QQ)
    com = commutant(a, U)
    assert com[0].dim == 2


def test_s3_commutant_is_class_sums():
    a = s3_group_algebra(QQ)
    com = commutant(a, U)
    assert com[0].dim == 3
    # the sum of transpositions is central, one transposition alone is not
    z2 = [Fraction(0), Fraction(1), Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
    assert com[0].contains(z2)
    t12 = a.basis_element("t12")
    assert not is_central(a, t12)


def test_is_central_matches_commutant():
    a = s3_group_algebra(QQ)
    e = a.unit_element()
    assert is_central(a, e)


# -- mult operators --------------------------------------------------------------


def test_unit_multiplication_is_identity():
    a = dual_numbers(QQ)
    op = mult_operator(a, a.unit_element(), regular_bimodule(a))
    assert op.cells[(U, 0)] == Matrix.identity(QQ, 2)


def test_xbar_multiplication_is_nilpotent():
    a = dual_numbers(QQ)
    op = mult_operator(a, a.basis_element("xbar"), regular_bimodule(a))
    m = op.cells[(U, 0)]
    assert m * m == Matrix.zeros(QQ, 2, 2)
    assert m.entry(1, 0) == Fraction(1)  # one -> xbar
    assert m.column(1) == (Fraction(0), Fraction(0))  # xbar -> 0


def test_variable_shift_on_truncated_polynomials():
    # Q[t] truncated at degree 3: multiplication by t has rank 3 on the 4-dim space
    a = polynomial_monoid(q_monoid(), 1, 3)
    t = variable_element(a, 1)
    op = mult_operator(a, t, regular_bimodule(a))
    total_rank = sum(1 for d in range(3) if op.cells[(U, d)].entry(0, 0))
    assert total_rank == 3
    assert (U, 3) not in op.cells  # degree 3 would map above the cap


def test_mult_operator_requires_unit_object():
    cat = c2_convolution_category(QQ)
    ident = identity_monoid(cat)
    stray = Element("g", 0, (QQ.one(),))
    with pytest.raises(WrongObjectError):
        mult_operator(ident, stray, regular_bimodule(ident))


def _vec_column(field, vec):
    return Matrix.from_columns(field, len(vec), [vec])


def fix_right(field, dim_left, vec):
    """Matrix of b -> b (x) vec on Kronecker bases, an oracle for `fix_slot`."""
    return Matrix.identity(field, dim_left).kron(_vec_column(field, vec))


def fix_left(field, vec, dim_right):
    """Matrix of b -> vec (x) b on Kronecker bases, an oracle for `fix_slot`."""
    return _vec_column(field, vec).kron(Matrix.identity(field, dim_right))


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=["Q", "F101"])
def test_fix_slot_is_the_product_with_the_fixed_vector(field):
    rng = random.Random(19)
    for _ in range(60):
        width, dim, nrows = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 4)
        cell = Matrix.from_entries(field, nrows, width * dim,
                                   {(i, j): field.from_int(rng.choice([0, 0, 1, -1, 3]))
                                    for i in range(nrows) for j in range(width * dim)})
        vec = [field.from_int(rng.choice([0, 1, 2, -5])) for _ in range(width)]
        assert fix_slot(cell, vec, dim, "left") == cell * fix_left(field, vec, dim)
        assert fix_slot(cell, vec, dim, "right") == cell * fix_right(field, dim, vec)


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=["Q", "F101"])
def test_times_bracket_is_the_product_with_the_kronecker_factor(field):
    rng = random.Random(23)
    values = [field.parse(t) for t in ("0", "0", "1", "-1", "3", "1/2", "-3/2")]
    for _ in range(80):
        left, right = rng.randint(1, 3), rng.randint(1, 3)
        nr, nc, nrows = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 4)
        inner = Matrix.from_entries(field, nr, nc, {(i, j): rng.choice(values)
                                                    for i in range(nr) for j in range(nc)})
        outer = Matrix.from_entries(field, nrows, left * nr * right,
                                    {(i, j): rng.choice(values) for i in range(nrows)
                                     for j in range(left * nr * right)})
        got = times_bracket(outer, inner, left, right)
        kron = Matrix.identity(field, left).kron(inner).kron(Matrix.identity(field, right))
        assert got == outer * kron
        # integral rationals come back as ints, as from every field operation
        assert all(v.__class__ is int or v.denominator != 1 for r in got.rows for v in r.values())


def test_central_mult_operator_is_module_morphism():
    # left multiplication by a commutant element commutes with every right
    # multiplication, cellwise (over a noncommutative base for good measure)
    from koszulcat.poly import polynomial_monoid, variable_element

    a = polynomial_monoid(s3_group_algebra(QQ), 1, 2)
    t = variable_element(a, 1)
    op = mult_operator(a, t, regular_bimodule(a), side="left")
    base_dim = a.carrier.dim(U, 0)
    for d in range(a.cap):
        for j in range(base_dim):
            bvec = [QQ.zero()] * base_dim
            bvec[j] = QQ.one()
            r_low = a.pairing_cell(U, d, U, 0) * fix_right(QQ, a.carrier.dim(U, d), bvec)
            r_high = a.pairing_cell(U, d + 1, U, 0) * \
                fix_right(QQ, a.carrier.dim(U, d + 1), bvec)
            assert op.cells[(U, d)] * r_low == r_high * op.cells[(U, d)]


def test_mult_operator_naturality_on_c2conv():
    cat = c2_convolution_category(QQ)
    ident = identity_monoid(cat)
    op = mult_operator(ident, ident.unit_element(), regular_bimodule(ident))
    for (x, y, i) in cat.all_basis_mors():
        act = ident.carrier.action_matrix((x, y, i), 0)
        assert act * op.cells[(x, 0)] == op.cells[(y, 0)] * act


# -- generated submodules ---------------------------------------------------------


def test_unit_generates_everything():
    a = dual_numbers(QQ)
    sub = generated_submodule(a, [a.unit_element()])
    assert sub[(U, 0)].dim == 2


def test_xbar_generates_line():
    a = dual_numbers(QQ)
    sub = generated_submodule(a, [a.basis_element("xbar")])
    assert sub[(U, 0)].dim == 1


def test_variable_ideal_in_truncated_polynomials():
    a = polynomial_monoid(q_monoid(), 1, 3)
    t = variable_element(a, 1)
    sub = generated_submodule(a, [t])
    assert [sub[(U, d)].dim for d in range(4)] == [0, 1, 1, 1]


def test_empty_generators_give_zero_submodule():
    a = dual_numbers(QQ)
    sub = generated_submodule(a, [])
    assert sub[(U, 0)].dim == 0


def test_generated_submodule_matches_closure_oracle():
    # brute force: iterate pairing images until the spanned family stabilizes
    a = polynomial_monoid(q_monoid(), 2, 3)
    t1 = variable_element(a, 1)
    sub = generated_submodule(a, [t1])
    from koszulcat.matrix import Subspace

    fam = {cell: Subspace.zero(QQ, a.carrier.dim(*cell)) for cell in a.carrier.cells()}
    fam[(U, 1)] = Subspace.from_columns(QQ, a.carrier.dim(U, 1), [list(t1.coords)])
    changed = True
    while changed:
        changed = False
        for (x, d) in a.carrier.cells():
            basis = fam[(x, d)].basis
            if basis.ncols == 0:
                continue
            for dp in range(a.cap + 1 - d):
                mat = a.pairing_cell(U, dp, x, d)
                da = a.carrier.dim(U, dp)
                full = mat * Matrix.identity(QQ, da).kron(basis)
                tgt = (U, d + dp)
                grown = fam[tgt].sum(
                    Subspace.from_columns(QQ, a.carrier.dim(*tgt),
                                          [full.column(j) for j in range(full.ncols)]))
                if grown.dim != fam[tgt].dim:
                    fam[tgt] = grown
                    changed = True
    for cell in a.carrier.cells():
        assert fam[cell].dim == sub[cell].dim
        assert fam[cell] == sub[cell]


# -- quotient modules --------------------------------------------------------------


def test_quotient_by_zero_is_isomorphic():
    a = dual_numbers(QQ)
    sub = generated_submodule(a, [])
    q = quotient_module(regular_bimodule(a), sub)
    assert q.module.carrier.dim(U, 0) == 2
    assert validate_module(q.module).ok


def test_quotient_by_unit_ideal_is_zero():
    a = dual_numbers(QQ)
    sub = generated_submodule(a, [a.unit_element()])
    q = quotient_module(regular_bimodule(a), sub)
    assert q.module.carrier.dim(U, 0) == 0


def test_quotient_of_polynomials_by_variables():
    a = polynomial_monoid(q_monoid(), 2, 4)
    gens = [variable_element(a, 1), variable_element(a, 2)]
    sub = generated_submodule(a, gens)
    q = quotient_module(regular_bimodule(a), sub)
    dims = [q.module.carrier.dim(U, d) for d in range(5)]
    assert dims == [1, 0, 0, 0, 0]
    # the quotient kills exactly the ideal: generators project to zero and
    # dimensions complement the ideal at every cell
    for g in gens:
        assert not any(q.projections[(U, g.degree)].apply(g.coords))
    for cell in a.carrier.cells():
        assert q.module.carrier.dim(*cell) == a.carrier.dim(*cell) - sub[cell].dim


def test_quotient_rejects_unstable_family():
    from koszulcat.matrix import Subspace

    a = polynomial_monoid(q_monoid(), 1, 2)
    sub = {cell: Subspace.zero(QQ, a.carrier.dim(*cell)) for cell in a.carrier.cells()}
    # the span of t alone is not an ideal: t * t = t^2 escapes
    sub[(U, 1)] = Subspace.full(QQ, 1)
    with pytest.raises(StabilityError):
        quotient_module(regular_bimodule(a), sub)


# -- regularity ---------------------------------------------------------------------


def test_unit_is_regular():
    a = dual_numbers(QQ)
    cert = is_regular(a, a.unit_element(), regular_bimodule(a))
    assert cert.regular


def test_xbar_not_regular_with_witness():
    a = dual_numbers(QQ)
    cert = is_regular(a, a.basis_element("xbar"), regular_bimodule(a))
    assert not cert.regular
    assert cert.witness is not None
    # the witness is xbar itself: the lexicographically first kernel vector
    assert cert.witness.coords == (Fraction(0), Fraction(1))


def test_variable_regular_in_truncated_polynomials():
    a = polynomial_monoid(q_monoid(), 2, 4)
    cert = is_regular(a, variable_element(a, 1), regular_bimodule(a))
    assert cert.regular
    assert cert.window == 3


def test_regularity_requires_centrality():
    a = s3_group_algebra(QQ)
    with pytest.raises(NotCentralError):
        is_regular(a, a.basis_element("t12"), regular_bimodule(a))


def test_variable_sequence_is_regular():
    a = polynomial_monoid(q_monoid(), 2, 4)
    cert = is_regular_sequence(a, [variable_element(a, 1), variable_element(a, 2)])
    assert cert.regular
    assert cert.quotient_nonzero
    assert cert.final_dims[(U, 0)] == 1


def test_unit_sequence_fails_item_two():
    a = dual_numbers(QQ)
    cert = is_regular_sequence(a, [a.unit_element()])
    assert not cert.regular
    assert not cert.quotient_nonzero


def test_xbar_sequence_fails_item_one():
    a = dual_numbers(QQ)
    cert = is_regular_sequence(a, [a.basis_element("xbar")])
    assert not cert.regular
    assert cert.failed_stage == 0
    assert cert.stages[0].witness is not None


def test_failing_stage_keeps_witness_past_a_noncentral_generator():
    # N, the sum of the group, is central and kills e - t12, so the tuple fails
    # at stage 0; e + t12 is never certified and must not be used to build a
    # quotient, or its unstable right ideal would hide the stage-0 witness
    a = s3_group_algebra(QQ)
    n = Element(U, 0, tuple(QQ.one() for _ in a.unit_element().coords))
    e, t12 = a.basis_element("e"), a.basis_element("t12")
    g = Element(U, 0, tuple(QQ.add(x, y) for x, y in zip(e.coords, t12.coords)))
    with pytest.raises(StabilityError):
        quotient_module(regular_bimodule(a), generated_submodule(a, [n, g]))
    cert = is_regular_sequence(a, [n, g])
    assert not cert.regular and cert.failed_stage == 0
    assert len(cert.stages) == 1
    assert cert.stages[0].witness == is_regular(a, n, regular_bimodule(a)).witness
    assert cert.final_dims == {(U, 0): 3}
