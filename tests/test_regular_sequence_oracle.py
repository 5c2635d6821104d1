"""Regular sequences by dimension count against the quotient-per-prefix definition.

`is_regular_sequence` decides each stage by comparing dimensions of prefix
ideals; only a failing stage scans multiplication by its generator on A/I,
descended cell by cell, without building the quotient bimodule.  The oracle
here is the definition itself: the quotient bimodule A/<g_1..g_{i-1}> for
every prefix, `is_regular` of g_i on it, and the dimensions of A/<gens>.

Every prefix dimension now comes from one elimination per cell of all the
generators' column blocks; `prefix_route` keeps the earlier route, a
`generated_submodule` of every prefix from scratch, as a second oracle.
"""

import random

import pytest

import koszulcat.monoid as monoid_mod
from koszulcat.category import CategoryPresentation
from koszulcat.errors import NotCentralError, StabilityError, WrongObjectError
from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix
from koszulcat.monoid import (
    Element,
    RegularityCertificate,
    SequenceCertificate,
    generated_submodule,
    identity_monoid,
    is_central,
    is_regular,
    is_regular_sequence,
    monoid_from_table,
    quotient_module,
    regular_bimodule,
    scalar_monoid,
    validate_monoid,
)
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.sample import _s3_elements, c2_convolution_category
from test_homology_rank import linear_form

F101 = Field(101)
FIELDS = pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])


def definition(a, gens):
    """(to_jsonable, final_dims) from successive quotients, stage by stage."""
    module = regular_bimodule(a)
    stages = []
    failed = None
    for i, g in enumerate(gens):
        current = module if i == 0 else \
            quotient_module(module, generated_submodule(a, gens[:i])).module
        stages.append(is_regular(a, g, current))
        if not stages[-1].regular:
            failed = i
            break
    if gens:
        final = quotient_module(module, generated_submodule(a, gens)).module
        dims = dict(final.carrier.dims)
    else:
        dims = dict(a.carrier.dims)
    nonzero = any(dims.values())
    if failed is None and not nonzero:
        failed = len(gens)
    return {
        "regular": failed is None,
        "stages": [s.to_jsonable(a.field) for s in stages],
        "quotient_nonzero": nonzero,
        "failed_stage": failed,
        "truncated": a.carrier.truncated,
    }, dims


def assert_matches_definition(a, gens):
    cert = is_regular_sequence(a, gens)
    want, dims = definition(a, gens)
    assert cert.to_jsonable(a.field) == want
    assert cert.final_dims == dims
    return cert


def random_tuples(rng, nvars):
    """Coefficient rows of 1-3 forms; about half end in a combination of the rest."""
    out = []
    for _ in range(12):
        rows = [[rng.randint(-2, 2) for _ in range(nvars)] for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            c = [rng.randint(-2, 2) for _ in rows]
            rows.append([sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(nvars)])
        out.append(rows)
    return out


@FIELDS
def test_random_linear_forms_match_definition(field):
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), 3, 3)
    ts = [variable_element(a, i) for i in (1, 2, 3)]
    verdicts = set()
    for rows in random_tuples(random.Random(17 + field.char), 3):
        cert = assert_matches_definition(a, [linear_form(field, ts, r) for r in rows])
        verdicts.add(cert.regular)
    assert verdicts == {True, False}


@FIELDS
def test_degree_two_and_beyond_cap_generators_match_definition(field):
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), 3, 3)
    t1, t2, t3 = (variable_element(a, i) for i in (1, 2, 3))
    beyond = Element(a.cat.unit, a.cap + 1, ())
    assert assert_matches_definition(a, [t1, a.multiply(t2, t3)]).regular
    assert not assert_matches_definition(a, [t1, a.multiply(t1, t2)]).regular
    assert assert_matches_definition(a, [a.multiply(t1, t1), t2, t3]).regular
    cert = assert_matches_definition(a, [t1, beyond])
    assert cert.stages[1].window == -1 and cert.stages[1].cells_checked == 0
    assert assert_matches_definition(a, []).regular


@FIELDS
def test_two_object_base_matches_definition(field):
    a = polynomial_monoid(identity_monoid(c2_convolution_category(field)), 2, 3)
    ts = [variable_element(a, 1), variable_element(a, 2)]
    verdicts = set()
    for rows in ([[1, 0], [0, 1]], [[1, -1], [1, 1]], [[1, -1], [2, -2]], [[0, 0]],
                 [[2, 1]], *random_tuples(random.Random(29 + field.char), 2)):
        cert = assert_matches_definition(a, [linear_form(field, ts, r) for r in rows])
        verdicts.add(cert.regular)
    assert verdicts == {True, False}


def test_regular_tuple_builds_no_quotient(monkeypatch):
    """The regular path decides every stage from ideal dimensions alone."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the regular path must not build a quotient")

    monkeypatch.setattr(monoid_mod, "quotient_module", forbidden)
    monkeypatch.setattr(monoid_mod, "is_regular", forbidden)
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(QQ)), 3, 3)
    cert = is_regular_sequence(a, [variable_element(a, i) for i in (1, 2, 3)])
    assert cert.regular and cert.failed_stage is None
    assert [s.cells_checked for s in cert.stages] == [3, 3, 3]


# -- one elimination per cell against a generated_submodule per prefix ----------


def prefix_route(a, gens):
    """The earlier `is_regular_sequence`: each prefix ideal built from scratch."""
    car = a.carrier
    ideal = generated_submodule(a, [])
    stages = []
    failed = None
    for i, g in enumerate(gens):
        if not is_central(a, g):
            raise NotCentralError("element at (%s, degree %d) is not in the commutant"
                                  % (g.obj, g.degree))
        e = g.degree
        grown = generated_submodule(a, gens[:i + 1])
        cells = [(x, d) for (x, d) in car.cells() if d + e <= car.cap]
        if all(grown[(x, d + e)].dim - ideal[(x, d + e)].dim == car.dim(x, d) - ideal[(x, d)].dim
               for (x, d) in cells):
            stages.append(RegularityCertificate(True, None, len(cells), car.cap - e,
                                                car.truncated))
            ideal = grown
            continue
        stages.append(is_regular(a, g, quotient_module(regular_bimodule(a), ideal).module))
        failed, ideal = i, generated_submodule(a, gens)
        break
    dims = {c: car.dim(*c) - ideal[c].dim for c in car.cells()} if gens else dict(car.dims)
    nonzero = any(dims.values())
    if failed is None and not nonzero:
        failed = len(gens)
    return SequenceCertificate(failed is None, stages, nonzero, failed, dims, car.truncated)


def assert_matches_prefix_route(a, gens):
    cert, want = is_regular_sequence(a, gens), prefix_route(a, gens)
    assert cert.to_jsonable(a.field) == want.to_jsonable(a.field)
    assert [s.witness for s in cert.stages] == [s.witness for s in want.stages]
    assert (cert.failed_stage, cert.quotient_nonzero, cert.final_dims) == \
        (want.failed_stage, want.quotient_nonzero, want.final_dims)
    return cert


def mixed_tuples(rng, a, ts, count):
    """Tuples of 1-4 generators: random linear forms, the zero form, a repeat, a
    combination of earlier forms, and degree-2 products (empty blocks in cells
    of degree 0 and 1)."""
    field = a.field
    out = []
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("form", "form", "zero", "repeat", "combination", "degree2"))
            forms = [g for g in gens if g.degree == 1]
            if kind == "zero":
                gens.append(linear_form(field, ts, [0] * len(ts)))
            elif kind == "repeat" and gens:
                gens.append(rng.choice(gens))
            elif kind == "combination" and len(forms) >= 2:
                c1, c2 = (field.from_int(rng.choice((-2, -1, 1, 2))) for _ in range(2))
                f1, f2 = rng.sample(forms, 2)
                gens.append(Element(f1.obj, 1, tuple(field.add(field.mul(c1, p), field.mul(c2, q))
                                                     for p, q in zip(f1.coords, f2.coords))))
            elif kind == "degree2":
                gens.append(a.multiply(*(linear_form(field, ts, [rng.randint(-2, 2) for _ in ts])
                                         for _ in range(2))))
            else:
                gens.append(linear_form(field, ts, [rng.randint(-2, 2) for _ in ts]))
        out.append(gens)
    return out


@FIELDS
def test_seeded_tuples_match_prefix_route(field):
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), 3, 3)
    ts = [variable_element(a, i) for i in (1, 2, 3)]
    verdicts, failed_at = set(), set()
    for gens in mixed_tuples(random.Random(41 + field.char), a, ts, 40):
        cert = assert_matches_prefix_route(a, gens)
        verdicts.add(cert.regular)
        failed_at.add(cert.failed_stage)
    assert verdicts == {True, False}
    assert {None, 0, 1} <= failed_at


@FIELDS
def test_named_tuples_match_prefix_route(field):
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), 3, 3)
    t1, t2, t3 = ts = [variable_element(a, i) for i in (1, 2, 3)]
    zero = linear_form(field, ts, [0, 0, 0])
    dependent = linear_form(field, ts, [1, 2, 0])
    t1t2 = a.multiply(t1, t2)
    for gens in ([zero], [t1, zero, t2], [t1, t1], [t2, t1, t2], [t1, t2, dependent],
                 [t1, t2, t3, dependent], [t1t2, t3], [t3, t1t2, t1], [t1, t1t2],
                 [a.multiply(t3, t3), t1, t2, t3], []):
        assert_matches_prefix_route(a, gens)


@FIELDS
def test_two_object_base_matches_prefix_route(field):
    a = polynomial_monoid(identity_monoid(c2_convolution_category(field)), 2, 3)
    ts = [variable_element(a, 1), variable_element(a, 2)]
    for gens in mixed_tuples(random.Random(43 + field.char), a, ts, 20):
        assert_matches_prefix_route(a, gens)


# -- which error a bad tuple raises --------------------------------------------


def c2_s3_algebra(field):
    """The group algebra of S3 on the C2 convolution category: a copy of the
    group at each object (basis names: permutation, then object), products at
    the product object, identity transports.  It has non-central elements at
    the unit object and elements off it."""
    cat = c2_convolution_category(field)
    perms = _s3_elements()
    by_perm = {p: n for n, p in perms.items()}
    mul = {}
    for x in cat.objects:
        for y in cat.objects:
            for n1, p1 in perms.items():
                for n2, p2 in perms.items():
                    prod = by_perm[tuple(p1[p2[i]] for i in range(3))]
                    mul[(n1 + x, n2 + y)] = {prod + cat.dobj(x, y): field.one()}
    basis = {x: tuple(n + x for n in perms) for x in cat.objects}
    actions = {m: Matrix.identity(field, len(perms)) for m in cat.all_basis_mors()}
    return monoid_from_table(cat, basis, mul, {"ee": field.one()}, carrier_actions=actions)


def test_error_precedence_is_stage_by_stage():
    """Stage i certifies g_i central before checking its object; after a
    failing stage a later generator off the unit raises, a non-central one
    does not."""
    a = c2_s3_algebra(QQ)
    assert validate_monoid(a).ok
    total = Element("e", 0, tuple(QQ.one() for _ in range(6)))  # central, kills e - t12
    one, t12, off_unit = a.basis_element("ee"), a.basis_element("t12e"), a.basis_element("eg")
    assert not is_central(a, t12) and is_central(a, off_unit) and is_central(a, total)
    for run in (is_regular_sequence, prefix_route):
        for gens in ([t12, off_unit], [one, t12, off_unit]):
            with pytest.raises(NotCentralError):
                run(a, gens)
        for gens in ([off_unit], [total, off_unit], [total, t12, off_unit]):
            with pytest.raises(WrongObjectError):
                run(a, gens)
        cert = run(a, [total, t12])
        assert cert.failed_stage == 0 and len(cert.stages) == 1
        assert cert.stages[0].witness is not None


# -- the failing stage scans L_g on A/I without building the quotient bimodule --


def scalar_failing(field):
    """(t1 t2, t1^2) on Q[t1,t2,t3] at cap 4: stage 1 fails in degree 1, after
    a cell that passes."""
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), 3, 4)
    t1, t2, _ = (variable_element(a, i) for i in (1, 2, 3))
    return a, [a.multiply(t1, t2), a.multiply(t1, t1)]


def c2_unit_failing(field):
    """t1 twice over the C2 Day unit: stage 1 fails."""
    a = polynomial_monoid(identity_monoid(c2_convolution_category(field)), 2, 3)
    t1 = variable_element(a, 1)
    return a, [t1, t1]


BASES = pytest.mark.parametrize("build", [scalar_failing, c2_unit_failing],
                                ids=["scalar", "c2unit"])


@FIELDS
@BASES
def test_failing_stage_builds_no_quotient_module(field, build, monkeypatch):
    """The failing stage enters `monoid.is_regular` once and never builds A/I."""
    a, gens = build(field)
    want, _ = definition(a, gens)
    calls = []
    scan = monoid_mod.is_regular

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the failing stage must not build a quotient module")

    monkeypatch.setattr(monoid_mod, "is_regular", counted)
    monkeypatch.setattr(monoid_mod, "quotient_module", forbidden)
    cert = is_regular_sequence(a, gens)
    assert cert.to_jsonable(field) == want
    assert cert.failed_stage == 1 and cert.stages[1].cells_checked >= 1
    assert len(calls) == 1


@FIELDS
@BASES
def test_failing_stage_raises_when_multiplication_does_not_descend(field, build, monkeypatch):
    a, gens = build(field)
    monkeypatch.setattr(monoid_mod, "descend", lambda *args: None)
    with pytest.raises(StabilityError, match="multiplication by"):
        is_regular_sequence(a, gens)


@FIELDS
@BASES
def test_failing_stage_descends_only_the_cells_it_scans(field, build, monkeypatch):
    """L_g is descended to A/I cell by cell as the scan reaches it: one descent
    per scanned cell, none past the witness, and a descent that fails on the
    first scanned cell (degree 0 of the first object) raises naming that cell."""
    a, gens = build(field)
    real, calls = monoid_mod.descend, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(monoid_mod, "descend", counted)
    cert = is_regular_sequence(a, gens)
    assert len(calls) == cert.stages[1].cells_checked
    assert cert.stages[1].cells_checked < sum(1 for x, d in a.carrier.cells()
                                              if d + gens[1].degree <= a.cap)

    def first_fails(*args):
        calls.append(args)
        return None if len(calls) == 1 else real(*args)

    calls.clear()
    monkeypatch.setattr(monoid_mod, "descend", first_fails)
    with pytest.raises(StabilityError, match=r"at \(%s,0\)$" % a.cat.objects[0]):
        is_regular_sequence(a, gens)
