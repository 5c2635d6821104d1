"""Regular sequences by dimension count against the quotient-per-prefix definition.

`is_regular_sequence` decides each stage by comparing dimensions of prefix
ideals and builds a quotient module only where a stage fails.  The oracle
here is the definition itself: the quotient bimodule A/<g_1..g_{i-1}> for
every prefix, `is_regular` of g_i on it, and the dimensions of A/<gens>.
"""

import random

import pytest

import koszulcat.monoid as monoid_mod
from koszulcat.category import CategoryPresentation
from koszulcat.field import QQ, Field
from koszulcat.monoid import (
    Element,
    generated_submodule,
    identity_monoid,
    is_regular,
    is_regular_sequence,
    quotient_module,
    regular_bimodule,
    scalar_monoid,
)
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.sample import c2_convolution_category
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
