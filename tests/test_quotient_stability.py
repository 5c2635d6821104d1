"""Quotient modules refuse exactly the families that are not stable.

`quotient_module` reads stability off the descent that builds each induced
map.  Each kind of failure is named once below.  A seeded draw of families
then compares its verdict with a rank oracle written out here: a family is
stable iff, for every arrow and action, rank [basis_tgt | map * basis_src]
equals dim sub_tgt, the rank taken by dense elimination over `Fraction`.
"""

import random
from fractions import Fraction

import pytest

from koszulcat.category import CategoryPresentation
from koszulcat.errors import StabilityError
from koszulcat.field import QQ
from koszulcat.matrix import Matrix, Subspace
from koszulcat.monoid import (
    Element,
    generated_submodule,
    identity_monoid,
    is_central,
    quotient_module,
    regular_bimodule,
    scalar_monoid,
)
from koszulcat.poly import polynomial_monoid
from koszulcat.sample import c2_convolution_category, s3_group_algebra

CAT = CategoryPresentation.trivial(QQ)
U = CAT.unit


def zero_family(a):
    return {cell: Subspace.zero(QQ, a.carrier.dim(*cell)) for cell in a.carrier.cells()}


def arrow_case():
    a = identity_monoid(c2_convolution_category(QQ))
    sub = zero_family(a)
    # the arrow e -> g carries I(e) onto I(g), which the family leaves out
    sub[("e", 0)] = Subspace.full(QQ, 1)
    return a, sub


def left_action_case():
    a = polynomial_monoid(scalar_monoid(CAT), 1, 2)
    sub = zero_family(a)
    # the span of t alone: t * t = t^2 escapes
    sub[(U, 1)] = Subspace.full(QQ, 1)
    return a, sub


def right_action_case():
    a = s3_group_algebra(QQ)
    e, t12 = a.basis_element("e"), a.basis_element("t12")
    g = Element(U, 0, tuple(QQ.add(x, y) for x, y in zip(e.coords, t12.coords)))
    # A (e + t12) is a left ideal; right multiplication by t13 leaves it
    return a, generated_submodule(a, [g])


@pytest.mark.parametrize("case, kind", [(arrow_case, "arrow"),
                                        (left_action_case, "left action"),
                                        (right_action_case, "right action")],
                         ids=["arrow", "left", "right"])
def test_each_unstable_kind_is_named(case, kind):
    a, sub = case()
    with pytest.raises(StabilityError, match="^submodule not stable under %s " % kind):
        quotient_module(regular_bimodule(a), sub)


# -- the rank oracle ----------------------------------------------------------------


def fraction_rank(cols, nrows):
    """Rank of the matrix whose columns are `cols`, by dense elimination."""
    work = [[Fraction(c[i]) for c in cols] for i in range(nrows)]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, nrows) if work[i][j]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(nrows):
            if i != rank and work[i][j]:
                fac = work[i][j] / work[rank][j]
                work[i] = [u - fac * v for u, v in zip(work[i], work[rank])]
        rank += 1
    return rank


def oracle_stable(m, sub) -> bool:
    a, cat, car = m.monoid, m.cat, m.carrier
    images = [((y, d), mat * sub[(x, d)].basis) for ((x, y, _), d), mat in car.actions.items()]
    for (x, d1, y, d2), mat in m.left.items():
        ident = Matrix.identity(QQ, a.carrier.dim(x, d1))
        images.append(((cat.dobj(x, y), d1 + d2), mat * ident.kron(sub[(y, d2)].basis)))
    for (x, d1, y, d2), mat in m.right.items():
        ident = Matrix.identity(QQ, a.carrier.dim(y, d2))
        images.append(((cat.dobj(x, y), d1 + d2), mat * sub[(x, d1)].basis.kron(ident)))
    for tgt, image in images:
        s = sub[tgt]
        cols = [s.basis.column(j) for j in range(s.dim)] + \
            [image.column(j) for j in range(image.ncols)]
        if fraction_rank(cols, s.ambient) > s.dim:
            return False
    return True


def random_coords(rng, n):
    return [rng.randint(-2, 2) if rng.random() < 0.6 else 0 for _ in range(n)]


def random_span(rng, a):
    sub = {}
    for cell in a.carrier.cells():
        n = a.carrier.dim(*cell)
        sub[cell] = Subspace.from_columns(
            QQ, n, [random_coords(rng, n) for _ in range(rng.randint(0, n))])
    return sub


def s3_central(rng, a):
    # a combination of the class sums of the identity, transpositions and 3-cycles
    z = [rng.randint(-2, 2) for _ in range(3)]
    return Element(U, 0, tuple(QQ.from_int(z[k]) for k in (0, 1, 1, 1, 2, 2)))


def unit_object_element(rng, a):
    u = a.cat.unit
    d = rng.randint(0, a.carrier.cap)
    return Element(u, d, tuple(random_coords(rng, a.carrier.dim(u, d))))


MONOIDS = {
    "Q[t1,t2] cap 3": (lambda: polynomial_monoid(scalar_monoid(CAT), 2, 3), unit_object_element),
    "Q[S3]": (lambda: s3_group_algebra(QQ), s3_central),
    "I of c2conv": (lambda: identity_monoid(c2_convolution_category(QQ)), unit_object_element),
    "I of c2conv [t] cap 2": (
        lambda: polynomial_monoid(identity_monoid(c2_convolution_category(QQ)), 1, 2),
        unit_object_element),
}


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_quotient_raises_exactly_when_the_oracle_finds_instability(name):
    build, central = MONOIDS[name]
    a = build()
    m = regular_bimodule(a)
    rng = random.Random(20261019)
    unstable = 0
    for trial in range(16):
        if trial % 2 == 0:
            gens = [central(rng, a) for _ in range(rng.randint(1, 2))]
            assert all(is_central(a, g) for g in gens)
            sub = generated_submodule(a, gens)
        else:
            sub = random_span(rng, a)
        stable = oracle_stable(m, sub)
        assert stable or trial % 2  # an ideal of central elements is stable
        if stable:
            q = quotient_module(m, sub)
            for cell in a.carrier.cells():
                assert q.module.carrier.dim(*cell) == a.carrier.dim(*cell) - sub[cell].dim
        else:
            unstable += 1
            with pytest.raises(StabilityError, match="^submodule not stable under "):
                quotient_module(m, sub)
    assert unstable > 0
