"""Copy-map moves against products with placed identity blocks.

`CopyMap.move_rows` and `CopyMap.move_columns` compose a graded map with a
copy map by moving row slices and renumbering columns.  The oracle is the
product the moves replace: `GradedMap.compose` with the identity map that
`summand_map` places for the same pairs.  Both are compared block by block
for the iota, tau and sigma of `pascal_split` at every p, and for a seeded
partial injection of the copies of each term, against every differential of
the big and the small complex that meets the moved term.  Inputs are seeded
Koszul complexes of n = 2..4 elements over Q and F_101, of equal degrees
(linear forms) and of mixed degrees (some forms times a variable).
"""

import random

import pytest

from koszulcat.category import CategoryPresentation
from koszulcat.complexes import CopyMap, Term
from koszulcat.errors import DimensionError
from koszulcat.field import QQ, Field
from koszulcat.koszul import build_koszul, pascal_split, summand_map
from koszulcat.matrix import Matrix
from koszulcat.monoid import scalar_monoid
from koszulcat.poly import polynomial_monoid, variable_element
from test_homology_rank import linear_form

F101 = Field(101)
CASES = [(field, n, mixed) for field in (QQ, F101) for n in (2, 3, 4) for mixed in (False, True)]


def seeded_complex(field, n, mixed):
    """n seeded forms over field[t1, t2, t3] at cap 3; with `mixed`, every other
    form is multiplied by a variable, so the degrees alternate 1, 2, 1, ..."""
    rng = random.Random(1000 * n + 10 * mixed + field.char)
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), 3, 3)
    ts = [variable_element(a, i) for i in (1, 2, 3)]
    alphas = [linear_form(field, ts, [rng.randint(-5, 5) or 1 for _ in ts]) for _ in range(n)]
    if mixed:
        alphas = [a.multiply(rng.choice(ts), f) if k % 2 else f for k, f in enumerate(alphas)]
    return build_koszul(a, alphas)


def identity_map(field, carrier, copies):
    ident = {None: (0, {cell: Matrix.identity(field, dim) for cell, dim in carrier.dims.items()})}
    return summand_map(field, copies.src, copies.tgt,
                       [(s, t, 1, None) for s, t in copies.pairs], ident)


def random_injection(rng, src: Term, tgt: Term):
    """A seeded partial injection of the copies of src into those of tgt."""
    sources = rng.sample(range(len(src.summands)), rng.randint(0, len(src.summands)))
    targets = rng.sample(range(len(tgt.summands)), len(tgt.summands))
    return CopyMap(src, tgt, zip(sources, targets))


def assert_same_blocks(got, want):
    assert got.src is want.src and got.tgt is want.tgt
    for key in set(got.blocks) | set(want.blocks):
        assert got.block(*key) == want.block(*key), key


@pytest.mark.parametrize("field, n, mixed", CASES,
                         ids=["%s-n%d-%s" % (f.descriptor(), n, "mixed" if m else "equal")
                              for f, n, m in CASES])
def test_moves_equal_products_with_identity_blocks(field, n, mixed):
    kc = seeded_complex(field, n, mixed)
    sw = pascal_split(kc)
    carrier = kc.monoid.carrier
    diffs = [g for g in kc.complex.diffs + sw.small.complex.diffs if g is not None]
    rng = random.Random(n)
    moved = 0
    for p in range(n + 1):
        copy_maps = [sw.iota_copies[p], sw.tau_copies[p], sw.sigma_copies[p],
                     random_injection(rng, kc.complex.terms[p], kc.complex.terms[p])]
        if p < n:
            copy_maps.append(random_injection(rng, sw.small.complex.terms[p], kc.complex.terms[p]))
        for copies in copy_maps:
            ident = identity_map(field, carrier, copies)
            for g in diffs:
                if g.tgt is copies.src:
                    assert_same_blocks(copies.move_rows(g), ident.compose(g))
                    moved += 1
                if g.src is copies.tgt:
                    assert_same_blocks(copies.move_columns(g), g.compose(ident))
                    moved += 1
    assert moved >= 6 * n
    for name, copies in (("iota", sw.iota_copies), ("tau", sw.tau_copies),
                         ("sigma", sw.sigma_copies)):
        for c, built in zip(copies, getattr(sw, name)):
            assert_same_blocks(built, identity_map(field, carrier, c))


def test_a_pair_list_that_is_not_injective_is_refused():
    kc = seeded_complex(QQ, 3, False)
    k1, k2 = kc.complex.terms[1], kc.complex.terms[2]
    with pytest.raises(DimensionError, match="repeats a target copy"):
        CopyMap(k1, k2, [(0, 1), (2, 1)])
    with pytest.raises(DimensionError, match="repeats a source copy"):
        CopyMap(k1, k2, [(0, 1), (0, 2)])


def test_a_move_refuses_a_map_on_other_copies():
    kc = seeded_complex(QQ, 3, False)
    k0, k1 = kc.complex.terms[0], kc.complex.terms[1]
    swap = CopyMap(k1, k1, [(0, 1), (1, 0)])
    with pytest.raises(DimensionError, match="copy map meets a term"):
        swap.move_rows(kc.complex.diffs[1])  # d_1 lands in K_0, not K_1
    with pytest.raises(DimensionError, match="copy map meets a term"):
        CopyMap(k0, k0, []).move_columns(kc.complex.diffs[1])  # d_1 leaves K_1
