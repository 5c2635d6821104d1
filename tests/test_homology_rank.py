"""Rank-only homology against a kernel-based count.

`ChainComplex.homology_cell` returns dim - rank(out) - rank(in) after testing
out * in = 0.  Here it is compared with dim ker(out) - rank(in), the kernel
taken by `matrix.kernel`, on seeded random complexes with d o d = 0.  A route
guard counts the ranks a complex takes: each block of a single-shift
differential once, on that complex alone.
"""

import random
from fractions import Fraction

import pytest

import koszulcat.complexes as complexes_mod
from koszulcat.category import CategoryPresentation
from koszulcat.complexes import ChainComplex, GradedMap, Term
from koszulcat.errors import StructuralError
from koszulcat.field import QQ, Field
from koszulcat.koszul import build_koszul, check_resolution
from koszulcat.matrix import Matrix, kernel, kernel_basis, rank
from koszulcat.monoid import Element, scalar_monoid
from koszulcat.poly import polynomial_monoid, variable_element

F101 = Field(101)
FIELDS = pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])


def kernel_count(cx, p, x, d):
    """dim ker(out) - rank(in), the kernel built by `matrix.kernel`."""
    cyc = cx.terms[p].dim(x, d)
    if p >= 1:
        cyc = kernel(cx.diffs[p].out_matrix(x, d)).dim
    bnd = rank(cx.diffs[p + 1].in_matrix(x, d)) if p + 1 < len(cx.terms) else 0
    return cyc - bnd


def scalar(field, rng):
    if field.char == 0:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    return rng.randrange(field.char)


def random_matrix(field, rng, nrows, ncols, rank_cap):
    """A random nrows x ncols matrix of rank at most rank_cap."""
    r = rng.randint(0, rank_cap)
    left = Matrix.from_entries(field, nrows, r, {(i, j): scalar(field, rng)
                                                 for i in range(nrows) for j in range(r)})
    right = Matrix.from_entries(field, r, ncols, {(i, j): scalar(field, rng)
                                                  for i in range(r) for j in range(ncols)})
    return left * right


def random_complex(field, rng):
    """V_N -> ... -> V_0 in one cell, each d_p landing in ker d_{p-1}."""
    cat = CategoryPresentation.trivial(field)
    u = cat.unit
    dims = [rng.randint(0, 5) for _ in range(rng.randint(2, 5))]
    mats = [None, random_matrix(field, rng, dims[0], dims[1], min(dims[:2]))]
    for p in range(2, len(dims)):
        ker = kernel_basis(mats[p - 1])
        k = Matrix.from_columns(field, dims[p - 1], ker)
        mats.append(k * random_matrix(field, rng, len(ker), dims[p], len(ker)))
    terms = [Term("V%d" % p, {(u, 0): n}) for p, n in enumerate(dims)]
    diffs = [None] + [GradedMap(field, terms[p], terms[p - 1], {(u, 0, 0): mats[p]})
                      for p in range(1, len(dims))]
    return ChainComplex(cat, 0, terms, diffs), u


@FIELDS
def test_random_complexes_match_kernel_count(field):
    rng = random.Random(31 + field.char)
    nonzero = 0
    for _ in range(80):
        cx, u = random_complex(field, rng)
        assert cx.dd_certificate()[0]
        for p in range(len(cx.terms)):
            h = cx.homology_cell(p, u, 0)
            assert h == kernel_count(cx, p, u, 0)
            nonzero += h > 0
    assert nonzero


def linear_form(field, ts, coeffs):
    coords = []
    for j in range(len(ts[0].coords)):
        acc = field.zero()
        for c, t in zip(coeffs, ts):
            acc = field.add(acc, field.mul(field.from_int(c), t.coords[j]))
        coords.append(acc)
    return Element(ts[0].obj, 1, tuple(coords))


@FIELDS
def test_koszul_complexes_match_kernel_count(field):
    rng = random.Random(5 + field.char)
    cat = CategoryPresentation.trivial(field)
    a = polynomial_monoid(scalar_monoid(cat), 3, 3)
    ts = [variable_element(a, i + 1) for i in range(3)]
    for k in (1, 2, 3):
        forms = [linear_form(field, ts, [rng.randint(-2, 2) for _ in ts]) for _ in range(k)]
        cx = build_koszul(a, forms).complex
        for p in range(k + 1):
            for d in range(cx.homology_window(p) + 1):
                for x in cat.objects:
                    assert cx.homology_cell(p, x, d) == kernel_count(cx, p, x, d)


def test_mixed_degree_resolution_still_raises():
    # homology per cell is wrong when element degrees differ; until summands
    # are graded by their true degree this must stay a loud failure
    cat = CategoryPresentation.trivial(F101)
    a = polynomial_monoid(scalar_monoid(cat), 3, 3)
    t1, t2, t3 = (variable_element(a, i) for i in (1, 2, 3))
    with pytest.raises(StructuralError, match=r"boundaries escape cycles at p=1 cell \(1,1\)"):
        check_resolution(a, [t1, t2, a.multiply(t1, t3)])


# -- each single-shift block is ranked once per complex -------------------------


def counting_rank(monkeypatch):
    """Count `koszulcat.complexes.rank` calls; returns the list of ranked matrices."""
    seen = []

    def counted(m):
        seen.append(m)
        return rank(m)

    monkeypatch.setattr(complexes_mod, "rank", counted)
    return seen


def general_position_forms(field, nvars, cap, rows):
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), nvars, cap)
    ts = [variable_element(a, i + 1) for i in range(nvars)]
    return a, [linear_form(field, ts, row) for row in rows]


# four forms over Q[t1..t4]: no zero coefficient, no vanishing 2x2 minor of any pair
DENSE_ROWS = [[1, 2, -3, 4], [3, -1, 2, 5], [-2, 5, 1, 3], [4, 3, -5, -1]]


def test_check_resolution_ranks_each_block_once(monkeypatch):
    """At Q[t1..t4] cap 6 the homology cells ask for 49 ranks: 28 single-shift
    blocks (27 distinct matrices; two zero-column blocks share a shape), each
    read by the cell it leaves and the cell it enters."""
    a, alphas = general_position_forms(QQ, 4, 6, DENSE_ROWS)
    seen = counting_rank(monkeypatch)
    cert = check_resolution(a, alphas)
    assert cert.passed and cert.regular
    assert len(seen) == 28
    distinct = {(m.nrows, m.ncols, tuple(tuple(sorted(r.items())) for r in m.rows))
                for m in seen}
    assert len(distinct) == 27


@FIELDS
def test_complexes_built_alike_share_no_ranks(field, monkeypatch):
    a, alphas = general_position_forms(field, 3, 3, [[1, 2, -3], [3, -1, 2]])
    first, second = (build_koszul(a, alphas).complex for _ in range(2))
    seen = counting_rank(monkeypatch)
    dims = [first.homology_dims(p, range(first.homology_window(p) + 1)) for p in range(3)]
    calls = len(seen)
    assert calls
    assert [second.homology_dims(p, range(second.homology_window(p) + 1))
            for p in range(3)] == dims
    assert len(seen) == 2 * calls
    for p in range(3):
        first.homology_dims(p, range(first.homology_window(p) + 1))
    assert len(seen) == 2 * calls


# -- a certified d o d stands in for the product check ---------------------------


def faulted(gmap, key, in_block):
    """A new map: gmap with one entry of block `key` moved so that block * in_block != 0."""
    block = gmap.block(*key)
    j = next(j for j, r in enumerate(in_block.rows) if r)
    bump = Matrix.from_entries(gmap.field, block.nrows, block.ncols, {(0, j): gmap.field.one()})
    return GradedMap(gmap.field, gmap.src, gmap.tgt, {**gmap.blocks, key: block + bump})


def koszul_with_faulted_d1(field):
    """The Koszul complex of two forms over k[t1,t2,t3] at cap 3, d_1 faulted at
    the block leaving (1, 1): out * in at p=1 cell (1,1) is then nonzero."""
    a, alphas = general_position_forms(field, 3, 3, [[1, 2, -3], [3, -1, 2]])
    cx = build_koszul(a, alphas).complex
    u = a.cat.unit
    return cx, faulted(cx.diffs[1], (u, 1, 2), cx.diffs[2].block(u, 0, 1))


@FIELDS
def test_certified_homology_multiplies_no_matrices(field, monkeypatch):
    """After a passing `dd_certificate`, homology of a single-shift complex reads
    only ranks; the counts equal those of a complex that checks every product."""
    a, alphas = general_position_forms(field, 3, 3, [[1, 2, -3], [3, -1, 2], [2, 5, 1]])
    checked, certified = (build_koszul(a, alphas).complex for _ in range(2))
    windows = [range(checked.homology_window(p) + 1) for p in range(4)]
    want = [checked.homology_dims(p, windows[p]) for p in range(4)]
    assert certified.dd_certificate()[0]

    def refuse(*args):
        raise AssertionError("product in certified homology")

    monkeypatch.setattr(Matrix, "__mul__", refuse)
    assert [certified.homology_dims(p, windows[p]) for p in range(4)] == want


@FIELDS
def test_uncertified_fault_still_raises(field):
    """A block fault in a complex whose d o d was never certified is caught by
    the product check."""
    cx, bad = koszul_with_faulted_d1(field)
    cx.diffs[1] = bad
    with pytest.raises(StructuralError, match=r"boundaries escape cycles at p=1 cell \(1,1\)"):
        cx.homology_dims(1, range(cx.homology_window(1) + 1))


@FIELDS
def test_failed_or_swapped_certificate_checks_products(field):
    """A failed d o d certifies nothing, and a map swapped in after a passing
    certificate is checked again: the record holds the certified map objects."""
    cx, bad = koszul_with_faulted_d1(field)
    good = cx.diffs[1]
    cx.diffs[1] = bad
    assert not cx.dd_certificate()[0]
    with pytest.raises(StructuralError, match=r"boundaries escape cycles at p=1 cell \(1,1\)"):
        cx.homology_cell(1, cx.cat.unit, 1)
    cx.diffs[1] = good
    assert cx.dd_certificate()[0]
    assert cx.homology_cell(1, cx.cat.unit, 1) == kernel_count(cx, 1, cx.cat.unit, 1)
    cx.diffs[1] = bad
    with pytest.raises(StructuralError, match=r"boundaries escape cycles at p=1 cell \(1,1\)"):
        cx.homology_cell(1, cx.cat.unit, 1)
