"""`koszul.summand_map`, written in one pass, against the `scale` + `place` route.

`summand_map` writes each face's rows straight into the rows of its cell
map, negating inline for sign -1.  The oracle is the route it replaced,
copied here with the `place` it called: one signed copy of each face cell
(`Matrix.scale`), then one `place` call per cell map.  The inputs are the
Koszul faces of seeded tuples over Q (coefficients with mixed denominators)
and F_101, n = 2..4, of equal and of mixed degrees, in the chain direction
and in the transposed (cochain) direction.  Block order, entries, their
order within each row and their types must agree.  A second face on one
block, and a face naming a copy the terms lack, are refused by name.
"""

import random
from fractions import Fraction

import pytest

from koszulcat.category import CategoryPresentation
from koszulcat.complexes import GradedMap, Term
from koszulcat.errors import DimensionError
from koszulcat.field import QQ, Field
from koszulcat.koszul import build_koszul, koszul_faces, subsets_lex, summand_map
from koszulcat.matrix import Matrix
from koszulcat.monoid import Element, scalar_monoid
from koszulcat.poly import polynomial_monoid, variable_element

F101 = Field(101)


def reference_place(field, nrows, ncols, blocks) -> Matrix:
    """The former `matrix.place`: the sum of the blocks (r0, c0, m) at their offsets."""
    rows = [dict() for _ in range(nrows)]
    for r0, c0, m in blocks:
        if r0 + m.nrows > nrows or c0 + m.ncols > ncols:
            raise DimensionError("a %dx%d block at (%d,%d) exceeds %dx%d"
                                 % (m.nrows, m.ncols, r0, c0, nrows, ncols))
        for i, r in enumerate(m.rows, r0):
            row = rows[i]
            shifted = {c0 + j: v for j, v in r.items()} if c0 else r
            if row.keys().isdisjoint(shifted):
                row.update(shifted)
                continue
            for j, v in shifted.items():
                if j in row:
                    v = field.add(row[j], v)
                    if not v:
                        del row[j]
                        continue
                row[j] = v
    return Matrix(field, nrows, ncols, rows)


def reference_summand_map(field, src_term, tgt_term, faces, cells) -> GradedMap:
    """The former `summand_map`: a scaled copy per negative face, one `place` per cell map."""
    parts = {}
    for s, t, sign, i in faces:
        shift, per_cell = cells[i]
        for (x, d), mat in per_cell.items():
            rows, cols = tgt_term.base.dim(x, d + shift), src_term.base.dim(x, d)
            parts.setdefault((x, d, d + shift), []).append(
                (t * rows, s * cols, mat if sign == 1 else mat.scale(field.from_int(sign))))
    blocks = {(x, ds, dt): reference_place(field, tgt_term.dim(x, dt), src_term.dim(x, ds),
                                           placed)
              for (x, ds, dt), placed in parts.items()}
    return GradedMap(field, src_term, tgt_term, blocks)


def coefficient(field, rng):
    """A nonzero scalar; over Q num/den with den 2, 3 or 7, integral or not."""
    num = rng.choice([1, -1, 2, -3, 5, 6])
    if field.char:
        return field.from_int(num)
    return field.div(Fraction(num), Fraction(rng.choice([2, 3, 7])))


def combination(field, rng, elements) -> Element:
    """A seeded combination of elements of one degree."""
    coords = [field.zero()] * len(elements[0].coords)
    for e in elements:
        c = coefficient(field, rng)
        coords = [field.add(a, field.mul(c, v)) for a, v in zip(coords, e.coords)]
    return Element(elements[0].obj, elements[0].degree, tuple(coords))


def seeded_tuple(field, rng, n, mixed):
    """n central elements over k[t1..tn] at cap 3: linear forms, every second one
    a product of two linear forms when `mixed`."""
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), n, 3)
    ts = [variable_element(a, i + 1) for i in range(n)]
    alphas = []
    for k in range(n):
        form = combination(field, rng, ts)
        if mixed and k % 2:
            form = a.multiply(form, combination(field, rng, ts))
        alphas.append(form)
    return a, alphas


def assert_same(got: GradedMap, want: GradedMap):
    assert list(got.blocks) == list(want.blocks)  # the same block order
    for key, m in want.blocks.items():
        g = got.blocks[key]
        assert (g.nrows, g.ncols) == (m.nrows, m.ncols)
        assert g.rows == m.rows
        for gr, wr in zip(g.rows, m.rows):
            assert list(gr) == list(wr)  # the same entry order
            assert [v.__class__ for v in gr.values()] == [v.__class__ for v in wr.values()]


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_pass_write_matches_scale_and_place(field, mixed, n):
    rng = random.Random(100 * n + 10 * mixed + field.char)
    a, alphas = seeded_tuple(field, rng, n, mixed)
    kc = build_koszul(a, alphas)
    terms = kc.complex.terms
    ops = {i: (op.shift, op.cells) for i, op in kc.mult_ops.items()}
    fractional = 0
    for p in range(1, n + 1):
        faces = koszul_faces(n, p)
        chain = summand_map(field, terms[p], terms[p - 1], faces, ops)
        assert_same(chain, reference_summand_map(field, terms[p], terms[p - 1], faces, ops))
        assert chain.blocks == kc.complex.diffs[p].blocks
        cofaces = [(t, s, sign, i) for s, t, sign, i in faces]
        assert_same(summand_map(field, terms[p - 1], terms[p], cofaces, ops),
                    reference_summand_map(field, terms[p - 1], terms[p], cofaces, ops))
        fractional += sum(v.__class__ is Fraction for m in chain.blocks.values()
                          for r in m.rows for v in r.values())
    assert (fractional > 0) == (field is QQ)


def test_a_repeated_or_missing_block_is_refused():
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(QQ)), 2, 2)
    src, tgt = (Term.copies("K_%d" % p, a.carrier, subsets_lex(2, p)) for p in (1, 0))
    ident = {cell: Matrix.identity(QQ, dim) for cell, dim in a.carrier.dims.items()}
    faces = koszul_faces(2, 1)
    summand_map(QQ, src, tgt, faces, {1: (0, ident), 2: (0, ident)})
    with pytest.raises(DimensionError, match=r"face \(0, 0, -1, 2\) repeats a block"):
        summand_map(QQ, src, tgt, faces + [(0, 0, -1, 2)], {1: (0, ident), 2: (0, ident)})
    with pytest.raises(DimensionError, match=r"face \(2, 0, 1, 1\) .* names no copy"):
        summand_map(QQ, src, tgt, faces + [(2, 0, 1, 1)], {1: (0, ident), 2: (0, ident)})
