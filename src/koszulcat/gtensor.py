"""Degreewise tensor product of graded carriers.

A cell (x, d) of L (x) R is the direct sum over d1 + d2 = d of the Day
convolution (L_{d1} (x) R_{d2})(x) of the degree slices: layout[(x, d)][d1]
is the block of degree split (d1, d - d1), blocks in ascending d1.  Inside a
block the coordinates are those of the Day quotient (see `DayTensor`).  On
the trivial backend every Day quotient is the identity, so a block is the
plain Kronecker product L_{d1} (x) R_{d2}, left factor slowest.  Maps are
assembled from Kronecker products placed at these offsets (`matrix.place`),
or, for an operator A (x) I_base on a factor of copies, by moving the placed
copies' coordinates (`GradedTensor.map_factor`).
A degree-0 cell is the one block (0, 0) at offset 0: its vectors are those
of `day[(0, 0)]`, whose `pure_map` embeds a pure tensor there.

Every slice Day tensor comes from `day_tensor_copies`: a factor's slice is
(base slice, #monomials) for a polynomial carrier (`GradedCarrier.copies`)
and (the slice itself, 1) for any other, so the Day tensor of two base
slices is eliminated once and every split is placed copies of it, whether
both factors, one (A_n (x) M) or neither are polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import day_tensor_copies
from .matrix import Matrix, place
from .monoid import GradedCarrier


def _slice_copies(car: GradedCarrier, d: int) -> tuple:
    """(base slice, #copies) of the degree-d slice of car."""
    return (car.copies[0] if car.copies else car.slice_rep(d)), _count(car.copies, d)


def _count(copies, d: int) -> int:
    """#copies of the degree-d slice of a carrier whose `GradedCarrier.copies` are copies."""
    return copies[1].get(d, 0) if copies else 1


def _copy_factor(op, k_tgt: int, k_src: int, f: int):
    """A as {(target copy, source copy): value} when op = A (x) I_f, A k_tgt x k_src, else None.

    One pass over op's entries, with comparisons only: entry (v' f + a',
    v f + a) needs a' = a and the value of every other entry of (v', v), and
    each pair (v', v) met needs all f of its entries.
    """
    if op is None or (op.nrows, op.ncols) != (k_tgt * f, k_src * f):
        return None
    a, seen = {}, 0
    for r, row in enumerate(op.rows):
        vt, at = divmod(r, f)
        for col, val in row.items():
            vs, ats = divmod(col, f)
            if ats != at or a.setdefault((vt, vs), val) != val:
                return None
            seen += 1
    return a if seen == f * len(a) else None


@dataclass
class TensorBlock:
    """The block of degree split (d1, d2) in a cell, at rows offset.. of the cell."""

    d1: int
    d2: int
    dim: int
    offset: int


def tensor_cap(left: GradedCarrier, right: GradedCarrier) -> int:
    """The certified window of left (x) right: an untruncated carrier is
    genuinely zero above its cap, so only truncated factors limit it."""
    return min([left.cap + right.cap] + [car.cap for car in (left, right) if car.truncated])


def block_layout(objects, cap: int, block_dim) -> tuple:
    """(layout, dims) of the cells up to cap: block_dim(d1, d2, x) per split, ascending d1."""
    layout, dims = {}, {}
    for d in range(cap + 1):
        for x in objects:
            blocks, off = [], 0
            for d1 in range(d + 1):
                blocks.append(TensorBlock(d1, d - d1, block_dim(d1, d - d1, x), off))
                off += blocks[-1].dim
            layout[(x, d)], dims[(x, d)] = blocks, off
    return layout, dims


class GradedTensor:
    __slots__ = ("cat", "field", "cap", "day", "layout", "dims", "copies")

    def __init__(self, left: GradedCarrier, right: GradedCarrier, cap=None):
        self.cat = left.cat
        self.field = left.field
        self.cap = tensor_cap(left, right) if cap is None else cap
        self.copies = (left.copies, right.copies)  # `GradedCarrier.copies` of each factor
        self.day = {}
        rights = [_slice_copies(right, d2) for d2 in range(self.cap + 1)]
        for d1 in range(self.cap + 1):
            f, kf = _slice_copies(left, d1)
            for d2 in range(self.cap + 1 - d1):
                g, kg = rights[d2]
                self.day[(d1, d2)] = day_tensor_copies(self.cat, f, g, kf, kg)
        self.layout, self.dims = block_layout(self.cat.objects, self.cap,
                                              lambda d1, d2, x: self.day[(d1, d2)].rep.dims[x])

    def dim(self, x, d) -> int:
        return self.dims.get((x, d), 0)

    def map_factor(self, op_cells: dict, shift: int, factor: str) -> dict:
        """Apply a natural degree-raising family to one tensor factor.

        op_cells maps (obj, deg) to a matrix raising the factor degree by
        `shift`; returns cell blocks (x, d) -> Matrix into (x, d + shift) of
        this tensor, which is right when the factor carrier is closed under
        the shift.  On the Day summand (y, z) the ambient map is
        I_hom (x) op (x) I_R (left) or I_hom (x) I_L (x) op (right);
        naturality of the family is what makes it descend through the Day
        quotients.

        When the factor is a carrier of copies and every op cell of a factor
        degree is A (x) I_base for one matrix A on the copies
        (`_copy_factor`, read from the cells), the blocks of that degree are
        copy moves: A (x) I on the Day quotient coordinates of the placed
        copies (`DayTensor.coords`), with no Kronecker product and no
        projection * ambient * section.  Every other block takes the
        Kronecker route above; both give the same matrices.
        """
        fld = self.field
        left = factor == "left"
        moves = self._copy_moves(op_cells, shift, left)
        acts = {}  # (d1, d2, y, z) -> op (x) I or I (x) op, the same at every x
        out = {}
        for d in range(self.cap + 1 - shift):
            for x in self.cat.objects:
                cell, moved = [], []
                for b in self.layout[(x, d)]:
                    tb_d1 = b.d1 + shift if left else b.d1
                    src_day = self.day[(b.d1, b.d2)]
                    tgt_day = self.day[(tb_d1, d + shift - tb_d1)]
                    tgt_offset = self.layout[(x, d + shift)][tb_d1].offset
                    if (b.d1, b.d2) in moves:
                        moved.append((tgt_offset, b.offset, moves[(b.d1, b.d2)],
                                      src_day.coords[x], tgt_day.coords[x]))
                        continue
                    amb = []
                    for (y, z), s in src_day.layout[x].items():
                        ts = tgt_day.layout[x][(y, z)]
                        if s.size == 0 or ts.size == 0:
                            continue
                        key = (b.d1, b.d2, y, z)
                        if key not in acts:
                            op = op_cells.get((y, b.d1) if left else (z, b.d2))
                            acts[key] = op if op is None else \
                                op.kron(Matrix.identity(fld, s.dim_g)) if left \
                                else Matrix.identity(fld, s.dim_f).kron(op)
                        if acts[key] is not None:
                            amb.append(ts.block(acts[key], s.offset))
                    amb = place(fld, tgt_day.quot[x].ambient, src_day.quot[x].ambient, amb)
                    cell.append((tgt_offset, b.offset,
                                 tgt_day.quot[x].projection * amb * src_day.quot[x].section))
                out[(x, d)] = place(fld, self.dim(x, d + shift), self.dim(x, d), cell)
                rows = out[(x, d)].rows
                for r0, c0, copy_pairs, src, tgt in moved:
                    for cs, ct, val in copy_pairs:
                        for j, i in zip(src[cs], tgt[ct]):
                            rows[r0 + i][c0 + j] = val
        return out

    def _copy_moves(self, op_cells: dict, shift: int, left: bool) -> dict:
        """(d1, d2) -> the (source copy, target copy, value) of A (x) I on that split.

        A is the matrix with op cell = A (x) I_base at every object of the
        factor's base at the factor degree of the split (`_copy_factor`);
        splits where the factor is not a carrier of copies, or its cells are
        not of that form for one A, are left out.  Copy v kg + w of a split
        is copy v of its left slice and w of its right; A moves v (left) or
        w (right), and the other index stays.
        """
        copies = self.copies[0 if left else 1]
        if copies is None:
            return {}
        base, counts = copies
        mul, one = self.field.mul, self.field.one()
        found, out = {}, {}
        for d1, d2 in self.day:
            deg = d1 if left else d2
            if d1 + d2 + shift > self.cap:
                continue
            if deg not in found:
                a = [_copy_factor(op_cells.get((y, deg)), counts.get(deg + shift, 0),
                                  counts.get(deg, 0), base.dims[y])
                     for y in self.cat.objects if base.dims[y]]
                found[deg] = [(key, s) for key, v in a[0].items() if (s := mul(one, v))] \
                    if a and None not in a and all(m == a[0] for m in a) else None
            if found[deg] is None:
                continue
            kf, kg = _count(self.copies[0], d1), _count(self.copies[1], d2)
            if left:
                out[(d1, d2)] = [(vs * kg + w, vt * kg + w, val)
                                 for (vt, vs), val in found[deg] for w in range(kg)]
            else:
                kg_t = _count(self.copies[1], d2 + shift)
                out[(d1, d2)] = [(v * kg + ws, v * kg_t + wt, val)
                                 for (wt, ws), val in found[deg] for v in range(kf)]
        return out

    def induced_map_cells(self, target: GradedCarrier, family) -> dict:
        """Descend a bilinear family degreewise: returns (x, d) -> Matrix.

        family(y, d1, z, d2) is the cell L(y)_{d1} (x) R(z)_{d2} ->
        target(y<>z)_{d1+d2}, the signature of `Monoid.pairing_cell`,
        `Module.left_cell` and `Module.right_cell`.  Each degree split (d1, d2)
        descends once through its Day tensor (`DayTensor.induced_map`), which
        raises StructuralError unless the family is natural there.  Cells
        whose degree exceeds the target cap are omitted.
        """
        objs = self.cat.objects
        out = {}
        splits = {}
        for d in range(min(self.cap, target.cap) + 1):
            for x in objs:
                cell = []
                for b in self.layout[(x, d)]:
                    if (b.d1, b.d2) not in splits:
                        splits[(b.d1, b.d2)] = self.day[(b.d1, b.d2)].induced_map(
                            target.slice_rep(b.d1 + b.d2),
                            {(y, z): family(y, b.d1, z, b.d2) for y in objs for z in objs})
                    cell.append((0, b.offset, splits[(b.d1, b.d2)][x]))
                out[(x, d)] = place(self.field, target.dim(x, d), self.dim(x, d), cell)
        return out
