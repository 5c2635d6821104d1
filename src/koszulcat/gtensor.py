"""Degreewise tensor product of graded carriers.

A cell (x, d) of L (x) R is the direct sum over d1 + d2 = d of the Day
convolution (L_{d1} (x) R_{d2})(x) of the degree slices: layout[(x, d)][d1]
is the block of degree split (d1, d - d1), blocks in ascending d1.  Inside a
block the coordinates are those of the Day quotient (see `DayTensor`).  On
the trivial backend every Day quotient is the identity, so a block is the
plain Kronecker product L_{d1} (x) R_{d2}, left factor slowest.  Maps are
assembled from Kronecker products placed at these offsets (`matrix.place`).
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
    if car.copies:
        base, counts = car.copies
        return base, counts.get(d, 0)
    return car.slice_rep(d), 1


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
    __slots__ = ("cat", "field", "cap", "day", "layout", "dims")

    def __init__(self, left: GradedCarrier, right: GradedCarrier, cap=None):
        self.cat = left.cat
        self.field = left.field
        self.cap = tensor_cap(left, right) if cap is None else cap
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
        """
        fld = self.field
        left = factor == "left"
        acts = {}  # (d1, d2, y, z) -> op (x) I or I (x) op, the same at every x
        out = {}
        for d in range(self.cap + 1 - shift):
            for x in self.cat.objects:
                cell = []
                for b in self.layout[(x, d)]:
                    tb_d1 = b.d1 + shift if left else b.d1
                    src_day = self.day[(b.d1, b.d2)]
                    tgt_day = self.day[(tb_d1, d + shift - tb_d1)]
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
                    cell.append((self.layout[(x, d + shift)][tb_d1].offset, b.offset,
                                 tgt_day.quot[x].projection * amb * src_day.quot[x].section))
                out[(x, d)] = place(fld, self.dim(x, d + shift), self.dim(x, d), cell)
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
