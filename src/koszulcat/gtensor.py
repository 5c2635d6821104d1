"""Degreewise tensor product of graded carriers.

A cell (x, d) of L (x) R is the direct sum over d1 + d2 = d of the Day
convolution of the degree slices, blocks ordered by ascending d1.  On the
trivial backend every Day quotient is the identity, so the cells reduce to
plain Kronecker products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import day_tensor
from .matrix import Matrix
from .monoid import GradedCarrier


@dataclass
class TensorBlock:
    d1: int
    d2: int
    dim: int
    offset: int


class GradedTensor:
    __slots__ = ("left", "right", "cat", "field", "cap", "day", "layout", "dims")

    def __init__(self, left: GradedCarrier, right: GradedCarrier, cap=None):
        self.left = left
        self.right = right
        self.cat = left.cat
        self.field = left.field
        if cap is None:
            # an untruncated carrier is genuinely zero above its cap, so only
            # truncated factors limit the certified window of the tensor
            cap = left.cap + right.cap
            if left.truncated:
                cap = min(cap, left.cap)
            if right.truncated:
                cap = min(cap, right.cap)
        self.cap = cap
        self.day = {}
        for d1 in range(self.cap + 1):
            for d2 in range(self.cap + 1 - d1):
                self.day[(d1, d2)] = day_tensor(self.cat, left.slice_rep(d1),
                                                right.slice_rep(d2))
        self.layout = {}
        self.dims = {}
        for d in range(self.cap + 1):
            for x in self.cat.objects:
                blocks = []
                off = 0
                for d1 in range(d + 1):
                    dim = self.day[(d1, d - d1)].rep.dims[x]
                    blocks.append(TensorBlock(d1, d - d1, dim, off))
                    off += dim
                self.layout[(x, d)] = blocks
                self.dims[(x, d)] = off

    def dim(self, x, d) -> int:
        return self.dims.get((x, d), 0)

    def block(self, x, d, d1) -> TensorBlock:
        for b in self.layout[(x, d)]:
            if b.d1 == d1:
                return b
        raise KeyError((x, d, d1))

    def pure_cell_vector(self, tgt_obj, d1, d2, y, z, vec_l, vec_r) -> list:
        """Embed a pure tensor v (x) w in L(y)_{d1} (x) R(z)_{d2} into cell (y<>z, d).

        Uses the identity morphism of y<>z in the Day hom factor.
        """
        cat, field = self.cat, self.field
        d = d1 + d2
        dt = self.day[(d1, d2)]
        amb = [field.zero()] * dt.ambient_dim(tgt_obj)
        ident = cat.identity_mor(cat.dobj(y, z))
        for h_idx, hc in ident.coeffs.items():
            for a_idx, va in enumerate(vec_l):
                if not va:
                    continue
                for b_idx, vb in enumerate(vec_r):
                    if not vb:
                        continue
                    amb[dt.ambient_index(tgt_obj, y, z, h_idx, a_idx, b_idx)] = \
                        field.mul(hc, field.mul(va, vb))
        proj = dt.quot[tgt_obj].projection
        small = proj.apply(amb)
        out = [field.zero()] * self.dim(tgt_obj, d)
        blk = self.block(tgt_obj, d, d1)
        for i, v in enumerate(small):
            out[blk.offset + i] = v
        return out

    def map_factor(self, op_cells: dict, shift: int, factor: str) -> dict:
        """Apply a natural degree-raising family to one tensor factor.

        op_cells maps (obj, deg) to a matrix raising the factor degree by
        `shift`; returns cell blocks (x, d) -> Matrix into (x, d + shift) of
        this tensor, which is right when the factor carrier is closed under
        the shift.  Naturality of the family is what makes the ambient map
        descend through the Day quotients.
        """
        fld = self.field
        out = {}
        for d in range(self.cap + 1 - shift):
            for x in self.cat.objects:
                mat = Matrix.zeros(fld, self.dim(x, d + shift), self.dim(x, d))
                for b in self.layout[(x, d)]:
                    if factor == "left":
                        tb_d1 = b.d1 + shift
                        tb_d2 = b.d2
                    else:
                        tb_d1 = b.d1
                        tb_d2 = b.d2 + shift
                    tb = self.block(x, d + shift, tb_d1)
                    src_day = self.day[(b.d1, b.d2)]
                    tgt_day = self.day[(tb_d1, tb_d2)]
                    amb = Matrix.zeros(fld, tgt_day.quot[x].ambient,
                                       src_day.quot[x].ambient)
                    for s in src_day.layout[x]:
                        ts = tgt_day.summand(x, s.y, s.z)
                        op = op_cells.get((s.y, b.d1) if factor == "left" else (s.z, b.d2))
                        if op is None or s.size == 0 or ts.size == 0:
                            continue
                        for h_idx in range(s.hom_dim):
                            if factor == "left":
                                for a_idx in range(s.dim_f):
                                    for ap_idx, v in enumerate(op.column(a_idx)):
                                        if not v:
                                            continue
                                        for b_idx in range(s.dim_g):
                                            r = ts.offset + (h_idx * ts.dim_f + ap_idx) \
                                                * ts.dim_g + b_idx
                                            c = s.offset + (h_idx * s.dim_f + a_idx) \
                                                * s.dim_g + b_idx
                                            amb.rows[r][c] = v
                            else:
                                for a_idx in range(s.dim_f):
                                    for b_idx in range(s.dim_g):
                                        for bp_idx, v in enumerate(op.column(b_idx)):
                                            if not v:
                                                continue
                                            r = ts.offset + (h_idx * ts.dim_f + a_idx) \
                                                * ts.dim_g + bp_idx
                                            c = s.offset + (h_idx * s.dim_f + a_idx) \
                                                * s.dim_g + b_idx
                                            amb.rows[r][c] = v
                    small = tgt_day.quot[x].projection * amb * src_day.quot[x].section
                    for i, row in enumerate(small.rows):
                        for j, v in row.items():
                            mat.rows[tb.offset + i][b.offset + j] = v
                out[(x, d)] = mat
        return out

    def induced_map_cells(self, target: GradedCarrier, beta_fn) -> dict:
        """Descend bilinear families degreewise: returns (x, d) -> Matrix.

        beta_fn(d1, d2) must give the family {(y, z): Matrix} into
        target(y<>z)_{d1+d2}.  Cells whose degree exceeds the target cap are
        omitted.
        """
        out = {}
        betas = {}
        for d in range(min(self.cap, target.cap) + 1):
            for x in self.cat.objects:
                mat = Matrix.zeros(self.field, target.dim(x, d), self.dim(x, d))
                for b in self.layout[(x, d)]:
                    if (b.d1, b.d2) not in betas:
                        betas[(b.d1, b.d2)] = self.day[(b.d1, b.d2)].induced_map(
                            target.slice_rep(b.d1 + b.d2), beta_fn(b.d1, b.d2))
                    blk = betas[(b.d1, b.d2)][x]
                    for i, row in enumerate(blk.rows):
                        for j, v in row.items():
                            mat.rows[i][b.offset + j] = v
                out[(x, d)] = mat
        return out
