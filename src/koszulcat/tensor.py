"""Tensor product over a monoid and the relative syzygy resolution.

The tensor over a monoid is the pointwise cokernel of the action-difference
map: each cell of the plain tensor is quotiented by the span of the classes
[h; m.a, n] - [h; m, a.n], over basis triples and the basis arrows h of
hom(y<>y2<>z, x), placed in the Day presentation, so one code path serves
both backends.  The syzygy builder realizes the resolution terms as plain
tensors of the polynomial monoid with the module, differentials induced by
one-sided variable multiplications, and certifies exactness and pointwise
splitness; the terms are induced by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .category import unit_action
from .complexes import ChainComplex, GradedMap, Term, certify_split
from .errors import IsoFailureError, PreconditionError, StabilityError, StructuralError, WindowError
from .gtensor import GradedTensor
from .hochschild import EnvelopingData
from .koszul import koszul_faces, subsets_lex, summand_map
from .matrix import Matrix, Subspace, descend, hstack, place, quotient, rank
from .monoid import Module, Monoid, fix_slot, mult_operator, regular_bimodule
from .poly import variable_element
from .report import GradedReport


@dataclass
class OuterStructure:
    """Action of a second monoid on one side of a module, for bimodule data."""

    monoid: Monoid
    cells: dict  # as m_outer: D (x) M -> M cells; as n_outer: M (x) E -> M cells


@dataclass
class CoequalizerPresentation:
    monoid: Monoid
    left_module: Module
    right_module: Module
    gt: GradedTensor
    quots: dict        # (obj, deg) -> QuotientPresentation of the tensor cell
    outer_left: Optional[dict] = None   # induced outer action cells on the quotient
    outer_right: Optional[dict] = None

    def dim(self, x, d) -> int:
        return self.quots[(x, d)].dim

    def dims(self) -> dict:
        return {cell: q.dim for cell, q in sorted(self.quots.items())}


def _delta_relations(a: Monoid, m: Module, n: Module, gt: GradedTensor, x, d) -> Matrix:
    """Columns spanning the action-difference image inside one tensor cell.

    The relations [h; m.a, n] - [h; m, a.n], one per basis arrow h of
    hom(y<>y2<>z, x) (strict associativity makes it both summands' hom
    space), span those of every other arrow, as they are linear in h.  Per
    degree split, I_hom (x) sigma_r (x) I_n lands in summand (y<>y2, z) of
    Day block dm + da and -(I_hom (x) I_m (x) sigma_l) in summand (y, y2<>z)
    of Day block dm; each Day block is projected once.
    """
    cat, field = a.cat, a.field
    cell = gt.layout[(x, d)]
    blocks = []
    ncols = 0
    for dm in range(d + 1):
        for da in range(d + 1 - dm):
            dn = d - dm - da
            day1, day2 = gt.day[(dm + da, dn)], gt.day[(dm, da + dn)]
            amb1, amb2, col0 = [], [], ncols
            for y in cat.objects:
                dim_m = m.carrier.dim(y, dm)
                for y2 in cat.objects:
                    if not dim_m or not a.carrier.dim(y2, da):
                        continue
                    sig_r = m.right_cell(y, dm, y2, da)
                    for z in cat.objects:
                        dim_n = n.carrier.dim(z, dn)
                        s1 = day1.layout[x][(cat.dobj(y, y2), z)]
                        if not dim_n or not s1.hom_dim:
                            continue
                        s2 = day2.layout[x][(y, cat.dobj(y2, z))]
                        act1 = sig_r.kron(Matrix.identity(field, dim_n))
                        amb1.append(s1.block(act1, ncols - col0))
                        amb2.append(s2.block(Matrix.identity(field, dim_m).kron(
                            n.left_cell(y2, da, z, dn)), ncols - col0))
                        ncols += s1.hom_dim * act1.ncols
            if ncols > col0:
                q1, q2 = day1.quot[x], day2.quot[x]
                blocks.append((cell[dm + da].offset, col0,
                               q1.projection * place(field, q1.ambient, ncols - col0, amb1)))
                blocks.append((cell[dm].offset, col0,
                               -(q2.projection * place(field, q2.ambient, ncols - col0, amb2))))
    return place(field, gt.dim(x, d), ncols, blocks)


def tensor_over_monoid(m: Module, n: Module,
                       m_outer: Optional[OuterStructure] = None,
                       n_outer: Optional[OuterStructure] = None) -> CoequalizerPresentation:
    """Cokernel of the action difference, with optional outer bimodule structure."""
    a = m.monoid
    if not n.is_over(a):
        raise StructuralError("modules live over different monoids")
    if m.right is None:
        raise StructuralError("left factor must carry a right action")
    if n.left is None:
        raise StructuralError("right factor must carry a left action")
    gt = GradedTensor(m.carrier, n.carrier)
    quots = {}
    for d in range(gt.cap + 1):
        for x in a.cat.objects:
            sub = Subspace.from_matrix_columns(_delta_relations(a, m, n, gt, x, d))
            quots[(x, d)] = quotient(gt.dim(x, d), sub)
    coeq = CoequalizerPresentation(a, m, n, gt, quots)
    if m_outer is not None:
        coeq.outer_left = _induced_outer(coeq, m_outer, on_left_factor=True)
    if n_outer is not None:
        coeq.outer_right = _induced_outer(coeq, n_outer, on_left_factor=False)
    return coeq


def _induced_outer(coeq: CoequalizerPresentation, outer: OuterStructure,
                   on_left_factor: bool) -> dict:
    """Descend an outer one-sided action to the coequalizer (trivial backend).

    Basis vector e_k of an outer cell of degree d2 acts on its factor as a
    family raising the degree by d2 (`fix_slot`), which
    `GradedTensor.map_factor` places on the tensor.  The raw action on
    outer (x) tensor (left) is these maps side by side; on tensor (x) outer
    (right) it is the same columns interleaved, the outer index fastest, and
    it descends along I (x) q or q (x) I, q the source's quotient (`descend`).
    Raises when the raw action fails to preserve the relation subspace, which
    would mean the supplied outer action does not commute with the inner one.
    """
    cat = coeq.monoid.cat
    if not cat.is_trivial:
        raise StructuralError("outer bimodule structure is supported on the trivial backend")
    u, gt, field = cat.unit, coeq.gt, coeq.monoid.field
    side = "left" if on_left_factor else "right"
    factor = (coeq.left_module if on_left_factor else coeq.right_module).carrier
    dcar = outer.monoid.carrier
    out = {}
    for d2 in range(min(dcar.cap, gt.cap) + 1):
        ident_o = Matrix.identity(field, dcar.dim(u, d2))
        if not ident_o.nrows:
            continue
        maps = [gt.map_factor(
            {(u, d1): fix_slot(outer.cells[(u, d2, u, d1) if on_left_factor else (u, d1, u, d2)],
                               ident_o.column(k), factor.dim(u, d1), side)
             for d1 in range(gt.cap + 1 - d2)}, d2, side) for k in range(ident_o.nrows)]
        for d in range(gt.cap + 1 - d2):
            q_src = coeq.quots[(u, d)]
            raw = hstack([mp[(u, d)] for mp in maps])
            if not on_left_factor:  # the same columns, outer index fastest
                raw = raw.select_columns([k * q_src.ambient + t for t in range(q_src.ambient)
                                          for k in range(len(maps))])
            bracket = (len(maps), 1) if on_left_factor else (1, len(maps))
            desc = descend(coeq.quots[(u, d + d2)].projection * raw, q_src, *bracket)
            if desc is None:
                raise StabilityError("outer %s action does not preserve the relations" % side)
            out[(u, d2, u, d) if on_left_factor else (u, d, u, d2)] = desc
    return out


def unit_law_maps(coeq: CoequalizerPresentation, side: str) -> dict:
    """The canonical comparison maps for tensoring with the monoid itself.

    side "left": A (x)_A N -> N induced by the left action; side "right":
    M (x)_A A -> M induced by the right action.  Raises if the induced map
    fails to be invertible at some cell.
    """
    if side == "left":
        mod, family = coeq.right_module, coeq.right_module.left_cell
    elif side == "right":
        mod, family = coeq.left_module, coeq.left_module.right_cell
    else:
        raise ValueError("side must be 'left' or 'right'")
    pre = coeq.gt.induced_map_cells(mod.carrier, family)
    out = {}
    for cell, mat in sorted(pre.items()):
        desc = descend(mat, coeq.quots[cell])
        if desc is None:
            raise StabilityError("action map does not kill the relations at %s" % (cell,))
        if desc.nrows != desc.ncols or (desc.nrows and rank(desc) != desc.nrows):
            raise IsoFailureError("unit comparison map not invertible at %s" % (cell,))
        out[cell] = desc
    return out


def module_over_identity(carrier, ident: Monoid, name="F") -> Module:
    """The canonical bimodule structure of any carrier over the unit monoid."""
    cat = carrier.cat
    left = {}
    right = {}
    for d2 in range(carrier.cap + 1):
        rep = carrier.slice_rep(d2)
        for y in cat.objects:
            for z in cat.objects:
                left[(y, 0, z, d2)] = unit_action(cat, rep, y, z, "left")
                right[(z, d2, y, 0)] = unit_action(cat, rep, z, y, "right")
    return Module(ident, carrier, left, right, name="%s-as-I-module" % name)


# -- the relative syzygy resolution ------------------------------------------------


@dataclass
class SyzygyResolution:
    complex: ChainComplex
    tensor: GradedTensor
    report: GradedReport

    @property
    def passed(self) -> bool:
        return self.report.all_passed

    @property
    def length(self) -> int:
        return len(self.complex.terms) - 1


def build_syzygy_resolution(e: EnvelopingData, m: Module) -> SyzygyResolution:
    """`syzygy_resolution` over the polynomial monoid of enveloping data."""
    return syzygy_resolution(e.a_n, m)


def syzygy_resolution(a_n: Monoid, m: Module) -> SyzygyResolution:
    """Resolve a module over the polynomial monoid by induced free terms.

    Terms above the module are plain tensors of the polynomial monoid with
    the module, in binomial multiplicities; differentials combine the two
    one-sided multiplications by each variable, and the bottom map is the
    action.  Certifies: complex, and exactness with pointwise splitting via an
    explicit homotopy.  The terms are induced, hence projective, by construction.
    The variable count and the base name are read from a_n.poly_info.
    """
    if a_n.poly_info is None:
        raise PreconditionError("not a polynomial monoid")
    n = a_n.poly_info.nvars
    field = a_n.field
    cat = a_n.cat
    if m.left is None:
        raise StructuralError("the module needs a left action")
    if not m.is_over(a_n):
        raise StructuralError("module is not over the polynomial monoid")
    cap = min(a_n.cap, m.cap)
    if cap < 1:
        raise WindowError("cap %d cannot certify any differential action" % cap)

    gt = GradedTensor(a_n.carrier, m.carrier, cap=cap)

    # each variable acts on a term as the difference of its multiplications
    # on the two tensor factors
    diff_cells = {}
    for i in range(1, n + 1):
        t_i = variable_element(a_n, i)
        op_a = mult_operator(a_n, t_i, regular_bimodule(a_n), side="left")
        op_m = mult_operator(a_n, t_i, m, side="left")
        rmap = gt.map_factor(op_m.cells, 1, "right")
        diff_cells[i] = (1, {cell: mat - rmap[cell]
                             for cell, mat in gt.map_factor(op_a.cells, 1, "left").items()})

    terms = [Term("M", dict(m.carrier.dims))] + \
        [Term.copies("K_%d(x)M" % p, gt, subsets_lex(n, p)) for p in range(n + 1)]

    diffs = [None]
    # bottom map: the action of the polynomial monoid on the module
    act_cells = gt.induced_map_cells(m.carrier, m.left_cell)
    diffs.append(GradedMap(field, terms[1], terms[0],
                           {(x, d, d): mat for (x, d), mat in act_cells.items()}))

    diffs += [summand_map(field, terms[p + 1], terms[p], koszul_faces(n, p), diff_cells)
              for p in range(1, n + 1)]

    cx = ChainComplex(cat, cap, terms, diffs)
    report = GradedReport(
        task={"op": "syzygy-resolution", "monoid": a_n.poly_info.base.name, "n": n,
              "module": m.name},
        field=field.descriptor(),
        window={"cap": cap, "truncated": True},
    )
    certify_split(report, cx, "d-compose-d-zero")
    return SyzygyResolution(cx, gt, report)
