"""Polynomial monoids: graded carriers of monomial-indexed copies of a base.

Monomials of a fixed total degree are ordered graded-lexicographically
(exponent tuples descending), and a cell basis lists monomial blocks with the
base coordinates fastest: u a sits at index index(u) * dim + index(a).
Variables all have degree one; the base sits in degree zero.  Products that
would exceed the cap are discarded and the carrier is flagged truncated.

Where the product of two monomials goes is read from one table per
(n1, d1, n2, d2, combine), `monomial_product_table`, built on first use.
`monomial_block_product` builds every map u a (x) v b |-> combine(u, v)
inner(a (x) b) from it: the pairing (exponents add, inner is the base
pairing) and the monomial layer of the change of variables in
`koszulcat.hochschild` (inner is 1x1).  The merge map of `merge_variables`
(exponents concatenate) is placed from the same table, with the witnessed
pure-tensor map descended once on the base Day tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import IsoFailureError, PreconditionError, StructuralError
from .category import copy_coordinates, day_tensor
from .gtensor import block_layout, tensor_cap
from .matrix import Matrix, rank
from .monoid import Element, GradedCarrier, Monoid, is_central, morphism_law


@lru_cache(maxsize=None)
def multi_indices(n: int, d: int) -> tuple:
    """Exponent tuples of length n with total degree d, graded-lex order."""
    if n == 0:
        return ((),) if d == 0 else ()
    if n == 1:
        return ((d,),)
    out = []
    for first in range(d, -1, -1):
        for rest in multi_indices(n - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def mono_index(n: int, d: int) -> dict:
    return {m: i for i, m in enumerate(multi_indices(n, d))}


@lru_cache(maxsize=None)
def monomial_product_table(n1: int, d1: int, n2: int, d2: int, combine: str) -> tuple:
    """(#target monomials, t): t[i1][i2] indexes combine(u, v) in its degree.

    u and v are the i1-th of multi_indices(n1, d1) and the i2-th of
    multi_indices(n2, d2).  combine "add" adds exponents (n1 == n2, so the
    target has n1 variables); "concat" concatenates them (n1 + n2 variables).
    Either way the target degree is d1 + d2.  Built on first use, shared by
    every object pair and monoid; importing the package builds none.
    """
    if combine == "add":
        tgt, op = mono_index(n1, d1 + d2), add_exponents
    else:
        tgt, op = mono_index(n1 + n2, d1 + d2), tuple.__add__
    mons2 = multi_indices(n2, d2)
    return len(tgt), tuple(tuple(tgt[op(u, v)] for v in mons2) for u in multi_indices(n1, d1))


def monomial_block_product(n1: int, d1: int, n2: int, d2: int, combine: str, inner: Matrix,
                           dim1: int, dim2: int) -> Matrix:
    """The matrix of u a (x) v b |-> combine(u, v) inner(a (x) b) on monomial-block bases.

    The source is (degree-d1 monomials in n1 variables, blocks of dim1 base
    coordinates) (x) (degree-d2 monomials in n2 variables, blocks of dim2),
    Kronecker order; the target is the monomial blocks of degree d1 + d2,
    each of inner.nrows coordinates, placed by `monomial_product_table`;
    inner maps F^dim1 (x) F^dim2.  Built entry by entry, in one pass.
    """
    ntgt, table = monomial_product_table(n1, d1, n2, d2, combine)
    dt = inner.nrows
    width2 = len(multi_indices(n2, d2)) * dim2
    entries = []  # (target row, source column offset within a block pair, value)
    for r, row in enumerate(inner.rows):
        for c, val in row.items():
            p, q = divmod(c, dim2)
            entries.append((r, p * width2 + q, val))
    rows = [dict() for _ in range(ntgt * dt)]
    for i1, targets in enumerate(table):
        c1 = i1 * dim1 * width2
        for i2, t in enumerate(targets):
            t *= dt
            c0 = c1 + i2 * dim2
            for r, c, val in entries:
                rows[t + r][c0 + c] = val
    return Matrix(inner.field, len(rows), len(table) * dim1 * width2, rows)


def add_exponents(u: tuple, v: tuple) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def mono_str(m: tuple, var_names) -> str:
    parts = []
    for e, v in zip(m, var_names):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append("%s^%d" % (v, e))
    return "*".join(parts)


def default_var_names(n: int, letter: str = "t") -> tuple:
    return (letter,) if n == 1 else tuple("%s%d" % (letter, i + 1) for i in range(n))


@dataclass
class PolyInfo:
    base: Monoid
    var_names: tuple

    @property
    def nvars(self) -> int:
        return len(self.var_names)


def polynomial_monoid(a: Monoid, n: int, cap: int, var_names=None) -> Monoid:
    """The free polynomial monoid on n degree-one variables over a.

    The degree-d cell at x has dimension dim A(x) * #monomials(n, d); the
    pairing is the convolution extension of the base pairing.
    """
    if n == 0:
        return a
    if a.cap != 0:
        raise PreconditionError("polynomial base must be concentrated in degree 0")
    if cap < 0:
        raise PreconditionError("cap must be nonnegative")
    cat, field = a.cat, a.field
    names = _checked_names(n, var_names or default_var_names(n))

    dims = {}
    for d in range(cap + 1):
        count = len(multi_indices(n, d))
        for x in cat.objects:
            dims[(x, d)] = count * a.carrier.dim(x, 0)

    actions = {}
    for key in cat.all_basis_mors():
        base_act = a.carrier.action_matrix(key, 0)
        for d in range(cap + 1):
            mons = multi_indices(n, d)
            actions[(key, d)] = Matrix.identity(field, len(mons)).kron(base_act)

    carrier = GradedCarrier(cat, cap, True, dims, actions, _basis_names(a, n, cap, names))
    carrier.copies = (a.carrier.slice_rep(0),
                      {d: len(multi_indices(n, d)) for d in range(cap + 1)})

    pairing = {}
    for d1 in range(cap + 1):
        for d2 in range(cap + 1 - d1):
            for x in cat.objects:
                for y in cat.objects:
                    pairing[(x, d1, y, d2)] = monomial_block_product(
                        n, d1, n, d2, "add", a.pairing_cell(x, 0, y, 0),
                        a.carrier.dim(x, 0), a.carrier.dim(y, 0))
    return _polynomial(a, carrier, pairing, names)


def rename_variables(g: Monoid, var_names) -> Monoid:
    """The polynomial monoid g with its variables renamed.

    Equal to `polynomial_monoid` on g's base, variable count and cap under
    the new names, without building it again: the result shares g's carrier
    dims, actions and copies and its pairing cells.  Its basis names, name,
    `poly_info` and central memo are its own.
    """
    info = g.poly_info
    if info is None:
        raise PreconditionError("not a polynomial monoid")
    names = _checked_names(info.nvars, var_names)
    car = g.carrier
    carrier = GradedCarrier(car.cat, car.cap, car.truncated, car.dims, car.actions,
                            _basis_names(info.base, info.nvars, car.cap, names))
    carrier.copies = car.copies
    return _polynomial(info.base, carrier, dict(g.pairing), names)


def _checked_names(n: int, var_names) -> tuple:
    names = tuple(var_names)
    if len(names) != n:
        raise StructuralError("expected %d variable names, got %d" % (n, len(names)))
    return names


def _basis_names(a: Monoid, n: int, cap: int, names: tuple) -> dict:
    """Per cell, monomial-major: the base name, the monomial, or monomial*base name."""
    out = {}
    for d in range(cap + 1):
        mons = [mono_str(m, names) for m in multi_indices(n, d)]
        for x in a.cat.objects:
            one = a.carrier.dim(x, 0) == 1
            out[(x, d)] = tuple(bn if not ms else ms if one else "%s*%s" % (ms, bn)
                                for ms in mons for bn in a.carrier.names(x, 0))
    return out


def _polynomial(a: Monoid, carrier: GradedCarrier, pairing: dict, names: tuple) -> Monoid:
    return Monoid(carrier, pairing, a.unit, name="%s[%s]" % (a.name, ",".join(names)),
                  poly_info=PolyInfo(a, names))


def variable_element(g: Monoid, i: int) -> Element:
    """The i-th variable (1-based) as a degree-one element at the unit object."""
    if g.poly_info is None:
        raise PreconditionError("not a polynomial monoid")
    n = g.poly_info.nvars
    if not 1 <= i <= n:
        raise PreconditionError("variable index %d out of range 1..%d" % (i, n))
    if g.cap < 1:
        raise PreconditionError("cap too small to contain the variables")
    cat, field = g.cat, g.field
    expo = tuple(1 if k == i - 1 else 0 for k in range(n))
    # the monomial t_i times the unit of the base
    mono = Matrix.from_entries(field, n, 1, {(mono_index(n, 1)[expo], 0): field.one()})
    coords = mono.kron(Matrix.from_columns(field, len(g.unit), [g.unit])).column(0)
    elt = Element(cat.unit, 1, coords)
    if not is_central(g, elt):
        raise StructuralError("variable %d is not central; pairing data is inconsistent" % i)
    return elt


def element_from_name(g: Monoid, name: str) -> Element:
    """Resolve a variable name, a basis name, or a difference of such names.

    An exact variable or basis name wins, even one containing '-'; any other
    name is split at every '-' and its parts subtracted from left to right,
    so 'x-y-z' is x - y - z.
    """
    var_names = g.poly_info.var_names if g.poly_info is not None else ()
    exact = "-" not in name or name in var_names or any(
        name in g.carrier.names(*cell) for cell in g.carrier.cells())
    parts = [name] if exact else [part.strip() for part in name.split("-")]
    first, *rest = [variable_element(g, var_names.index(p) + 1) if p in var_names
                    else g.basis_element(p) for p in parts]
    coords = first.coords
    for b in rest:
        if (first.obj, first.degree) != (b.obj, b.degree):
            raise StructuralError("difference %r mixes cells" % name)
        coords = tuple(map(g.field.sub, coords, b.coords))
    return Element(first.obj, first.degree, coords)


@dataclass
class MergeResult:
    monoid: Monoid
    phi: dict          # (obj, deg) -> Matrix from (C_n (x) D_m)(obj)_deg
    unit_preserved: bool
    hom_checked: bool
    hom_ok: bool


def merge_variables(c: Monoid, d: Monoid, e_base: Monoid, witness: dict) -> MergeResult:
    """Realize C[u] (x) D[v] as E[u, v] along a base isomorphism witness.

    witness[x] is the matrix of (C_base (x) D_base)(x) -> E(x) on Day
    coordinates of the degree-0 slices.  The identification Phi sends the
    monomial block pair (u^i, v^j) to the block u^i v^j through the witness.
    The witnessed pure-tensor map descends once, on the base Day tensor
    (`base_merge`); every split of C[u] (x) D[v] is copies of that Day
    tensor, one per monomial pair, so Phi places the descended map per pair
    (`_place_merge`) in `GradedTensor`'s window and layout, without the
    tensor.  Phi is verified invertible degreewise and unit-preserving; on
    the trivial backend, multiplicative once per pair of degrees as well.
    """
    info_c = c.poly_info
    info_d = d.poly_info
    n = info_c.nvars if info_c else 0
    m = info_d.nvars if info_d else 0
    cat = c.cat

    cap = tensor_cap(c.carrier, d.carrier)
    (base_c, kc), (base_d, kd) = (_merge_copies(car, cap) for car in (c.carrier, d.carrier))
    day0 = day_tensor(cat, base_c, base_d)
    layout, dims = block_layout(cat.objects, cap, lambda d1, d2, x:
                                kc.get(d1, 0) * kd.get(d2, 0) * day0.rep.dims[x])
    base_phi = base_merge(day0, e_base, witness)
    names = (info_c.var_names if info_c else ()) + (info_d.var_names if info_d else ())
    merged = polynomial_monoid(e_base, n + m, cap, var_names=names) if n + m else e_base
    phi = _place_merge(day0, kc, kd, layout, merged.carrier, base_phi, n, m)
    for (x, deg), mat in sorted(phi.items()):
        if mat.nrows != mat.ncols or (mat.nrows and rank(mat) != mat.nrows):
            raise IsoFailureError("Phi fails to be invertible at (%s, %d)" % (x, deg))

    # identity of the tensor maps to the identity of the merged monoid; the
    # degree-0 cell is the single block (0, 0), one copy of day0 at offset 0
    u, mul = cat.unit, cat.field.mul
    unit_tensor = day0.pure_map(u, u, u, cat.identity_mor(u)).apply(
        [mul(a, b) for a in c.unit for b in d.unit])
    unit_preserved = phi[(u, 0)].apply(unit_tensor) == tuple(merged.unit)

    hom_checked = cat.is_trivial
    hom_ok = True
    if hom_checked:
        hom_ok = _check_phi_multiplicative(c, d, merged, layout, dims, phi)
    return MergeResult(merged, phi, unit_preserved, hom_checked, hom_ok)


def _merge_copies(car: GradedCarrier, cap: int) -> tuple:
    """(degree-0 slice, copies per degree) of a merge factor: a polynomial
    carrier's `copies`, else one copy in each degree with a nonzero cell,
    which `_place_merge` refuses above degree 0."""
    return car.copies or (car.slice_rep(0), {k: 1 for k in range(cap + 1)
                                             if any(car.dim(x, k) for x in car.cat.objects)})


def base_merge(day0, e_base: Monoid, witness: dict) -> dict:
    """Phi at degree 0, per object: the witnessed pure-tensor map descended on day0.

    day0 is the Day tensor of the two degree-0 slices.  Raises
    IsoFailureError unless each witness[x] is an invertible matrix of the
    shape (E(x), day0 at x), and StructuralError unless the witnessed
    pure-tensor maps descend (`DayTensor.induced_map`).
    """
    cat = e_base.cat
    for x in cat.objects:
        w = witness[x]
        if w.ncols != day0.rep.dims[x] or w.nrows != e_base.carrier.dim(x, 0):
            raise IsoFailureError("witness at %s has the wrong shape" % x)
        if w.nrows != w.ncols or rank(w) != w.nrows:
            raise IsoFailureError("witness at %s is not invertible" % x)
    pure = {(y, z): witness[yz] * day0.pure_map(yz, y, z, cat.identity_mor(yz))
            for y in cat.objects for z in cat.objects for yz in [cat.dobj(y, z)]}
    return day0.induced_map(e_base.carrier.slice_rep(0), pure)


def _place_merge(day0, kc, kd, layout, target: GradedCarrier, base_phi: dict, n, m) -> dict:
    """Phi per cell (x, d): copy (u^i, v^j) of base_phi[x] at rows of block u^i v^j.

    Block (d1, d2) of a cell is kc[d1] kd[d2] copies of the base Day tensor
    day0, one per pair of monomials of degrees d1 (n variables) and d2 (m
    variables), pairs in Kronecker order; `copy_coordinates` gives the
    columns of each copy and `monomial_product_table` the merged monomial,
    whose block of target rows holds E(x) coordinates.  A block whose copies
    are not one per monomial pair, as of a nonzero cell above degree 0 of a
    factor that is not polynomial (`_merge_copies`), is refused.
    """
    out = {}
    for (x, d), blocks in layout.items():
        if d > target.cap:
            continue
        bp = base_phi[x]
        dim_e = bp.nrows
        rows = [dict() for _ in range(target.dim(x, d))]
        for b in blocks:
            if not b.dim:
                continue
            _, table = monomial_product_table(n, b.d1, m, b.d2, "concat")
            targets = [t for row in table for t in row]
            coords = copy_coordinates(day0, x, kc[b.d1], kd[b.d2])
            if len(coords) != len(targets):
                raise StructuralError("merge factors are not polynomial over their bases "
                                      "at degrees (%d, %d)" % (b.d1, b.d2))
            for t, at in zip(targets, coords):
                t *= dim_e
                for r, row in enumerate(bp.rows):
                    tgt_row = rows[t + r]
                    for j, v in row.items():
                        tgt_row[b.offset + at[j]] = v
        out[(x, d)] = Matrix(target.field, len(rows), sum(b.dim for b in blocks), rows)
    return out


def _check_phi_multiplicative(c: Monoid, d: Monoid, merged: Monoid, layout: dict,
                              dims: dict, phi: dict) -> bool:
    """Trivial backend: Phi of a product equals the product of the Phi images.

    `morphism_law` once per pair of tensor cells (k1, k2) with k1 + k2 <= cap.
    The source product of the cells is (mu_C (x) mu_D) after the middle swap
    of the Kronecker factors, placed per pair of blocks C_{a1} (x) D_{a2} of
    cell k1 and C_{b1} (x) D_{b2} of cell k2: at the rows of block
    (a1 + b1, a2 + b2) and the Kronecker columns of the two blocks; the
    braiding contributes no twist on a single object.  Column block (a, b)
    of that law is the law of the two blocks alone, so the verdict is the
    conjunction of the per-block laws.
    """
    u, cap = c.cat.unit, max(k for _, k in dims)
    offset = {(b.d1, b.d2): b.offset for k in range(cap + 1) for b in layout[(u, k)]}
    blocks = {k: [b for b in layout[(u, k)] if b.dim] for k in range(cap + 1)}

    def mu_tensor(k1, k2):
        width = dims[(u, k2)]
        rows = [dict() for _ in range(dims[(u, k1 + k2)])]
        for a in blocks[k1]:
            dc1, dd1 = c.carrier.dim(u, a.d1), d.carrier.dim(u, a.d2)
            for b in blocks[k2]:
                dc2, dd2 = c.carrier.dim(u, b.d1), d.carrier.dim(u, b.d2)
                # column (p1 p2 q1 q2) of mu_C (x) mu_D is the cell column
                # of (p1 q1) in block a and (p2 q2) in block b
                cols = [(a.offset + p1 * dd1 + q1) * width + b.offset + p2 * dd2 + q2
                        for p1 in range(dc1) for p2 in range(dc2)
                        for q1 in range(dd1) for q2 in range(dd2)]
                top = offset[(a.d1 + b.d1, a.d2 + b.d2)]
                prod = c.pairing_cell(u, a.d1, u, b.d1).kron(d.pairing_cell(u, a.d2, u, b.d2))
                for r, row in enumerate(prod.rows):
                    tgt = rows[top + r]
                    for j, v in row.items():
                        tgt[cols[j]] = v
        return Matrix(c.field, len(rows), dims[(u, k1)] * width, rows)

    return morphism_law({k: phi[(u, k)] for k in range(cap + 1)}, mu_tensor,
                        lambda k1, k2: merged.pairing_cell(u, k1, u, k2),
                        [(k1, k2, k1 + k2) for k1 in range(cap + 1) for k2 in range(cap + 1 - k1)])
