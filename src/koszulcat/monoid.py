"""Monoids and modules given by bilinear pairings, with graded carriers.

Everything is graded by an internal degree; a classical algebra is the
degree-0 concentrated case (cap 0), while polynomial monoids truncate an
infinite graded object at a recorded cap.  Carriers store one space per
(object, degree) cell and one matrix per (basis arrow, degree); pairings and
actions are stored per (object, degree) pair of cells on Kronecker bases
(left factor slowest).

Cells iterate degree-first, then object order; witnesses always report the
lexicographically first kernel vector of the first failing cell, so failure
messages are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .category import CategoryPresentation, Representation, identity_representation
from .errors import (
    NotCentralError,
    PreconditionError,
    StabilityError,
    StructuralError,
    WrongObjectError,
)
from .field import Field
from .matrix import (
    Matrix,
    Subspace,
    descend,
    hstack,
    kernel,
    kernel_basis,
    quotient,
    rref,
    times_bracket,
)
from .report import ValidationReport


def fix_slot(cell: Matrix, vec: Sequence, dim: int, side: str) -> Matrix:
    """b -> cell(vec (x) b) ("left") or cell(b (x) vec) ("right"), cell on Kronecker columns.

    This is cell * (vec (x) I_dim) or cell * (I_dim (x) vec), vec one column.
    """
    col = Matrix(cell.field, len(vec), 1, [{0: v} if v else {} for v in vec])
    return times_bracket(cell, col, 1, dim) if side == "left" else times_bracket(cell, col, dim, 1)


class GradedCarrier:
    """Graded functor data: a space per (object, degree) cell up to a cap."""

    __slots__ = ("cat", "field", "cap", "truncated", "dims", "actions", "basis_names", "copies")

    def __init__(self, cat: CategoryPresentation, cap: int, truncated: bool,
                 dims: dict, actions: dict, basis_names: Optional[dict] = None):
        self.cat = cat
        self.field = cat.field
        self.cap = cap
        self.truncated = truncated
        self.dims = dict(dims)              # (obj, deg) -> int
        self.actions = dict(actions)        # ((x, y, i), deg) -> Matrix
        self.basis_names = basis_names or {}
        self.copies = None  # polynomial: (base slice, {deg: #monomials}), see `poly`

    def dim(self, obj, deg) -> int:
        return self.dims.get((obj, deg), 0)

    def cells(self):
        for d in range(self.cap + 1):
            for x in self.cat.objects:
                yield (x, d)

    def names(self, obj, deg):
        key = (obj, deg)
        if key in self.basis_names:
            return self.basis_names[key]
        return tuple("%s[%s,%d]#%d" % ("b", obj, deg, i) for i in range(self.dim(obj, deg)))

    def action_matrix(self, key, deg) -> Matrix:
        m = self.actions.get((key, deg))
        if m is None:
            x, y, _ = key
            m = Matrix.zeros(self.field, self.dim(y, deg), self.dim(x, deg))
        return m

    def slice_rep(self, deg: int) -> Representation:
        dims = {x: self.dim(x, deg) for x in self.cat.objects}
        actions = {}
        for (x, y, i) in self.cat.all_basis_mors():
            key = ((x, y, i), deg)
            if key in self.actions:
                actions[(x, y, i)] = self.actions[key]
            else:
                actions[(x, y, i)] = Matrix.zeros(self.field, dims[y], dims[x])
        return Representation(self.cat, dims, actions, name="F_%d" % deg)


@dataclass(frozen=True)
class Element:
    """Homogeneous element: object, internal degree, coordinate tuple."""

    obj: str
    degree: int
    coords: tuple

    def is_zero(self) -> bool:
        return not any(self.coords)


class Monoid:
    __slots__ = ("carrier", "pairing", "unit", "name", "poly_info", "central_memo", "copy_memo")

    def __init__(self, carrier: GradedCarrier, pairing: dict, unit: tuple,
                 name="A", poly_info=None):
        self.carrier = carrier
        self.pairing = pairing  # (x, d1, y, d2) -> Matrix into (x<>y, d1+d2)
        self.unit = tuple(unit)
        self.name = name
        self.poly_info = poly_info  # (base Monoid, var names) for polynomial monoids
        self.central_memo = {}      # (obj, deg) -> commutant cell, see `commutant`
        self.copy_memo = {}         # (side, obj, deg) -> (action cell, verdict), see `_times`
        u = carrier.cat.unit
        if len(unit) != carrier.dim(u, 0):
            raise StructuralError("unit has %d coordinates, expected %d"
                                  % (len(unit), carrier.dim(u, 0)))

    @property
    def cat(self) -> CategoryPresentation:
        return self.carrier.cat

    @property
    def field(self) -> Field:
        return self.carrier.field

    @property
    def cap(self) -> int:
        return self.carrier.cap

    def pairing_cell(self, x, d1, y, d2) -> Matrix:
        try:
            return self.pairing[(x, d1, y, d2)]
        except KeyError:
            raise StructuralError("missing pairing cell (%s,%d,%s,%d)" % (x, d1, y, d2))

    def unit_element(self) -> Element:
        return Element(self.cat.unit, 0, self.unit)

    def basis_element(self, name: str) -> Element:
        """Look up a basis vector of the carrier by name."""
        for (obj, deg) in self.carrier.cells():
            names = self.carrier.names(obj, deg)
            if name in names:
                i = names.index(name)
                coords = [self.field.zero()] * self.carrier.dim(obj, deg)
                coords[i] = self.field.one()
                return Element(obj, deg, tuple(coords))
        raise StructuralError("no basis element named %r in %s" % (name, self.name))

    def multiply(self, a: Element, b: Element) -> Element:
        """Product of homogeneous elements; degree adds, objects diamond."""
        tgt_deg = a.degree + b.degree
        if tgt_deg > self.cap:
            raise PreconditionError("product degree %d exceeds cap %d" % (tgt_deg, self.cap))
        mat = self.pairing_cell(a.obj, a.degree, b.obj, b.degree)
        vec = []
        for ca in a.coords:
            for cb in b.coords:
                vec.append(self.field.mul(ca, cb))
        return Element(self.cat.dobj(a.obj, b.obj), tgt_deg, mat.apply(vec))

    def __repr__(self):
        return "Monoid(%s over %s, cap %d)" % (self.name, self.cat.name, self.cap)


class Module:
    __slots__ = ("monoid", "carrier", "left", "right", "name")

    def __init__(self, monoid: Monoid, carrier: GradedCarrier,
                 left: Optional[dict], right: Optional[dict], name="M"):
        if left is None and right is None:
            raise StructuralError("module %s has neither a left nor a right action" % name)
        self.monoid = monoid
        self.carrier = carrier
        self.left = left    # (x, d1, y, d2): A(x)_{d1} (x) M(y)_{d2} -> M(x<>y)
        self.right = right  # (x, d1, y, d2): M(x)_{d1} (x) A(y)_{d2} -> M(x<>y)
        self.name = name

    @property
    def side(self) -> str:
        """Which actions the module has: "bi", "left" or "right"."""
        return "right" if self.left is None else "left" if self.right is None else "bi"

    @property
    def cat(self):
        return self.carrier.cat

    @property
    def field(self):
        return self.carrier.field

    @property
    def cap(self):
        return self.carrier.cap

    def is_over(self, a: Monoid) -> bool:
        """Whether the actions are over a: a itself, or its cell dims and pairing."""
        return self.monoid is a or (self.monoid.carrier.dims == a.carrier.dims
                                    and self.monoid.pairing == a.pairing)

    def left_cell(self, x, d1, y, d2) -> Matrix:
        if self.left is None:
            raise StructuralError("module %s has no left action" % self.name)
        return self.left[(x, d1, y, d2)]

    def right_cell(self, x, d1, y, d2) -> Matrix:
        if self.right is None:
            raise StructuralError("module %s has no right action" % self.name)
        return self.right[(x, d1, y, d2)]

    def __repr__(self):
        return "Module(%s over %s, %s)" % (self.name, self.monoid.name, self.side)


def regular_bimodule(a: Monoid) -> Module:
    """The monoid as a bimodule over itself; actions are the pairing."""
    return Module(a, a.carrier, dict(a.pairing), dict(a.pairing), name=a.name)


def degree_zero_carrier(rep: Representation, name="F") -> GradedCarrier:
    """Wrap a plain representation as a carrier concentrated in degree zero."""
    dims = {(x, 0): rep.dims[x] for x in rep.cat.objects}
    actions = {(key, 0): mat for key, mat in rep.actions.items()}
    names = {(x, 0): tuple("%s#%d" % (name, i) for i in range(rep.dims[x]))
             for x in rep.cat.objects}
    return GradedCarrier(rep.cat, 0, False, dims, actions, names)


def monoid_from_table(cat: CategoryPresentation, basis: dict, mul, unit,
                      carrier_actions=None, name="A") -> Monoid:
    """Degree-0 monoid from structure constants.

    basis: obj -> tuple of names (all names distinct across objects).
    mul: (name1, name2) -> {name3: scalar}; omitted products are zero.
    unit: {name: scalar} supported at the unit object.
    carrier_actions: optional ((x, y, i)) -> Matrix for finite backends.
    """
    field = cat.field
    dims = {}
    basis_names = {}
    where = {}
    for x in cat.objects:
        names = tuple(basis.get(x, ()))
        dims[(x, 0)] = len(names)
        basis_names[(x, 0)] = names
        for i, nm in enumerate(names):
            if nm in where:
                raise StructuralError("duplicate basis name %r" % nm)
            where[nm] = (x, i)
    actions = {}
    if carrier_actions:
        for key, m in carrier_actions.items():
            actions[(key, 0)] = m
    else:
        for (x, y, i) in cat.all_basis_mors():
            if x == y and cat.identities[x].get(i):
                actions[((x, y, i), 0)] = Matrix.identity(field, dims[(x, 0)])
            else:
                raise StructuralError("finite backend monoid needs carrier_actions")
    carrier = GradedCarrier(cat, 0, False, dims, actions, basis_names)
    pairing = {}
    for x in cat.objects:
        for y in cat.objects:
            tgt = cat.dobj(x, y)
            mat = Matrix.zeros(field, dims[(tgt, 0)], dims[(x, 0)] * dims[(y, 0)])
            for i, nx in enumerate(basis_names[(x, 0)]):
                for j, ny in enumerate(basis_names[(y, 0)]):
                    terms = mul.get((nx, ny), {})
                    for nz, c in terms.items():
                        zo, zi = where[nz]
                        if zo != tgt:
                            raise StructuralError(
                                "product %s*%s lands at %s, expected %s" % (nx, ny, zo, tgt))
                        if c:
                            mat.rows[zi][i * dims[(y, 0)] + j] = c
            pairing[(x, 0, y, 0)] = mat
    ucoords = [field.zero()] * dims[(cat.unit, 0)]
    for nm, c in unit.items():
        xo, xi = where[nm]
        if xo != cat.unit:
            raise StructuralError("unit supported away from the unit object")
        ucoords[xi] = c
    return Monoid(carrier, pairing, tuple(ucoords), name=name)


def scalar_monoid(cat: CategoryPresentation) -> Monoid:
    """The base field as a one-dimensional monoid on the trivial backend."""
    if not cat.is_trivial:
        raise PreconditionError("scalar_monoid needs the trivial backend")
    one = cat.field.one()
    return monoid_from_table(cat, {cat.unit: ("one",)},
                             {("one", "one"): {"one": one}}, {"one": one}, name="Q")


def identity_monoid(cat: CategoryPresentation) -> Monoid:
    """The unit object I = X(1, -) with its composition-induced product.

    `monoid_from_table` on the basis names of hom(1, x), distinct across
    objects, with the diamond of two basis arrows as their product; arrows
    act by postcomposition (`identity_representation`).
    """
    u = cat.unit
    basis = {x: cat.hom_basis(u, x) for x in cat.objects}
    arrows = [(x, k, name) for x, names in basis.items() for k, name in enumerate(names)]
    mul = {}
    for y, k1, n1 in arrows:
        for z, k2, n2 in arrows:
            prod = cat.diamond(cat.basis_mor(u, y, k1), cat.basis_mor(u, z, k2))
            mul[(n1, n2)] = {basis[prod.tgt][t]: c for t, c in prod.coeffs.items()}
    unit = {basis[u][i]: c for i, c in cat.identities[u].items()}
    return monoid_from_table(cat, basis, mul, unit,
                             carrier_actions=identity_representation(cat).actions, name="I")


# -- validation ---------------------------------------------------------------


def _unit_laws(rep: ValidationReport, car: GradedCarrier, unit: tuple, laws):
    """Per cell, each law's cell with the unit fixed on its side must be the identity.

    laws: (name, side, cell function), side "left" (unit (x) b) or "right".
    """
    field, u = car.field, car.cat.unit
    for (x, d) in car.cells():
        dim = car.dim(x, d)
        ident = Matrix.identity(field, dim)
        for name, side, cell in laws:
            fixed = cell(u, 0, x, d) if side == "left" else cell(x, d, u, 0)
            if fix_slot(fixed, unit, dim, side) != ident:
                rep.add(name, "(%s, %d)" % (x, d))
            rep.checked += 1


def _associativity_laws(rep: ValidationReport, car: GradedCarrier, laws):
    """Per cell triple, each law's identity between two ways to bracket a product.

    laws: (name, (carrier1, carrier2, carrier3), (outer_l, inner_l, outer_r,
    inner_r)); the identity is outer_l(x<>y, d1+d2, z, d3) (inner_l(x, d1, y,
    d2) (x) I) = outer_r(x, d1, y<>z, d2+d3) (I (x) inner_r(y, d2, z, d3)).
    A triple with an empty factor holds trivially and still counts as checked.
    """
    cat, cap = car.cat, car.cap
    for d1 in range(cap + 1):
        for d2 in range(cap + 1 - d1):
            for d3 in range(cap + 1 - d1 - d2):
                for x in cat.objects:
                    for y in cat.objects:
                        for z in cat.objects:
                            for name, (c1, c2, c3), (outer_l, inner_l, outer_r, inner_r) in laws:
                                dx, dy, dz = c1.dim(x, d1), c2.dim(y, d2), c3.dim(z, d3)
                                if 0 not in (dx, dy, dz):
                                    xy, yz = cat.dobj(x, y), cat.dobj(y, z)
                                    lhs = times_bracket(outer_l(xy, d1 + d2, z, d3),
                                                        inner_l(x, d1, y, d2), 1, dz)
                                    rhs = times_bracket(outer_r(x, d1, yz, d2 + d3),
                                                        inner_r(y, d2, z, d3), dx, 1)
                                    if lhs != rhs:
                                        rep.add(name, "cells (%s,%d)(%s,%d)(%s,%d)"
                                                % (x, d1, y, d2, z, d3))
                                rep.checked += 1


def morphism_law(f, mu_src, mu_tgt, triples) -> bool:
    """f is multiplicative: f[ab] mu_src(a, b) == mu_tgt(a, b) (f[a] (x) f[b]) per triple.

    f maps cells to matrices; mu_src(a, b) and mu_tgt(a, b) are the products
    of cells a and b on the source and target, on Kronecker columns; triples
    lists the cells (a, b, ab), ab the cell that the product of a and b lands in.
    """
    return all(f[ab] * mu_src(a, b) == mu_tgt(a, b) * f[a].kron(f[b]) for a, b, ab in triples)


def monoid_unit_laws(a: Monoid) -> ValidationReport:
    """The left and right unit laws of a on every stored cell, in cell order."""
    rep = ValidationReport("monoid %s" % a.name)
    mul = a.pairing_cell
    _unit_laws(rep, a.carrier, a.unit, [("unit-left", "left", mul), ("unit-right", "right", mul)])
    return rep


def validate_monoid(a: Monoid) -> ValidationReport:
    """Certify associativity, unit laws and naturality on all stored cells."""
    rep = monoid_unit_laws(a)
    cat, car = a.cat, a.carrier
    cap = car.cap
    mul = a.pairing_cell
    _associativity_laws(rep, car, [("associativity", (car, car, car), (mul, mul, mul, mul))])

    # naturality of the pairing against basis arrows (finite backend)
    if not cat.is_trivial:
        slices = {d: car.slice_rep(d) for d in range(cap + 1)}
        for (y, yp, i) in cat.all_basis_mors():
            phi = cat.basis_mor(y, yp, i)
            for z in cat.objects:
                for d1 in range(cap + 1):
                    for d2 in range(cap + 1 - d1):
                        dyz = car.dim(y, d1) * car.dim(z, d2)
                        if dyz == 0:
                            rep.checked += 2
                            continue
                        d = d1 + d2
                        act_phi = car.action_matrix((y, yp, i), d1)
                        big = slices[d].action(cat.diamond(phi, cat.identity_mor(z)))
                        lhs = big * a.pairing_cell(y, d1, z, d2)
                        rhs = times_bracket(a.pairing_cell(yp, d1, z, d2), act_phi, 1, car.dim(z, d2))
                        if lhs != rhs:
                            rep.add("pairing-naturality-left",
                                    "(%s, %s at degrees %d,%d)" % (cat.mor_name((y, yp, i)), z, d1, d2))
                        big2 = slices[d].action(cat.diamond(cat.identity_mor(z), phi))
                        lhs2 = big2 * a.pairing_cell(z, d2, y, d1)
                        rhs2 = times_bracket(a.pairing_cell(z, d2, yp, d1), act_phi, car.dim(z, d2), 1)
                        if lhs2 != rhs2:
                            rep.add("pairing-naturality-right",
                                    "(%s, %s at degrees %d,%d)" % (cat.mor_name((y, yp, i)), z, d2, d1))
                        rep.checked += 2
    return rep


def validate_module(m: Module) -> ValidationReport:
    """Certify action associativity, unit action and bimodule compatibility."""
    rep = ValidationReport("module %s" % m.name)
    car, acar, mul = m.carrier, m.monoid.carrier, m.monoid.pairing_cell
    left, right = m.left_cell, m.right_cell
    units, laws = [], []
    if m.left is not None:
        units.append(("unit-acts-as-identity-left", "left", left))
        laws.append(("left-action-associativity", (acar, acar, car), (left, mul, left, left)))
    if m.right is not None:
        units.append(("unit-acts-as-identity-right", "right", right))
        laws.append(("right-action-associativity", (car, acar, acar), (right, right, right, mul)))
    if m.side == "bi":
        laws.append(("bimodule-compatibility", (acar, car, acar), (right, left, left, right)))
    _unit_laws(rep, car, m.monoid.unit, units)
    _associativity_laws(rep, car, laws)
    return rep


# -- commutation ---------------------------------------------------------------


def _commutator(a: Monoid, x, d, y, dp) -> Matrix:
    """b (x) c -> c b - A(s_{x,y})(b c), the one commutation condition.

    Source A(x)_d (x) A(y)_dp with b slowest, target A(y<>x)_{d+dp}; c b is
    the (y, x) pairing with its Kronecker factors swapped as a column order.
    """
    car = a.carrier
    dim_b, dim_c = car.dim(x, d), car.dim(y, dp)
    swap = [j * dim_b + i for i in range(dim_b) for j in range(dim_c)]
    s_act = car.slice_rep(d + dp).action(a.cat.symmetry_mor(x, y))
    return a.pairing_cell(y, dp, x, d).select_columns(swap) - s_act * a.pairing_cell(x, d, y, dp)


def is_commutative(a: Monoid) -> bool:
    """Every commutator cell with nonzero factors is zero."""
    car = a.carrier
    return all(_commutator(a, x, d, y, dp).is_zero()
               for (x, d) in car.cells() for dp in range(car.cap + 1 - d)
               for y in a.cat.objects if car.dim(x, d) and car.dim(y, dp))


def _commutant_cell(a: Monoid, x, d) -> Subspace:
    """CA(x)_d: the joint kernel of b -> [b, c] over the basis vectors c of the window.

    Kept in `a.central_memo` under (x, d).  Entry (r, i dim_c + j) of a
    commutator cell goes to row (r, j), column i; empty rows are dropped.
    """
    if (x, d) not in a.central_memo:
        car, rows = a.carrier, []
        for dp in range(car.cap + 1 - d):
            for y in a.cat.objects:
                dim_c = car.dim(y, dp)
                if car.dim(x, d) and dim_c:
                    for r in _commutator(a, x, d, y, dp).rows:
                        split = {}
                        for col, v in r.items():
                            split.setdefault(col % dim_c, {})[col // dim_c] = v
                        rows.extend(split.values())
        a.central_memo[(x, d)] = kernel(Matrix(a.field, len(rows), car.dim(x, d), rows))
    return a.central_memo[(x, d)]


def commutant(a: Monoid, x: str) -> dict:
    """CA(x) per degree, each cell computed once per monoid.

    When the carrier is truncated, products above the cap cannot be tested;
    the result is certified for the stored window only.
    """
    return {d: _commutant_cell(a, x, d) for d in range(a.cap + 1)}


def is_central(a: Monoid, elt: Element) -> bool:
    """Membership in the commutant cell of elt's object and degree.

    The memo holds one cell per (obj, degree), however many elements are tested.
    """
    return _commutant_cell(a, elt.obj, elt.degree).contains(elt.coords)


# -- multiplication operators ---------------------------------------------------


@dataclass
class MultOperator:
    """The family b -> elt x b (or b x elt) on a module, one matrix per cell.

    form is [c_1, ..., c_n] when every cell is A_d (x) I_base, written by copy
    moves for elt = sum c_i t_i (A_d: `form_moves(form, d)`), else None.
    Editing `cells` means building a new operator with no form.
    """

    shift: int
    cells: dict  # (obj, deg) -> Matrix from M(obj)_deg to M(obj)_{deg+shift}
    form: Optional[list]


def mult_operator(a: Monoid, elt: Element, m: Module, side="left") -> MultOperator:
    """L_elt (or the right-hand analogue) for an element supported at the unit.

    Each cell fixes elt in m's action cell (`fix_slot`), unless elt is a
    linear form sum c_i t_i of a polynomial monoid (`_form_coefficients`) and
    the action cell obeys the copy rule of the regular module (`_copy_rule`,
    an O(nnz) comparison of its entries, kept per cell object on a): then the
    cell is written by copy moves, block w to block t_i w times c_i, with no
    scan of the action cell and no arithmetic (`_copy_moves`).  Any other
    element, module or cell takes `fix_slot`; both give the same matrix.
    The operator declares the form when every cell took copy moves.
    """
    u = a.cat.unit
    if elt.obj != u:
        raise WrongObjectError("element lives at %s, expected the unit object" % elt.obj)
    car = m.carrier
    e = elt.degree
    form = coeffs = _form_coefficients(a, elt)
    cells = {}
    for (x, d) in car.cells():
        if d + e > car.cap:
            continue
        cell = m.left_cell(u, e, x, d) if side == "left" else m.right_cell(x, d, u, e)
        cells[(x, d)], moved = _times(a, elt, coeffs, cell, x, d, car.dim(x, d), side)
        if not moved:
            form = None
    return MultOperator(e, cells, form)


def _times(a: Monoid, elt: Element, coeffs, cell: Matrix, x, d: int, dim: int,
           side: str) -> tuple:
    """(b -> cell(elt (x) b) ("left") or cell(b (x) elt), whether by copy moves), dim coordinates.

    By copy moves when coeffs, elt's form coefficients, are known and the
    cell obeys the copy rule at (x, d); else by `fix_slot`.  The rule is
    checked once per cell object: the verdict is kept in `a.copy_memo` under
    (side, x, d) beside the cell, and trusted only while the caller holds
    that same cell object.  A cell of another shape than the regular one (a
    module that is not regular) takes `fix_slot` before the memo.
    """
    if coeffs is not None:
        held = a.copy_memo.get((side, x, d))
        if held is None or held[0] is not cell:
            car = a.carrier
            if dim != car.dim(x, d) or \
                    (cell.nrows, cell.ncols) != (car.dim(x, d + 1), len(elt.coords) * dim):
                return fix_slot(cell, elt.coords, dim, side), False
            held = a.copy_memo[(side, x, d)] = (cell, _copy_rule(a, cell, x, d, side))
        if held[1]:
            return _copy_moves(a, coeffs, x, d), True
    return fix_slot(cell, elt.coords, dim, side), False


def _unit_slot(a: Monoid):
    """j when the unit of a is the basis vector e_j with coordinate one, else None."""
    support = [j for j, v in enumerate(a.unit) if v]
    return support[0] if len(support) == 1 and a.unit[support[0]] == a.field.one() else None


def _form_coefficients(a: Monoid, elt: Element):
    """[c_1, ..., c_n] when elt = sum c_i t_i in the polynomial monoid a, else None.

    t_i is the i-th degree-one monomial times the unit, so elt is such a form
    exactly when, with the unit the basis vector e_j (`_unit_slot`), every
    coordinate of monomial block i off slot j is zero; c_i is the one on it.
    """
    if a.poly_info is None or elt.degree != 1 or elt.obj != a.cat.unit:
        return None
    j, du, coords = _unit_slot(a), len(a.unit), elt.coords
    if j is None or len(coords) != a.poly_info.nvars * du or \
            (du > 1 and any(v for k, v in enumerate(coords) if k % du != j)):
        return None
    mul, one = a.field.mul, a.field.one()
    return [mul(one, v) for v in coords[j::du]]


@lru_cache(maxsize=None)
def _copy_positions(n: int, d: int) -> tuple:
    """(#degree-(d+1) monomials, #degree-d monomials, per t_i the pairs (w, t_i w)), n variables."""
    from .poly import monomial_product_table  # poly builds on this module
    ntgt, table = monomial_product_table(n, 1, n, d, "add")
    return ntgt, len(table[0]), tuple(tuple(enumerate(targets)) for targets in table)


def form_moves(form, d: int) -> tuple:
    """(rows, columns, moves) of A_d, the linear form sum c_i t_i from degree d to d + 1.

    form is [c_1, ..., c_n]; A_d sends monomial w to t_i w times c_i, and
    moves yields (c_i, the pairs (w, t_i w)) in variable order, once; a zero
    c_i moves nothing.  For one w the t_i w are distinct, so no two entries
    share a place.  On a regular cell of copies the form acts as A_d (x) I_base.
    """
    ntgt, nsrc, pairs = _copy_positions(len(form), d)
    return ntgt, nsrc, zip(form, pairs)


@lru_cache(maxsize=None)
def _copy_rule_rows(n: int, d: int, bx: int, du: int, j: int, side: str) -> list:
    """The rows of unit slot j of an action cell that obeys the copy rule; read only.

    Row (t_i w, b) holds the entry one (`Field.one`, 1 in every field) at
    column (i, j, w, b), the moves of t_i (`form_moves` of the form with
    every c_i one), and nothing else in slot j.
    """
    ntgt, nsrc, moves = form_moves([1] * n, d)
    rows, width = [{} for _ in range(ntgt * bx)], nsrc * bx
    for i, (one, pairs) in enumerate(moves):
        for w, t in pairs:
            for b in range(bx):
                col = w * bx + b
                rows[t * bx + b][(i * du + j) * width + col if side == "left"
                                 else col * n * du + i * du + j] = one
    return rows


def _copy_rule(a: Monoid, cell: Matrix, x, d: int, side: str) -> bool:
    """Whether a regular action cell at (x, d) moves copies: t_i (w b) = (t_i w) b.

    cell is A(u)_1 (x) A(x)_d -> A(x)_{d+1} ("left") or A(x)_d (x) A(u)_1
    on Kronecker columns, A(u)_1 of n blocks of du coordinates.  Its
    columns (i, j, w, b), j the unit's slot (`_unit_slot`), must hold
    exactly the entries one at rows (t_i w, b), and nothing else; columns
    of other slots are not read.  One comparison of the entries with
    `_copy_rule_rows`, no arithmetic.
    """
    j = _unit_slot(a)
    if j is None:
        return False
    n, du = a.poly_info.nvars, len(a.unit)
    rows = cell.rows
    if du > 1:  # keep slot j only
        width = a.carrier.dim(x, d)
        rows = [{c: v for c, v in r.items() if (c // width if side == "left" else c) % du == j}
                for r in rows]
    return rows == _copy_rule_rows(n, d, a.poly_info.base.carrier.dim(x, 0), du, j, side)


def _copy_moves(a: Monoid, coeffs, x, d: int) -> Matrix:
    """sum_i c_i t_i on the regular cell (x, d): A_d of `form_moves`, then A_d (x) I_base."""
    bx = a.poly_info.base.carrier.dim(x, 0)
    ntgt, nsrc, moves = form_moves(coeffs, d)
    rows = [{} for _ in range(ntgt)]
    for c, pairs in moves:
        if c:
            for w, t in pairs:
                rows[t][w] = c
    if bx != 1:
        rows = [{w * bx + b: c for w, c in row.items()} for row in rows for b in range(bx)]
    return Matrix(a.field, ntgt * bx, nsrc * bx, rows)


# -- generated submodules and quotients ----------------------------------------


def _ideal_columns(a: Monoid, gens: Sequence[Element], forms: list, x, d):
    """Cell (x, d) of A<gens> as columns b -> b g, one block per generator.

    Returns the hstack and ends: ends[i] counts the columns of the first i.
    A block is right multiplication by g on the regular module: by copy
    moves where g is a linear form, forms[i] its coefficients
    (`_form_coefficients`), and the pairing cell obeys the copy rule, as in
    `mult_operator`; by `fix_slot` otherwise.
    """
    field, car, u = a.field, a.carrier, a.cat.unit
    blocks, ends = [Matrix.zeros(field, car.dim(x, d), 0)], [0]
    for g, coeffs in zip(gens, forms):
        width = car.dim(x, d - g.degree) if g.degree <= d else 0
        if width:
            blocks.append(_times(a, g, coeffs, a.pairing_cell(x, d - g.degree, u, g.degree),
                                 x, d - g.degree, width, "right")[0])
        ends.append(ends[-1] + width)
    return hstack(blocks), ends


def generated_submodule(a: Monoid, gens: Sequence[Element]) -> dict:
    """The ideal A<gens> per cell: image of right multiplication by the gens.

    Every generator must be supported at the unit object; an empty list gives
    the zero family.
    """
    for g in gens:
        if g.obj != a.cat.unit:
            raise WrongObjectError("generator lives at %s, expected the unit object" % g.obj)
    forms = [_form_coefficients(a, g) for g in gens]
    return {(x, d): Subspace.from_matrix_columns(_ideal_columns(a, gens, forms, x, d)[0])
            for (x, d) in a.carrier.cells()}


def _induced(tgt, mat: Matrix, src, what: str, args, left: int = 1, right: int = 1) -> Matrix:
    """The map tgt.projection * mat induces on I_left (x) src (x) I_right.

    Raises StabilityError naming what % args when it does not descend.
    """
    out = descend(tgt.projection * mat, src, left, right)
    if out is None:
        raise StabilityError(("submodule not stable under " + what) % args)
    return out


@dataclass
class QuotientModule:
    module: Module
    projections: dict  # cell -> Matrix


def quotient_module(m: Module, sub: dict) -> QuotientModule:
    """Pointwise quotient with induced actions; sub must be action-stable.

    Stability is read from the descent that builds each induced map: the
    target's projection after an arrow or action must kill sub at the
    source (I (x) sub or sub (x) I for the actions), and the induced map is
    that product on the source's section (`matrix.descend`, bracketed).
    Arrows are checked first, then the left and right actions; the first map
    that does not descend is named in the StabilityError.
    """
    a = m.monoid
    cat, car, acar = m.cat, m.carrier, a.carrier
    quots = {cell: quotient(car.dim(*cell), sub[cell]) for cell in car.cells()}
    dims = {cell: q.dim for cell, q in quots.items()}

    actions = {}
    for (key, d), mat in car.actions.items():
        x, y, _ = key
        actions[(key, d)] = _induced(quots[(y, d)], mat, quots[(x, d)],
                                     "arrow %s at (%s,%d)", (cat.mor_name(key), x, d))
    left = None if m.left is None else {
        (x, d1, y, d2): _induced(quots[(cat.dobj(x, y), d1 + d2)], mat, quots[(y, d2)],
                                 "left action of (%s,%d) at (%s,%d)", (x, d1, y, d2),
                                 left=acar.dim(x, d1))
        for (x, d1, y, d2), mat in m.left.items()}
    right = None if m.right is None else {
        (x, d1, y, d2): _induced(quots[(cat.dobj(x, y), d1 + d2)], mat, quots[(x, d1)],
                                 "right action of (%s,%d) at (%s,%d)", (y, d2, x, d1),
                                 right=acar.dim(y, d2))
        for (x, d1, y, d2), mat in m.right.items()}
    carrier = GradedCarrier(cat, car.cap, car.truncated, dims, actions)
    mod = Module(a, carrier, left, right, name="%s/sub" % m.name)
    return QuotientModule(mod, {c: q.projection for c, q in quots.items()})


# -- regularity -----------------------------------------------------------------


@dataclass
class RegularityCertificate:
    regular: bool
    witness: Optional[Element]
    cells_checked: int
    window: int
    truncated: bool

    def to_jsonable(self, field: Field):
        out = {
            "regular": self.regular,
            "cells_checked": self.cells_checked,
            "window": self.window,
            "truncated": self.truncated,
        }
        if self.witness is not None:
            out["witness"] = {
                "obj": self.witness.obj,
                "degree": self.witness.degree,
                "coords": [field.format(c) for c in self.witness.coords],
            }
        return out


def is_regular(a: Monoid, elt: Element, m: Module,
               sub: Optional[Callable] = None) -> RegularityCertificate:
    """Certify that elt acts injectively on every cell of m (of m/sub) within the window.

    Requires elt central (the definition lives in the commutant); reports the
    first nonzero annihilated vector as the witness.  With sub, a function
    from a cell (x, d) to a subspace of m there, each cell of L_elt is
    descended to m/sub as the scan reaches it (sub and `matrix.quotient` run
    once per cell); the first scanned cell that does not descend raises
    StabilityError, and no cell after the witness is touched.
    `is_regular_sequence` decides stages by dimension count and calls this
    only on a failing stage.
    """
    if not is_central(a, elt):
        raise NotCentralError("element at (%s, degree %d) is not in the commutant"
                              % (elt.obj, elt.degree))
    op = mult_operator(a, elt, m, side="left")
    quots = {}  # cell -> `matrix.quotient` of m's cell by sub's, as the scan reaches it
    window = m.carrier.cap - elt.degree
    checked = 0
    for d in range(window + 1):
        for x in a.cat.objects:
            mat = op.cells[(x, d)]
            if sub is not None:
                for cell in ((x, d), (x, d + op.shift)):
                    if cell not in quots:
                        quots[cell] = quotient(m.carrier.dim(*cell), sub(cell))
                mat = _induced(quots[(x, d + op.shift)], mat, quots[(x, d)],
                               "multiplication by (%s,%d) at (%s,%d)",
                               (elt.obj, elt.degree, x, d))
            checked += 1
            vecs = kernel_basis(mat)
            if vecs:
                return RegularityCertificate(False, Element(x, d, vecs[0]), checked,
                                             window, m.carrier.truncated)
    return RegularityCertificate(True, None, checked, window, m.carrier.truncated)


@dataclass
class SequenceCertificate:
    regular: bool
    stages: list
    quotient_nonzero: bool
    failed_stage: Optional[int]
    final_dims: dict
    truncated: bool

    def to_jsonable(self, field: Field):
        return {
            "regular": self.regular,
            "stages": [s.to_jsonable(field) for s in self.stages],
            "quotient_nonzero": self.quotient_nonzero,
            "failed_stage": self.failed_stage,
            "truncated": self.truncated,
        }


def is_regular_sequence(a: Monoid, gens: Sequence[Element]) -> SequenceCertificate:
    """Regular sequence by dimension count, plus A/<gens> != 0.

    With I = A<g_1..g_{i-1}> and g = g_i central of degree e, g is injective on
    (A/I)_(x,d) iff dim(I + A g)_(x,d+e) - dim I_(x,d+e) = dim A_(x,d) - dim
    I_(x,d): the ideal of central elements is a sub-bimodule, and A g is g A up
    to the symmetry.  One `rref` per cell gives every prefix dimension: its
    pivot columns are the generator columns independent of those before them.
    Stage i checks g_i's centrality before its object.  Only a failing stage
    reads the ideal I, and `is_regular` finds the witness by scanning L_g on
    A/I cell by cell; I is spanned only on the cells the scan reaches, and no
    quotient bimodule is built.  final_dims is dim A - dim A<gens> per cell.
    """
    car, unit = a.carrier, a.cat.unit
    k = next((i for i, g in enumerate(gens) if g.obj != unit), len(gens))
    prefix = {}  # cell -> dim A<g_1..g_i> for i = 0..k; gens[k] is the first off the unit
    forms = [_form_coefficients(a, g) for g in gens[:k]]
    for (x, d) in car.cells():
        cols, ends = _ideal_columns(a, gens[:k], forms, x, d)
        pivots = rref(a.field, cols.rows, cols.ncols)[0]
        prefix[(x, d)] = [bisect_left(pivots, end) for end in ends]
    stages, failed = [], None
    for i, g in enumerate(gens):
        if not is_central(a, g):
            raise NotCentralError("element at (%s, degree %d) is not in the commutant"
                                  % (g.obj, g.degree))
        if i == k:
            break
        e = g.degree
        cells = [(x, d) for (x, d) in car.cells() if d + e <= car.cap]
        if all(prefix[(x, d + e)][i + 1] - prefix[(x, d + e)][i]
               == car.dim(x, d) - prefix[(x, d)][i] for (x, d) in cells):
            stages.append(RegularityCertificate(True, None, len(cells), car.cap - e,
                                                car.truncated))
            continue
        stages.append(is_regular(a, g, regular_bimodule(a), lambda cell: (
            Subspace.from_matrix_columns(_ideal_columns(a, gens[:i], forms, *cell)[0]))))
        if stages[-1].regular:
            raise StructuralError("stage %d: dimension count and kernel scan disagree" % i)
        failed = i
        break
    if k < len(gens):
        raise WrongObjectError("generator lives at %s, expected the unit object" % gens[k].obj)
    dims = {c: car.dim(*c) - prefix[c][k] for c in car.cells()} if gens else dict(car.dims)
    nonzero = any(dims.values())
    if failed is None and not nonzero:
        failed = len(gens)
    return SequenceCertificate(failed is None, stages, nonzero, failed, dims, car.truncated)
