"""Finite presentations of the base symmetric monoidal linear category.

Two backends share one data model.  The trivial backend has a single object
whose endomorphisms are spanned by the identity; the finite strict backend
carries an explicit object set closed under the monoidal product, hom bases
with composition structure constants, an object-level product table, a
morphism-level product on basis pairs, and symmetry morphisms.  Coherence is
strict: associators and unitors are identities, so object products are plain
table lookups.

Representations assign a space dimension to each object and a matrix to each
hom basis element.  Day convolution of two representations is computed as a
pointwise quotient of the direct sum over object pairs of
hom(y <> z, x) (x) F(y) (x) G(z) by the naturality relations generated by the
hom basis elements, with induced functorial actions.  Every Day tensor of a
graded tensor goes through `day_tensor_copies`: each factor is some number
of copies of a base representation (a polynomial slice is #monomials copies
of its base slice, any other slice one copy of itself), and the result is
placed copies of the base pair's Day convolution, eliminated once.  Where
each copy's coordinates went is one rule, `copy_coordinates`, so maps out
of the copies (the merge of `koszulcat.poly`) and between them (the copy
moves of `GradedTensor.map_factor`, through `DayTensor.coords`) are placed
by the same rule.

The basis order is decided once.  Kronecker products put the left factor
slowest (`Matrix.kron`).  The Day ambient at x lists the summands by object
pair, y slowest, then z; a summand's coordinates are the Kronecker ones of
hom(y <> z, x) (x) F(y) (x) G(z), hom index slowest, then F(y), then G(z).
Only `DaySummand` knows where a summand starts, and every map into the
ambient is a Kronecker block that it positions for `matrix.place`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructuralError
from .field import Field
from .matrix import Matrix, Subspace, checked_quotient, descend, hstack, place, quotient, rank
from .report import ValidationReport

UNIT_NAME = "1"


@dataclass
class Mor:
    """Linear combination of hom basis elements between fixed objects; == compares by value."""

    src: str
    tgt: str
    coeffs: dict  # basis index -> scalar, zeros omitted


class CategoryPresentation:
    __slots__ = ("backend", "field", "objects", "unit", "hom", "compose_table",
                 "identities", "dobj_table", "dmor_table", "symmetry_table", "name",
                 "day_memo")

    def __init__(self, backend, field, objects, unit, hom, compose_table,
                 identities, dobj_table, dmor_table, symmetry_table, name="X"):
        self.backend = backend              # "trivial" | "finite"
        self.field = field
        self.objects = tuple(objects)       # unit listed among them
        self.unit = unit
        self.hom = hom                      # (x, y) -> tuple of basis names
        self.compose_table = compose_table  # ((y,z,j),(x,y,i)) -> {k: scalar}
        self.identities = identities        # x -> {i: scalar} over hom(x, x)
        self.dobj_table = dobj_table        # (x, y) -> object
        self.dmor_table = dmor_table        # ((x1,y1,i1),(x2,y2,i2)) -> {k: scalar}
        self.symmetry_table = symmetry_table  # (x, y) -> {k: scalar} over hom(x<>y, y<>x)
        self.name = name
        self.day_memo = {}                  # see `day_tensor`

    # -- constructors --------------------------------------------------------

    @staticmethod
    def trivial(field: Field) -> "CategoryPresentation":
        u = UNIT_NAME
        return CategoryPresentation(
            backend="trivial",
            field=field,
            objects=(u,),
            unit=u,
            hom={(u, u): ("id",)},
            compose_table={((u, u, 0), (u, u, 0)): {0: field.one()}},
            identities={u: {0: field.one()}},
            dobj_table={(u, u): u},
            dmor_table={((u, u, 0), (u, u, 0)): {0: field.one()}},
            symmetry_table={(u, u): {0: field.one()}},
            name="trivial",
        )

    @property
    def is_trivial(self) -> bool:
        return self.backend == "trivial"

    # -- structure access ----------------------------------------------------

    def hom_basis(self, x, y):
        return self.hom.get((x, y), ())

    def hom_dim(self, x, y) -> int:
        return len(self.hom_basis(x, y))

    def dobj(self, x, y):
        try:
            return self.dobj_table[(x, y)]
        except KeyError:
            raise StructuralError("diamond not total at (%s, %s)" % (x, y))

    def basis_mor(self, x, y, i) -> Mor:
        return Mor(x, y, {i: self.field.one()})

    def identity_mor(self, x) -> Mor:
        return Mor(x, x, dict(self.identities[x]))

    def symmetry_mor(self, x, y) -> Mor:
        return Mor(self.dobj(x, y), self.dobj(y, x), dict(self.symmetry_table[(x, y)]))

    def _extend(self, table, p: Mor, q: Mor) -> dict:
        """Coefficients of p and q paired by table, extended bilinearly."""
        fld = self.field
        out: dict = {}
        for i, cp in p.coeffs.items():
            for j, cq in q.coeffs.items():
                c = fld.mul(cp, cq)
                for k, v in table.get(((p.src, p.tgt, i), (q.src, q.tgt, j)), {}).items():
                    s = fld.add(out.get(k, fld.zero()), fld.mul(c, v))
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return out

    def compose(self, g: Mor, f: Mor) -> Mor:
        """g after f, extended bilinearly over the structure constants."""
        if f.tgt != g.src:
            raise StructuralError("cannot compose %s->%s after %s->%s"
                                  % (g.src, g.tgt, f.src, f.tgt))
        return Mor(f.src, g.tgt, self._extend(self.compose_table, g, f))

    def diamond(self, f: Mor, g: Mor) -> Mor:
        return Mor(self.dobj(f.src, g.src), self.dobj(f.tgt, g.tgt),
                   self._extend(self.dmor_table, f, g))

    def all_basis_mors(self):
        for (x, y), names in sorted(self.hom.items()):
            for i in range(len(names)):
                yield (x, y, i)

    def mor_name(self, key) -> str:
        x, y, i = key
        return self.hom[(x, y)][i]


def validate_presentation(cat: CategoryPresentation) -> ValidationReport:
    """Exhaustively certify the axioms on all basis combinations."""
    rep = ValidationReport("category %s" % cat.name)
    objs = cat.objects

    # diamond totality, associativity, unit
    for x in objs:
        for y in objs:
            if (x, y) not in cat.dobj_table:
                rep.add("diamond-totality", "(%s, %s)" % (x, y))
        rep.checked += len(objs)
    for x in objs:
        if cat.dobj(cat.unit, x) != x or cat.dobj(x, cat.unit) != x:
            rep.add("diamond-unit", x)
        rep.checked += 1
    for x in objs:
        for y in objs:
            for z in objs:
                if cat.dobj(cat.dobj(x, y), z) != cat.dobj(x, cat.dobj(y, z)):
                    rep.add("diamond-associativity", "(%s, %s, %s)" % (x, y, z))
                rep.checked += 1

    # composites and products of basis arrows, each formed once
    mors = list(cat.all_basis_mors())
    pairs = [(f, g) for f in mors for g in mors if g[0] == f[1]]  # g after f
    composite = {(f, g): cat.compose(cat.basis_mor(*g), cat.basis_mor(*f)) for f, g in pairs}
    product = {(f, g): cat.diamond(cat.basis_mor(*f), cat.basis_mor(*g))
               for f in mors for g in mors}

    # composition associativity on basis triples
    for (x, y) in sorted(cat.hom):
        for (y2, z) in sorted(cat.hom):
            if y2 != y:
                continue
            for (z2, w) in sorted(cat.hom):
                if z2 != z:
                    continue
                for i in range(cat.hom_dim(x, y)):
                    for j in range(cat.hom_dim(y, z)):
                        for k in range(cat.hom_dim(z, w)):
                            f, g, h = (x, y, i), (y, z, j), (z, w, k)
                            lhs = cat.compose(composite[(g, h)], cat.basis_mor(*f))
                            rhs = cat.compose(cat.basis_mor(*h), composite[(f, g)])
                            if lhs != rhs:
                                rep.add("composition-associativity", "(%s, %s, %s)"
                                        % tuple(cat.mor_name(key) for key in (h, g, f)))
                            rep.checked += 1

    # unit laws of composition
    for (x, y, i) in mors:
        f = cat.basis_mor(x, y, i)
        if cat.compose(f, cat.identity_mor(x)) != f:
            rep.add("right-identity", cat.mor_name((x, y, i)))
        if cat.compose(cat.identity_mor(y), f) != f:
            rep.add("left-identity", cat.mor_name((x, y, i)))
        rep.checked += 2

    # functoriality of the product on morphisms, on composable basis quadruples
    for f1, g1 in pairs:
        for f2, g2 in pairs:
            lhs = cat.diamond(composite[(f1, g1)], composite[(f2, g2)])
            if lhs != cat.compose(product[(g1, g2)], product[(f1, f2)]):
                rep.add("diamond-functoriality", "(%s o %s) <> (%s o %s)"
                        % tuple(cat.mor_name(key) for key in (g1, f1, g2, f2)))
            rep.checked += 1
    # identity compatibility of the product
    for x in objs:
        for y in objs:
            lhs = cat.diamond(cat.identity_mor(x), cat.identity_mor(y))
            if lhs != cat.identity_mor(cat.dobj(x, y)):
                rep.add("diamond-identity", "(%s, %s)" % (x, y))
            rep.checked += 1

    # symmetry: involutive, natural on generators, strict hexagon
    for x in objs:
        for y in objs:
            s_xy = cat.symmetry_mor(x, y)
            s_yx = cat.symmetry_mor(y, x)
            if cat.compose(s_yx, s_xy) != cat.identity_mor(cat.dobj(x, y)):
                rep.add("symmetry-involutive", "(%s, %s)" % (x, y))
            rep.checked += 1
    for (x, xp, i) in mors:
        for (y, yp, j) in mors:
            lhs = cat.compose(cat.symmetry_mor(xp, yp), product[((x, xp, i), (y, yp, j))])
            rhs = cat.compose(product[((y, yp, j), (x, xp, i))], cat.symmetry_mor(x, y))
            if lhs != rhs:
                rep.add("symmetry-naturality",
                        "(%s, %s)" % (cat.mor_name((x, xp, i)), cat.mor_name((y, yp, j))))
            rep.checked += 1
    for x in objs:
        for y in objs:
            for z in objs:
                lhs = cat.symmetry_mor(x, cat.dobj(y, z))
                rhs = cat.compose(cat.diamond(cat.identity_mor(y), cat.symmetry_mor(x, z)),
                                  cat.diamond(cat.symmetry_mor(x, y), cat.identity_mor(z)))
                if lhs != rhs:
                    rep.add("symmetry-hexagon", "(%s, %s, %s)" % (x, y, z))
                rep.checked += 1
    # strict unit coherence: braiding against the unit is the identity
    for x in objs:
        if cat.symmetry_mor(x, cat.unit) != cat.identity_mor(x):
            rep.add("symmetry-unit-coherence", "(%s, unit)" % x)
        if cat.symmetry_mor(cat.unit, x) != cat.identity_mor(x):
            rep.add("symmetry-unit-coherence", "(unit, %s)" % x)
        rep.checked += 2
    return rep


class Representation:
    """Functor to vector spaces: a dimension per object, a matrix per basis arrow."""

    __slots__ = ("cat", "dims", "actions", "name")

    def __init__(self, cat: CategoryPresentation, dims: dict, actions: dict, name="F"):
        self.cat = cat
        self.dims = dict(dims)
        self.actions = dict(actions)  # (x, y, i) -> Matrix dims[y] x dims[x]
        self.name = name
        for key, m in self.actions.items():
            x, y, _ = key
            if m.nrows != self.dims[y] or m.ncols != self.dims[x]:
                raise StructuralError(
                    "action %s has shape %dx%d, expected %dx%d"
                    % (cat.mor_name(key), m.nrows, m.ncols, self.dims[y], self.dims[x]))

    def dim(self, x) -> int:
        return self.dims[x]

    def action_basis(self, key) -> Matrix:
        if key in self.actions:
            return self.actions[key]
        raise StructuralError("no action for basis arrow %s" % (key,))

    def action(self, f: Mor) -> Matrix:
        fld = self.cat.field
        out = Matrix.zeros(fld, self.dims[f.tgt], self.dims[f.src])
        for i, c in f.coeffs.items():
            out = out + self.action_basis((f.src, f.tgt, i)).scale(c)
        return out


def trivial_representation(cat: CategoryPresentation, dim: int, name="F") -> Representation:
    """One-object backend: a bare space with the identity arrow acting as id."""
    u = cat.unit
    return Representation(cat, {u: dim}, {(u, u, 0): Matrix.identity(cat.field, dim)}, name)


def identity_representation(cat: CategoryPresentation) -> Representation:
    """The unit I = X(1, -): spaces are hom(1, x), arrows act by postcomposition."""
    fld = cat.field
    u = cat.unit
    dims = {x: cat.hom_dim(u, x) for x in cat.objects}
    actions = {}
    for (x, y, i) in cat.all_basis_mors():
        phi = cat.basis_mor(x, y, i)
        cols = []
        for k in range(cat.hom_dim(u, x)):
            comp = cat.compose(phi, cat.basis_mor(u, x, k))
            cols.append([comp.coeffs.get(t, fld.zero()) for t in range(cat.hom_dim(u, y))])
        actions[(x, y, i)] = Matrix.from_columns(fld, dims[y], cols)
    return Representation(cat, dims, actions, name="I")


def validate_representation(cat: CategoryPresentation, f: Representation) -> ValidationReport:
    """Certify F(id) = id and F(g o f) = F(g) F(f) on basis pairs."""
    rep = ValidationReport("representation %s" % f.name)
    fld = cat.field
    for x in cat.objects:
        if x not in f.dims:
            raise StructuralError("representation misses object %s" % x)
        if f.action(cat.identity_mor(x)) != Matrix.identity(fld, f.dims[x]):
            rep.add("functor-identity", x)
        rep.checked += 1
    for (x, y, i) in cat.all_basis_mors():
        for (y2, z, j) in cat.all_basis_mors():
            if y2 != y:
                continue
            g = cat.basis_mor(y, z, j)
            ff = cat.basis_mor(x, y, i)
            lhs = f.action(cat.compose(g, ff))
            rhs = f.action_basis((y, z, j)) * f.action_basis((x, y, i))
            if lhs != rhs:
                rep.add("functor-composition",
                        "(%s, %s)" % (cat.mor_name((y, z, j)), cat.mor_name((x, y, i))))
            rep.checked += 1
    return rep


# -- Day convolution ----------------------------------------------------------


def _columns(field: Field, nrows: int, coeffs) -> Matrix:
    """The nrows x len(coeffs) matrix whose column j has the entries coeffs[j]."""
    rows = [dict() for _ in range(nrows)]
    for j, c in enumerate(coeffs):
        for i, v in c.items():
            rows[i][j] = v
    return Matrix(field, nrows, len(coeffs), rows)


@dataclass
class DaySummand:
    """The summand hom(y<>z, x) (x) F(y) (x) G(z) of the Day ambient at x.

    Its (y, z) is its key in `DayTensor.layout[x]`; its Kronecker
    coordinates start at row `offset` of the ambient.
    """

    hom_dim: int
    dim_f: int
    dim_g: int
    offset: int

    @property
    def size(self):
        return self.hom_dim * self.dim_f * self.dim_g

    def block(self, act: Matrix, col: int = 0, hom: Matrix = None):
        """`place` block putting hom (x) act into this summand's rows, from column col.

        hom has one row per basis arrow of hom(y<>z, x), the identity when
        None; act lands in F(y) (x) G(z).  `place` only reads the block, so
        act passes through uncopied when hom is 1 x 1 and one.
        """
        if hom is None:
            if self.hom_dim == 1:
                return (self.offset, col, act)
            hom = Matrix.identity(act.field, self.hom_dim)
        elif hom.nrows == hom.ncols == 1 and hom.rows[0].get(0) == 1:
            return (self.offset, col, act)
        return (self.offset, col, hom.kron(act))


class DayTensor:
    """Pointwise coend presentation of F (x) G with its induced actions.

    layout[x] maps each object pair (y, z) to its `DaySummand` in the
    ambient at x; quot[x] is the quotient of that ambient by the relations.
    coords[x][c][j] is where quotient coordinate j of copy c of the base Day
    tensor sits (`copy_coordinates`); a tensor `day_tensor` eliminated is its
    own one copy.  `day_tensor` hands one instance to every caller with the
    same representation data, so rep.name is the first caller's; no report
    reads it.
    """

    __slots__ = ("cat", "layout", "quot", "rep", "coords")

    def __init__(self, cat, layout, quot, rep, coords):
        self.cat = cat
        self.layout = layout  # x -> {(y, z): DaySummand}
        self.quot = quot      # x -> QuotientPresentation
        self.rep = rep
        self.coords = coords  # x -> per copy, the quotient coordinates of the base's

    def pure_map(self, x, y, z, h: Mor) -> Matrix:
        """F(y) (x) G(z) -> (F (x) G)(x), a (x) b |-> the class of h (x) a (x) b.

        h is a morphism y<>z -> x; the identity of y<>z gives the universal
        pure-tensor map into (F (x) G)(y<>z).
        """
        fld = self.cat.field
        s = self.layout[x][(y, z)]
        pair = Matrix.identity(fld, s.dim_f * s.dim_g)
        amb = place(fld, self.quot[x].ambient, pair.ncols,
                    [s.block(pair, hom=_columns(fld, s.hom_dim, [h.coeffs]))])
        return self.quot[x].projection * amb

    def induced_map(self, target: Representation, beta: dict) -> dict:
        """Descend a natural bilinear family beta[(y,z)]: F(y) (x) G(z) -> H(y<>z).

        Returns per-object matrices (F (x) G)(x) -> H(x) given on the ambient
        summand (y, z) by h (x) a (x) b -> H(h)(beta(a (x) b)).  The ambient
        map descends through `matrix.descend`: it must kill the relations,
        which holds when beta is natural; otherwise StructuralError.
        """
        fld = self.cat.field
        out = {}
        for x in self.cat.objects:
            blocks = []
            for (y, z), s in self.layout[x].items():
                yz = self.cat.dobj(y, z)
                b_cell = beta[(y, z)]
                if b_cell.nrows != target.dims[yz] or b_cell.ncols != s.dim_f * s.dim_g:
                    raise StructuralError("bilinear cell (%s, %s) has wrong shape" % (y, z))
                if s.hom_dim:
                    blocks.append((0, s.offset, hstack(
                        [target.action_basis((yz, x, h)) * b_cell for h in range(s.hom_dim)])))
            q = self.quot[x]
            out[x] = descend(place(fld, target.dims[x], q.ambient, blocks), q)
            if out[x] is None:
                raise StructuralError("bilinear family is not natural; does not descend at %s" % x)
        return out


def _rep_key(f: Representation) -> tuple:
    """The data of f that `day_tensor` reads: its dims and action entries."""
    return (tuple(sorted(f.dims.items())),
            tuple((key, tuple(frozenset(r.items()) for r in m.rows))
                  for key, m in sorted(f.actions.items())))


def day_tensor(cat: CategoryPresentation, f: Representation, g: Representation) -> DayTensor:
    """Build the coend quotient of the direct sum over (y, z) at every object.

    The relations at x are, for each arrow phi: y -> y' and h: y'<>z -> x,
    h(phi<>z) (x) a (x) b - h (x) F(phi)a (x) b, and the same in the right
    variable; each family over a (x) b is one Kronecker block per summand.

    Each result is built once per category: `cat.day_memo` keys it by the
    dims and action-matrix entries of f and g, never by their names or
    identities (a carrier's `slice_rep` is a fresh object on every call).
    This is sound because the result depends only on cat and that data,
    and no consumer mutates a `DayTensor` or its matrices.  The memo holds
    one `DayTensor` per distinct pair, and per pair and copy counts for
    `day_tensor_copies`; it lives and dies with its category.
    """
    key = (_rep_key(f), _rep_key(g))
    if key in cat.day_memo:
        return cat.day_memo[key]
    fld = cat.field
    eye = {}

    def identity(n):
        if n not in eye:
            eye[n] = Matrix.identity(fld, n)
        return eye[n]

    # the naturality families, the same at every x: (summand, phi<>z or
    # y<>psi, target summand, -(F(phi) (x) I) or -(I (x) G(psi)))
    families = []
    for (y, yp, i) in cat.all_basis_mors():
        f_phi = f.action_basis((y, yp, i))
        for z in cat.objects:
            families.append(((y, z), cat.diamond(cat.basis_mor(y, yp, i), cat.identity_mor(z)),
                             (yp, z), -f_phi.kron(identity(g.dims[z]))))
    for (z, zp, j) in cat.all_basis_mors():
        g_psi = g.action_basis((z, zp, j))
        for y in cat.objects:
            families.append(((y, z), cat.diamond(cat.identity_mor(y), cat.basis_mor(z, zp, j)),
                             (y, zp), -identity(f.dims[y]).kron(g_psi)))
    layout = {}
    quot = {}
    for x in cat.objects:
        lay = {}
        off = 0
        for y in cat.objects:
            for z in cat.objects:
                lay[(y, z)] = DaySummand(cat.hom_dim(cat.dobj(y, z), x),
                                         f.dims[y], g.dims[z], off)
                off += lay[(y, z)].size
        layout[x] = lay
        # per family and h: h(shifted) (x) a (x) b - h (x) act(a (x) b), over h, a, b
        blocks = []
        ncols = 0
        for src_yz, shifted, tgt_yz, neg_act in families:
            src, tgt = lay[src_yz], lay[tgt_yz]
            if not tgt.hom_dim or not neg_act.ncols:
                continue
            h_shift = _columns(fld, src.hom_dim,
                               [cat.compose(cat.basis_mor(cat.dobj(*tgt_yz), x, h), shifted).coeffs
                                for h in range(tgt.hom_dim)])
            blocks.append(src.block(identity(neg_act.ncols), ncols, hom=h_shift))
            blocks.append(tgt.block(neg_act, ncols))
            ncols += tgt.hom_dim * neg_act.ncols
        quot[x] = quotient(off, Subspace.from_matrix_columns(place(fld, off, ncols, blocks)))

    dims = {x: quot[x].dim for x in cat.objects}
    # induced functorial actions: postcompose the hom factor
    actions = {}
    for (x, xp, k) in cat.all_basis_mors():
        chi = cat.basis_mor(x, xp, k)
        blocks = []
        for (y, z), s in layout[x].items():
            sp = layout[xp][(y, z)]
            yz = cat.dobj(y, z)
            post = _columns(fld, sp.hom_dim, [cat.compose(chi, cat.basis_mor(yz, x, h)).coeffs
                                              for h in range(s.hom_dim)])
            blocks.append(sp.block(identity(s.dim_f * s.dim_g), s.offset, hom=post))
        amb = place(fld, quot[xp].ambient, quot[x].ambient, blocks)
        actions[(x, xp, k)] = quot[xp].projection * amb * quot[x].section
    rep = Representation(cat, dims, actions,
                         name="(%s(x)%s)" % (f.name, g.name))
    cat.day_memo[key] = DayTensor(cat, layout, quot, rep,
                                  {x: [range(q.dim)] for x, q in quot.items()})
    return cat.day_memo[key]


def _placed_copies(m: Matrix, nrows: int, ncols: int, row_maps, col_maps) -> Matrix:
    """Copies of m, entry (i, j) of copy c at (row_maps[c][i], col_maps[c][j])."""
    rows = [None] * nrows
    for rmap, cmap in zip(row_maps, col_maps):
        for i, r in enumerate(m.rows):
            rows[rmap[i]] = {cmap[j]: v for j, v in r.items()}
    return Matrix(m.field, nrows, ncols, rows)


def _copy_terms(base: DayTensor, x, kf: int, kg: int) -> tuple:
    """The copy rule at x of Day(F^kf, G^kg), the copies of base = Day(F, G), as affine terms.

    Coordinate (h, a, b) of summand (y, z) in copy c = v kg + w sits at local
    (h kf dim F(y) + v dim F(y) + a) kg dim G(z) + w dim G(z) + b.  Each local
    position is numbered among the positions of its kind (pivot or not) in
    ambient order: summands by offset, then h, v, a, w, b.  One walk over the
    base ambient in that order counts the pivots before each coordinate in
    the blocks the order nests (summand and h, then a, then b), so a position
    and its number are t0 + v tv + w tw.  Returns the terms (t0, tv, tw) of
    (the position of every base coordinate, the number of every base
    coordinate that is not a pivot, the number of every base pivot), each in
    base order; `_per_copy` reads them off, with no sort.
    """
    q = base.quot[x]
    before = [0] * (q.ambient + 1)  # before[i]: the base pivots among coordinates < i
    for p in q.sub.pivots:
        before[p + 1] = 1
    for i in range(q.ambient):
        before[i + 1] += before[i]
    copies = kf * kg
    at, comp, piv = [], [], []
    for s in base.layout[x].values():  # in offset order
        f, g = s.dim_f, s.dim_g
        for h in range(s.hom_dim):
            start_h = s.offset + h * f * g
            in_h = before[start_h + f * g] - before[start_h]
            for a in range(f):
                start_a = start_h + a * g
                in_a = before[start_a + g] - before[start_a]
                for b in range(g):
                    i = start_a + b
                    pos = copies * s.offset + (h * kf * f + a) * kg * g + b
                    rank = copies * before[start_h] + kg * (before[start_a] - before[start_h]) \
                        + before[i] - before[start_a]  # the pivot positions before pos
                    at.append((pos, f * kg * g, g))
                    if before[i + 1] > before[i]:
                        piv.append((rank, kg * in_h, in_a))
                    else:
                        comp.append((pos - rank, f * kg * g - kg * in_h, g - in_a))
    return at, comp, piv


def _per_copy(terms, kf: int, kg: int) -> list:
    """For each copy c = v kg + w, the values t0 + v tv + w tw of the terms."""
    if not terms:
        return [()] * (kf * kg)
    vs = [v for v in range(kf) for _ in range(kg)]
    ws = list(range(kg)) * kf
    return list(zip(*[[t0 + v * tv + w * tw for v, w in zip(vs, ws)] for t0, tv, tw in terms]))


def copy_coordinates(base: DayTensor, x, kf: int, kg: int) -> list:
    """coords[c][j]: where quotient coordinate j of base = Day(F, G) lands in copy c at x.

    The copies are those of Day(F^kf, G^kg), whose quotient coordinates are
    the complements of all copies, in ambient order (`_copy_terms`); one
    copy sits where the base does.
    """
    if kf == kg == 1:
        return [range(base.quot[x].dim)]
    return _per_copy(_copy_terms(base, x, kf, kg)[1], kf, kg)


def day_tensor_copies(cat: CategoryPresentation, f: Representation, g: Representation,
                      kf: int, kg: int) -> DayTensor:
    """Day(F^kf, G^kg), placed from `day_tensor(cat, f, g)` with no elimination.

    F^kf is kf copies of F, copy index slowest (arrows act by I_kf (x) F(phi)),
    as in a polynomial slice.  One side may be a single copy, as for a
    polynomial slice against a module slice; kf = kg = 1 is `day_tensor`
    itself.  The relations are copies of Day(F, G)'s on disjoint coordinates
    (`copy_coordinates`), each in ambient order, and the RREF of a span is
    unique; so pivots, canonical basis, projection, section and actions are
    Day(F, G)'s, relabelled.  `cat.day_memo` keys the result by the base
    `DayTensor`, one per data of f and g (`day_tensor`), and kf and kg.
    """
    base = day_tensor(cat, f, g)
    if kf == kg == 1:
        return base
    key = (base, kf, kg)
    if key in cat.day_memo:
        return cat.day_memo[key]
    layout, quot, coords = {}, {}, {}
    for x in cat.objects:
        layout[x] = {yz: DaySummand(s.hom_dim, kf * s.dim_f, kg * s.dim_g, kf * kg * s.offset)
                     for yz, s in base.layout[x].items()}
        amb, coords[x], pivot_coords = (_per_copy(t, kf, kg)
                                        for t in _copy_terms(base, x, kf, kg))
        q, k = base.quot[x], kf * kg
        off, dim = k * q.ambient, k * q.dim
        pivots = [0] * (k * len(q.sub.pivots))  # the local pivot positions, in ambient order
        for p, numbers in zip(q.sub.pivots, zip(*pivot_coords)):
            for r, ac in zip(numbers, amb):
                pivots[r] = ac[p]
        sub = Subspace(cat.field, off, _placed_copies(q.sub.basis, off, len(pivots),
                                                      amb, pivot_coords), pivots)
        quot[x] = checked_quotient(sub, _placed_copies(q.projection, dim, off, coords[x], amb),
                                   _placed_copies(q.section, off, dim, amb, coords[x]))
    actions = {(x, xp, k): _placed_copies(m, quot[xp].dim, quot[x].dim, coords[xp], coords[x])
               for (x, xp, k), m in base.rep.actions.items()}
    rep = Representation(cat, {x: quot[x].dim for x in cat.objects}, actions,
                         name="(%s^%d(x)%s^%d)" % (f.name, kf, g.name, kg))
    cat.day_memo[key] = DayTensor(cat, layout, quot, rep, coords)
    return cat.day_memo[key]


def day_convolution(cat: CategoryPresentation, f: Representation, g: Representation) -> Representation:
    """The monoidal product of representations; see `day_tensor` for the data."""
    return day_tensor(cat, f, g).rep


def unit_action(cat: CategoryPresentation, f: Representation, y, z, side: str) -> Matrix:
    """The unit action I(y) (x) F(z) -> F(y<>z) ("left") or F(y) (x) I(z) -> F(y<>z).

    A basis arrow phi of I(y) = hom(1, y) acts by F(phi<>z), one of I(z) by
    F(y<>phi); columns are in Kronecker order of the two factors.
    """
    fld, u = cat.field, cat.unit
    unit_obj = y if side == "left" else z
    acts = [Matrix.zeros(fld, f.dims[cat.dobj(y, z)], 0)]
    for k in range(cat.hom_dim(u, unit_obj)):
        phi = cat.basis_mor(u, unit_obj, k)
        acts.append(f.action(cat.diamond(phi, cat.identity_mor(z)) if side == "left"
                             else cat.diamond(cat.identity_mor(y), phi)))
    by_arrow = hstack(acts)  # columns phi (x) a
    if side == "left":
        return by_arrow
    dim_a, dim_phi = f.dims[y], cat.hom_dim(u, z)
    return by_arrow.select_columns([k * dim_a + a for a in range(dim_a) for k in range(dim_phi)])


def day_unit_iso(cat: CategoryPresentation, f: Representation, side: str):
    """Explicit natural isomorphism I (x) F -> F (resp. F (x) I -> F).

    Returns (DayTensor, per-object matrices); raises StructuralError if the
    canonical map fails to be invertible at some object.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    ident = identity_representation(cat)
    dt = day_tensor(cat, ident, f) if side == "left" else day_tensor(cat, f, ident)
    maps = dt.induced_map(f, {(y, z): unit_action(cat, f, y, z, side)
                              for y in cat.objects for z in cat.objects})
    for x in cat.objects:
        m = maps[x]
        if m.nrows != m.ncols or rank(m) != m.nrows:
            raise StructuralError("unit comparison map not invertible at %s" % x)
    # naturality: the comparison intertwines the induced and original actions
    for key in cat.all_basis_mors():
        x, y, _ = key
        if f.action_basis(key) * maps[x] != maps[y] * dt.rep.action_basis(key):
            raise StructuralError("unit comparison map not natural at %s"
                                  % cat.mor_name(key))
    return dt, maps
