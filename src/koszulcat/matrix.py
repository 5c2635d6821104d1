"""Exact sparse linear algebra: kernels, images, quotients, sections, Kronecker.

Matrices are stored row-sparse (one dict per row, zeros omitted).  Every
reduction is one elimination loop (`_echelon`, entered through `rank` and
`rref`; `rank` eliminates the shorter side, ranking a tall matrix as its
transpose).  Over Q it is fraction-free: the field scales each row to
integers once, every update keeps the rows integral, and `rref` divides once
per entry at the end, so a result entry is an `int` exactly when it is
integral.  Over F_p the rows are reduced ints.  Pivot rows are chosen by
minimal fill (fewest nonzeros, ties by position); scaling a row by a nonzero
integer keeps its nonzero pattern, so every reduction is deterministic: the
pivot order depends only on the entries and their positions, never on hash
order, and results are bit-reproducible across runs and hash seeds.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionError, NotSurjectiveError, StructuralError
from .field import Field, Scalar, check_same_field


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, nrows: int, ncols: int, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows  # list[dict[int, Scalar]], zeros omitted

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, ncols, [dict() for _ in range(nrows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        one = field.one()
        return Matrix(field, n, n, [{i: one} for i in range(n)])

    @staticmethod
    def from_rows(field: Field, data: Sequence[Sequence]) -> "Matrix":
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        rows = []
        for r in data:
            if len(r) != ncols:
                raise DimensionError("ragged rows")
            rows.append({j: field.from_int(v) if isinstance(v, int) else v
                         for j, v in enumerate(r) if v})
        return Matrix(field, nrows, ncols, rows)

    @staticmethod
    def from_entries(field: Field, nrows: int, ncols: int, entries) -> "Matrix":
        rows = [dict() for _ in range(nrows)]
        for (i, j), v in entries.items():
            if v:
                rows[i][j] = v
        return Matrix(field, nrows, ncols, rows)

    @staticmethod
    def from_columns(field: Field, nrows: int, cols: Sequence[Sequence]) -> "Matrix":
        rows = [dict() for _ in range(nrows)]
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise DimensionError("column length mismatch")
            for i, v in enumerate(col):
                if v:
                    rows[i][j] = v
        return Matrix(field, nrows, len(cols), rows)

    # -- basic access ------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i].get(j, self.field.zero())

    def column(self, j: int) -> tuple:
        z = self.field.zero()
        return tuple(self.rows[i].get(j, z) for i in range(self.nrows))

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self):
        return "Matrix(%dx%d over %s, %d nnz)" % (
            self.nrows, self.ncols, self.field.descriptor(), self.nnz())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, self.field.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, self.field.sub)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        """self op other in one pass over other's entries, dropping entries that cancel."""
        self._check_shape(other)
        zero = self.field.zero()
        rows = []
        for ra, rb in zip(self.rows, other.rows):
            r = dict(ra)
            for j, v in rb.items():
                s = op(r.get(j, zero), v)
                if s:
                    r[j] = s
                else:
                    r.pop(j, None)
            rows.append(r)
        return Matrix(self.field, self.nrows, self.ncols, rows)

    def __neg__(self) -> "Matrix":
        return self.scale(self.field.from_int(-1))

    def scale(self, c: Scalar) -> "Matrix":
        f = self.field
        if not c:
            return Matrix.zeros(f, self.nrows, self.ncols)
        if c == 1:
            return Matrix(f, self.nrows, self.ncols, [dict(r) for r in self.rows])
        return Matrix(f, self.nrows, self.ncols,
                      [{j: f.mul(c, v) for j, v in r.items()} for r in self.rows])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        check_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise DimensionError("cannot multiply %dx%d by %dx%d"
                                 % (self.nrows, self.ncols, other.nrows, other.ncols))
        # the field arithmetic is written inline: reduction mod p, and over Q
        # `Field.add`, which returns an integral sum as an int
        f = self.field
        p = f.char
        add = f.add
        orows = other.rows
        out = []
        for ra in self.rows:
            acc: dict = {}
            for k, a in ra.items():
                for j, b in orows[k].items():
                    s = (acc.get(j, 0) + a * b) % p if p else add(acc.get(j, 0), a * b)
                    if s:
                        acc[j] = s
                    else:
                        acc.pop(j, None)
            out.append(acc)
        return Matrix(f, self.nrows, other.ncols, out)

    def apply(self, vec: Sequence[Scalar]) -> tuple:
        if len(vec) != self.ncols:
            raise DimensionError("vector length %d, expected %d" % (len(vec), self.ncols))
        f = self.field
        out = []
        for row in self.rows:
            s = f.zero()
            for j, a in row.items():
                if vec[j]:
                    s = f.add(s, f.mul(a, vec[j]))
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Matrix":
        rows = [dict() for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                rows[j][i] = v
        return Matrix(self.field, self.ncols, self.nrows, rows)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major bases (left factor slowest)."""
        check_same_field(self.field, other.field)
        if self.nrows == self.ncols == 1:
            return other.scale(self.rows[0].get(0, 0))
        if other.nrows == other.ncols == 1:
            return self.scale(other.rows[0].get(0, 0))
        mul = self.field.mul
        q = other.ncols
        rows = []
        for ra in self.rows:
            scaled = [(j * q, a) for j, a in ra.items()]
            for rb in other.rows:
                r = {}
                for jq, a in scaled:
                    if a == 1:
                        for l, b in rb.items():
                            r[jq + l] = b
                    else:
                        for l, b in rb.items():
                            r[jq + l] = mul(a, b)
                rows.append(r)
        return Matrix(self.field, self.nrows * other.nrows, self.ncols * q, rows)

    def select_columns(self, cols: Sequence[int]) -> "Matrix":
        pos = {c: k for k, c in enumerate(cols)}
        rows = []
        for r in self.rows:
            rows.append({pos[j]: v for j, v in r.items() if j in pos})
        return Matrix(self.field, self.nrows, len(cols), rows)

    def _check_shape(self, other: "Matrix"):
        check_same_field(self.field, other.field)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionError("shape mismatch %dx%d vs %dx%d"
                                 % (self.nrows, self.ncols, other.nrows, other.ncols))


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionError("hstack of nothing")
    f, n = mats[0].field, mats[0].nrows
    rows = [dict() for _ in range(n)]
    off = 0
    for m in mats:
        if m.nrows != n:
            raise DimensionError("hstack row mismatch")
        for row, r in zip(rows, m.rows):
            row.update({off + j: v for j, v in r.items()} if off else r)
        off += m.ncols
    return Matrix(f, n, off, rows)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionError("vstack of nothing")
    f, n = mats[0].field, mats[0].ncols
    rows = []
    for m in mats:
        if m.ncols != n:
            raise DimensionError("vstack column mismatch")
        rows.extend(dict(r) for r in m.rows)
    return Matrix(f, len(rows), n, rows)


def place(field: Field, nrows: int, ncols: int, blocks) -> Matrix:
    """The nrows x ncols sum of the blocks (r0, c0, m), each m at rows r0.., columns c0...

    Overlapping blocks add, and entries that cancel are dropped.
    """
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


def times_bracket(outer: Matrix, inner: Matrix, left: int, right: int) -> Matrix:
    """outer * (I_left (x) inner (x) I_right), with no Kronecker factor formed.

    Column (i, c, k) of the factor is inner's column c at rows (i, r, k), so
    each entry of outer at column (i, r, k) scales row r of inner into columns
    (i, c, k).  Products are summed raw and normalised once per entry.
    """
    if left == right == 1:  # no identity factor: the plain product is faster
        return outer * inner
    nr, nc = inner.nrows, inner.ncols
    if outer.ncols != left * nr * right:
        raise DimensionError("cannot apply %d columns after I_%d (x) %dx%d (x) I_%d"
                             % (outer.ncols, left, nr, nc, right))
    f = outer.field
    add, zero, rows, p = f.add, f.zero(), inner.rows, f.char
    out = []
    for row in outer.rows:
        acc: dict = {}
        for j, a in row.items():
            i, rk = divmod(j, nr * right)
            r, k = divmod(rk, right)
            base = i * nc * right + k
            for c, b in rows[r].items():
                col = base + c * right
                acc[col] = acc.get(col, 0) + a * b
        if p:  # one reduction per entry; over Q, add(v, 0) restores an int
            out.append({col: s for col, v in acc.items() if (s := v % p)})
        else:
            out.append({col: s for col, v in acc.items() if (s := add(v, zero))})
    return Matrix(f, outer.nrows, left * nc * right, out)


# -- elimination core --------------------------------------------------------


def _clear(row: dict, prow: dict, col: int, p: int, pinv):
    """`row` with its entry at `col` cleared against the pivot row `prow`.

    Over F_p (pinv the inverse of the pivot a = prow[col]) this is
    row - (b * pinv) * prow mod p, with b = row[col].  Over Q both are
    integer rows: with g = gcd(a, b) the update is (a/g) * row - (b/g) * prow,
    which stays integral, and a row that was actually scaled (|a/g| != 1)
    is divided by the gcd of its entries.  Either way the result is a
    nonzero multiple of the Gaussian row, with the same nonzero pattern.
    `row` may be updated in place.
    """
    b = row.pop(col)
    if p:
        q = b * pinv % p
        for j, pv in prow.items():
            if j != col:
                v = (row.get(j, 0) - q * pv) % p
                if v:
                    row[j] = v
                else:
                    del row[j]
        return row
    a = prow[col]
    q, rem = divmod(b, a)
    if rem:
        g = gcd(a, b)
        row = {j: v * (a // g) for j, v in row.items()}
        q = b // g
    for j, pv in prow.items():
        if j != col:
            v = row.get(j, 0) - q * pv
            if v:
                row[j] = v
            else:
                del row[j]
    if rem and row:
        c = gcd(*row.values())
        if c > 1:
            row = {j: v // c for j, v in row.items()}
    return row


def _echelon(field: Field, rows: list, ncols: int):
    """Forward-eliminate a copy of `rows`; returns (pivot columns, pivot rows).

    One elimination loop for Q and F_p.  Over Q it is fraction-free: the
    field scales each row to integers once (`Field.integral_rows`) and
    `_clear` keeps them integral, so every row is a nonzero multiple of the
    Gaussian one.  At each column the pivot is the candidate row (an unused
    row that meets the column) with the fewest nonzeros, ties broken by
    position; the other candidates are the only rows that need an update.
    Pivot rows are returned in pivot order, not normalized.
    """
    work = field.integral_rows(rows)
    p = field.char
    pivcols = []
    pivrows = []
    used = [False] * len(work)
    for col in range(ncols):
        cand = [i for i in range(len(work)) if not used[i] and col in work[i]]
        if not cand:
            continue
        piv = min(cand, key=lambda i: (len(work[i]), i))
        used[piv] = True
        pivcols.append(col)
        pivrows.append(piv)
        prow = work[piv]
        pinv = field.inv(prow[col]) if p else None
        for i in cand:
            if i != piv:
                work[i] = _clear(work[i], prow, col, p, pinv)
    return pivcols, [work[i] for i in pivrows]


def rref(field: Field, rows: list, ncols: int):
    """Reduced row echelon form; returns (pivot columns, reduced rows).

    Back-substitution runs on the unnormalized pivot rows of `_echelon`
    (integer rows over Q); each reduced row is then divided by its pivot
    entry, one division per entry.
    """
    pivcols, ech = _echelon(field, rows, ncols)
    p = field.char
    for k in range(len(pivcols) - 1, 0, -1):
        col = pivcols[k]
        prow = ech[k]
        pinv = field.inv(prow[col]) if p else None
        for i in range(k):
            if col in ech[i]:
                ech[i] = _clear(ech[i], prow, col, p, pinv)
    return pivcols, [field.divide_row(r, r[col]) for r, col in zip(ech, pivcols)]


def rank(m: Matrix) -> int:
    if m.nrows > m.ncols:  # eliminate the shorter side
        m = m.transpose()
    pivcols, _ = _echelon(m.field, m.rows, m.ncols)
    return len(pivcols)


def kernel_basis(m: Matrix) -> list:
    """Canonical kernel basis from the RREF, one vector per free column."""
    f = m.field
    pivcols, red = rref(f, m.rows, m.ncols)
    pivset = dict(zip(pivcols, range(len(pivcols))))
    basis = []
    for free in range(m.ncols):
        if free in pivset:
            continue
        vec = [f.zero()] * m.ncols
        vec[free] = f.one()
        for col, k in pivset.items():
            v = red[k].get(free)
            if v:
                vec[col] = f.neg(v)
        basis.append(tuple(vec))
    return basis


class Subspace:
    """Subspace of F^ambient given by a canonical (column-reduced) basis.

    Canonical form: basis column k is 1 at row `pivots[k]` and 0 at every
    other pivot row (the transposed RREF of any spanning set).  Hence a vector
    v lies in the span iff v = sum_k v[pivots[k]] * column k, which is what
    `contains` tests and what the projection built by `quotient` encodes.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int, basis: Matrix, pivots: Sequence[int]):
        self.field = field
        self.ambient = ambient
        self.basis = basis  # ambient x dim, canonical form
        self.pivots = tuple(pivots)  # pivots[k]: the pivot row of column k

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, Matrix.zeros(field, ambient, 0), ())

    @staticmethod
    def full(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, Matrix.identity(field, ambient), range(ambient))

    @staticmethod
    def from_columns(field: Field, ambient: int, cols: Iterable[Sequence[Scalar]]) -> "Subspace":
        cols = list(cols)
        for c in cols:
            if len(c) != ambient:
                raise DimensionError("spanning vector has length %d, ambient %d"
                                     % (len(c), ambient))
        return Subspace._span(field, ambient, [{j: v for j, v in enumerate(c) if v}
                                               for c in cols])

    @staticmethod
    def from_matrix_columns(m: Matrix) -> "Subspace":
        return Subspace._span(m.field, m.nrows, m.transpose().rows)

    @staticmethod
    def _span(field: Field, ambient: int, rows: list) -> "Subspace":
        """Canonical basis of the span of sparse vectors (dicts, zeros omitted)."""
        pivcols, red = rref(field, rows, ambient)
        basis = Matrix.zeros(field, ambient, len(red))
        for k, r in enumerate(red):
            for j, v in r.items():
                basis.rows[j][k] = v
        return Subspace(field, ambient, basis, pivcols)

    @property
    def dim(self) -> int:
        return self.basis.ncols

    def contains(self, vec: Sequence[Scalar]) -> bool:
        """One pass over the basis: v == sum_k v[pivots[k]] * column k.

        The canonical form makes the identity hold on the pivot rows for any
        v, so only the other rows are compared.
        """
        if len(vec) != self.ambient:
            raise DimensionError("vector length mismatch")
        f = self.field
        coef = [vec[r] for r in self.pivots]
        pivots = set(self.pivots)
        for i, row in enumerate(self.basis.rows):
            # f.sub reduces the unreduced F_p sum; over Q the sum is exact
            if i not in pivots and \
                    f.sub(vec[i], sum(b * coef[k] for k, b in row.items() if coef[k])):
                return False
        return True

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise DimensionError("ambient mismatch")
        aug = hstack([self.basis, other.basis])
        return rank(aug) == self.dim

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise DimensionError("ambient mismatch")
        return Subspace.from_matrix_columns(hstack([self.basis, other.basis]))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient == other.ambient and self.basis == other.basis)

    def __repr__(self):
        return "Subspace(dim %d in F^%d)" % (self.dim, self.ambient)


def kernel(m: Matrix) -> Subspace:
    """Columns spanning {v : m v = 0}; dim = cols - rank."""
    vecs = kernel_basis(m)
    zero = tuple([m.field.zero()] * m.nrows)
    for v in vecs:
        if m.apply(v) != zero:
            raise StructuralError("kernel vector not annihilated")
    sub = Subspace.from_columns(m.field, m.ncols, vecs)
    if sub.dim != len(vecs):
        raise DimensionError("kernel basis of %d vectors spans dimension %d"
                             % (len(vecs), sub.dim))
    return sub


def image(m: Matrix) -> Subspace:
    """Canonical basis of the column space; dim = rank."""
    sub = Subspace.from_matrix_columns(m)
    if sub.dim > min(m.nrows, m.ncols):
        raise DimensionError("image of a %dx%d matrix has dimension %d"
                             % (m.nrows, m.ncols, sub.dim))
    return sub


def kernel_and_image(m: Matrix):
    """Both at once, with the rank-nullity identity checked."""
    ker = kernel(m)
    im = image(m)
    if ker.dim + im.dim != m.ncols:
        raise DimensionError("rank-nullity violated")
    return ker, im


def solve_matrix(m: Matrix, b: Matrix):
    """Deterministic X with m X = b (free variables 0), or None."""
    check_same_field(m.field, b.field)
    if b.nrows != m.nrows:
        raise DimensionError("rhs has %d rows, expected %d" % (b.nrows, m.nrows))
    f = m.field
    aug_rows = [dict(r) for r in m.rows]
    for i, r in enumerate(b.rows):
        for j, v in r.items():
            aug_rows[i][m.ncols + j] = v
    pivcols, red = rref(f, aug_rows, m.ncols + b.ncols)
    if any(c >= m.ncols for c in pivcols):
        return None  # inconsistent system
    sol = Matrix.zeros(f, m.ncols, b.ncols)
    for k, col in enumerate(pivcols):
        for j, v in red[k].items():
            if j >= m.ncols and v:
                sol.rows[col][j - m.ncols] = v
    return sol


def solve(m: Matrix, rhs: Sequence[Scalar]):
    sol = solve_matrix(m, Matrix.from_columns(m.field, m.nrows, [list(rhs)]))
    return None if sol is None else sol.column(0)


def section_of_surjection(m: Matrix) -> Matrix:
    """Right inverse s with m s = identity; raises if m is not surjective."""
    if rank(m) != m.nrows:
        raise NotSurjectiveError("matrix %dx%d has rank < %d, no section"
                                 % (m.nrows, m.ncols, m.nrows))
    s = solve_matrix(m, Matrix.identity(m.field, m.nrows))
    if s is None or m * s != Matrix.identity(m.field, m.nrows):
        raise NotSurjectiveError("no right inverse found for a %dx%d matrix of full row rank"
                                 % (m.nrows, m.ncols))
    return s


class QuotientPresentation:
    """Quotient of F^ambient by a subspace: projection with that exact kernel."""

    __slots__ = ("field", "ambient", "dim", "projection", "section", "sub")

    def __init__(self, field, ambient, dim, projection, section, sub):
        self.field = field
        self.ambient = ambient
        self.dim = dim
        self.projection = projection  # dim x ambient, surjective, kernel = sub
        self.section = section        # ambient x dim, projection*section = id
        self.sub = sub

    def __repr__(self):
        return "Quotient(F^%d -> F^%d)" % (self.ambient, self.dim)


def quotient(ambient_dim: int, sub: Subspace) -> QuotientPresentation:
    """Pointwise quotient: surjective projection whose kernel is exactly sub.

    Uses the complement of the pivot coordinates of the canonical basis, so
    the projection and its section are deterministic.
    """
    if sub.ambient != ambient_dim:
        raise DimensionError("subspace ambient %d does not match %d"
                             % (sub.ambient, ambient_dim))
    f = sub.field
    basis = sub.basis
    pivot_rows = sub.pivots
    pivset = set(pivot_rows)
    comp = [i for i in range(ambient_dim) if i not in pivset]
    dim = len(comp)
    proj = Matrix.zeros(f, dim, ambient_dim)
    for k, c in enumerate(comp):
        proj.rows[k][c] = f.one()
        for j, v in basis.rows[c].items():
            proj.rows[k][pivot_rows[j]] = f.neg(v)
    sec = Matrix.zeros(f, ambient_dim, dim)
    for k, c in enumerate(comp):
        sec.rows[c][k] = f.one()
    return checked_quotient(sub, proj, sec)


def checked_quotient(sub: Subspace, proj: Matrix, sec: Matrix) -> QuotientPresentation:
    """The quotient by sub along proj and sec, once proj kills sub and sec splits proj."""
    if not (proj * sub.basis).is_zero():
        raise StructuralError("projection does not kill the subspace")
    if proj * sec != Matrix.identity(sub.field, proj.nrows):
        raise StructuralError("section does not split the projection")
    return QuotientPresentation(sub.field, sub.ambient, proj.nrows, proj, sec, sub)


def descend(m: Matrix, q: QuotientPresentation, left: int = 1, right: int = 1):
    """The map m induces on I_left (x) q (x) I_right, or None if there is none.

    m descends exactly when it kills I (x) q.sub.basis (x) I, and the induced
    map is then m * (I (x) q.section (x) I), both taken by `times_bracket`;
    every checked descent goes through here.
    """
    if not times_bracket(m, q.sub.basis, left, right).is_zero():
        return None
    return times_bracket(m, q.section, left, right)
