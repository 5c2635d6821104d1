"""Chain complexes of graded cells, homology, and contracting homotopies.

A term is a family of cell dimensions; a differential is a `GradedMap` whose
blocks may raise the internal degree by several different shifts (one per
generator degree).  Homology is computed independently per (object, degree)
cell; a cell is certified only when every block leaving it stays under the
cap.  A single-shift map ranks each of its blocks once: the block entering
cell (x, d) is the block leaving (x, d - s), and both cells read the one
rank; where `dd_certificate` has certified d o d on two such maps, out * in
at a cell is a composite block it has checked, and the cell reads nothing
else.  Contracting homotopies are built chainwise and checked term by term,
d_{p+1} h_p = 1 - h_{p-1} d_p, so a split certificate is an exact matrix
identity dh + hd = id on every certified cell.  h_p is a closed form the
caller hands in (the divided differences of `koszul_bimodule_resolution`),
read only on a complex whose d o d is certified, or else solved for, one
solve per term; a chain on which the closed form fails its check is solved
from its first term, so the verdict is the solving route's.  A chain whose
spaces and blocks equal an earlier chain's within one call reuses that
chain's certificate.  `certify_split` is the one place a resolution is
certified split exact.  A `CopyMap` sends copies of a base identically onto
copies, so composing with one moves rows or renumbers columns and
multiplies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, StructuralError, WindowError
from .matrix import (
    Matrix,
    hstack,
    rank,
    solve_matrix,
    vstack,
)


@dataclass
class Term:
    """A graded term: its cell dimensions, and the copies it is made of.

    A term of copies has one copy of `base` (anything with `dims` and
    `dim(obj, deg)`: a carrier or a `GradedTensor`) per entry of `summands`,
    laid out copy-major within every cell; `Term.copies` is the one place its
    dims are counted.  A plain term leaves both fields None.
    """

    label: str
    dims: dict                      # (obj, deg) -> int
    summands: list = None
    base: object = None

    @classmethod
    def copies(cls, label, base, summands) -> "Term":
        summands = list(summands)
        return cls(label, {cell: len(summands) * dim for cell, dim in base.dims.items()},
                   summands, base)

    def dim(self, obj, deg) -> int:
        return self.dims.get((obj, deg), 0)


class GradedMap:
    """Blockwise map between graded terms, keyed (obj, src_deg, tgt_deg).

    A single-shift map keeps the rank of each block it has ranked in `ranks`,
    keyed by source cell, so the memo lives and dies with the map.
    """

    __slots__ = ("field", "src", "tgt", "blocks", "shifts", "ranks")

    def __init__(self, field, src: Term, tgt: Term, blocks: dict):
        self.field = field
        self.src = src
        self.tgt = tgt
        self.blocks = {}
        shifts = set()
        for (x, ds, dt), m in blocks.items():
            if m.nrows != tgt.dim(x, dt) or m.ncols != src.dim(x, ds):
                raise DimensionError("block (%s,%d,%d) has shape %dx%d, want %dx%d"
                                     % (x, ds, dt, m.nrows, m.ncols,
                                        tgt.dim(x, dt), src.dim(x, ds)))
            self.blocks[(x, ds, dt)] = m
            shifts.add(dt - ds)
        self.shifts = frozenset(shifts) if shifts else frozenset({0})
        self.ranks = {}  # (obj, source degree) -> rank of the block leaving it

    def block(self, x, ds, dt) -> Matrix:
        m = self.blocks.get((x, ds, dt))
        if m is None:
            m = Matrix.zeros(self.field, self.tgt.dim(x, dt), self.src.dim(x, ds))
        return m

    def single_shift(self) -> int:
        if len(self.shifts) != 1:
            raise WindowError("map has mixed degree shifts %s" % sorted(self.shifts))
        return next(iter(self.shifts))

    def out_matrix(self, x, d) -> Matrix:
        """All blocks leaving cell (x, d), stacked over ascending target degree."""
        parts = [self.block(x, d, d + s) for s in sorted(self.shifts)]
        return vstack(parts) if parts else Matrix.zeros(self.field, 0, self.src.dim(x, d))

    def in_matrix(self, x, d) -> Matrix:
        """All blocks entering cell (x, d), side by side over ascending source degree."""
        parts = [self.block(x, d - s, d) for s in sorted(self.shifts) if d - s >= 0]
        return hstack(parts) if parts else Matrix.zeros(self.field, self.tgt.dim(x, d), 0)

    def out_rank(self, x, d) -> int:
        """rank(out_matrix(x, d)), kept per source cell when the map has one shift."""
        if len(self.shifts) != 1:
            return rank(self.out_matrix(x, d))
        if (x, d) not in self.ranks:
            self.ranks[(x, d)] = rank(self.block(x, d, d + self.single_shift()))
        return self.ranks[(x, d)]

    def in_rank(self, x, d) -> int:
        """rank(in_matrix(x, d)); with one shift s, the rank of the block leaving (x, d - s)."""
        if len(self.shifts) != 1:
            return rank(self.in_matrix(x, d))
        return self.out_rank(x, d - self.single_shift())

    def compose(self, inner: "GradedMap") -> "GradedMap":
        """self after inner; only stored-block paths contribute."""
        blocks = {}
        for (x, d0, dm), m_in in inner.blocks.items():
            for s in self.shifts:
                key = (x, dm, dm + s)
                if key in self.blocks:
                    acc = self.blocks[key] * m_in
                    tgt_key = (x, d0, dm + s)
                    if tgt_key in blocks:
                        blocks[tgt_key] = blocks[tgt_key] + acc
                    else:
                        blocks[tgt_key] = acc
        return GradedMap(self.field, inner.src, self.tgt, blocks)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def nonzero_cells(self):
        return sorted({(x, ds) for (x, ds, dt), m in self.blocks.items() if not m.is_zero()})

    def scale(self, c) -> "GradedMap":
        return GradedMap(self.field, self.src, self.tgt,
                         {k: m.scale(c) for k, m in self.blocks.items()})

    def add(self, other: "GradedMap") -> "GradedMap":
        blocks = dict(self.blocks)
        for k, m in other.blocks.items():
            blocks[k] = blocks[k] + m if k in blocks else m
        return GradedMap(self.field, self.src, self.tgt, blocks)


class CopyMap:
    """Copy s of `src` sent identically onto copy t of `tgt`, one pair (s, t) per copy moved.

    Both terms come from `Term.copies` on one base, laid out copy-major: copy
    k of a cell covers rows k*b .. (k+1)*b - 1, b the base dimension there.
    So composing a graded map with a copy map only moves row slices
    (`move_rows`) or renumbers columns (`move_columns`), with no field
    arithmetic.  The pairs must form a partial injection, no source and no
    target copy repeated: a repeat would make the product a sum, which
    neither move forms, so the constructor refuses one.
    """

    __slots__ = ("src", "tgt", "pairs")

    def __init__(self, src: Term, tgt: Term, pairs):
        if src.base is not tgt.base:
            raise DimensionError("copy map between copies of two bases")
        self.src = src
        self.tgt = tgt
        self.pairs = list(pairs)
        for side, name in ((0, "source"), (1, "target")):
            copies = [pair[side] for pair in self.pairs]
            if len(set(copies)) != len(copies):
                raise DimensionError("copy map repeats a %s copy: %s" % (name, self.pairs))

    def compose(self, inner: "CopyMap") -> "CopyMap":
        """self after inner: copy s goes to self's image of inner's image of s."""
        outer = dict(self.pairs)
        return CopyMap(inner.src, self.tgt,
                       [(s, outer[t]) for s, t in inner.pairs if t in outer])

    def move_rows(self, gmap: GradedMap) -> GradedMap:
        """self after gmap: the rows of source copy s of each block become those of copy t."""
        _check_copies(gmap.tgt, self.src)
        base, size = self.src.base, len(self.tgt.summands)
        blocks = {}
        for (x, ds, dt), m in gmap.blocks.items():
            b = base.dim(x, dt)
            rows = [None] * (size * b)
            for s, t in self.pairs:
                rows[t * b:(t + 1) * b] = [dict(r) for r in m.rows[s * b:(s + 1) * b]]
            blocks[(x, ds, dt)] = Matrix(gmap.field, size * b, m.ncols,
                                         [{} if r is None else r for r in rows])
        return GradedMap(gmap.field, gmap.src, self.tgt, blocks)

    def move_columns(self, gmap: GradedMap) -> GradedMap:
        """gmap after self: column o of target copy t of each block becomes column o of copy s."""
        _check_copies(gmap.src, self.tgt)
        base, size = self.src.base, len(self.src.summands)
        renumber = {}  # base dimension -> {old column: new column}
        blocks = {}
        for (x, ds, dt), m in gmap.blocks.items():
            b = base.dim(x, ds)
            if b not in renumber:
                renumber[b] = {t * b + o: s * b + o for s, t in self.pairs for o in range(b)}
            cols = renumber[b]
            blocks[(x, ds, dt)] = Matrix(gmap.field, m.nrows, size * b,
                                         [{cols[j]: v for j, v in r.items() if j in cols}
                                          for r in m.rows])
        return GradedMap(gmap.field, self.src, gmap.tgt, blocks)


def _check_copies(term: Term, want: Term):
    if term.dims != want.dims:
        raise DimensionError("copy map meets a term of dims %s, want %s"
                             % (sorted(term.dims.items()), sorted(want.dims.items())))


class ChainComplex:
    """Terms indexed 0..length with differentials d_p: term p -> term p-1.

    `certified[p]` holds the single-shift maps (d_{p-1}, d_p) whose composite
    `dd_certificate` last found zero, trusted only while `diffs` holds those
    same objects.  No consumer mutates the blocks of a certified map.
    """

    __slots__ = ("cat", "field", "cap", "terms", "diffs", "certified")

    def __init__(self, cat, cap, terms, diffs):
        self.cat = cat
        self.field = cat.field
        self.cap = cap
        self.terms = list(terms)
        self.diffs = list(diffs)  # diffs[0] is None
        if len(self.diffs) != len(self.terms):
            raise DimensionError("need one differential slot per term")
        self.certified = {}

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def dd_certificate(self):
        """Check d o d = 0 on every composable pair; returns (ok, cells, bad)."""
        ok = True
        cells = 0
        bad = []
        for p in range(2, len(self.terms)):
            comp = self.diffs[p - 1].compose(self.diffs[p])
            cells += len(comp.blocks)
            self.certified.pop(p, None)
            if not comp.is_zero():
                ok = False
                bad.append((p, comp.nonzero_cells()))
            elif len(self.diffs[p - 1].shifts) == len(self.diffs[p].shifts) == 1:
                self.certified[p] = (self.diffs[p - 1], self.diffs[p])
        return ok, cells, bad

    def homology_window(self, p: int) -> int:
        """Largest internal degree at which H_p is fully certified."""
        out_shift = max(self.diffs[p].shifts) if p >= 1 and self.diffs[p] else 0
        return self.cap - out_shift

    def homology_cell(self, p: int, x, d: int):
        """dim ker - dim im at one cell; the ranks alone if d_p o d_{p+1} is certified."""
        d_out = self.diffs[p] if p >= 1 else None
        d_in = self.diffs[p + 1] if p + 1 < len(self.terms) else None
        if self.certified.get(p + 1) == (d_out, d_in):
            return self.terms[p].dim(x, d) - d_out.out_rank(x, d) - d_in.in_rank(x, d)
        return cell_homology(self.terms[p].dim(x, d), d_out, d_in, x, d, p)

    def homology_dims(self, p: int, degrees, parallel_map=map):
        """Homology dimensions over a degree window, cellwise."""
        win = self.homology_window(p)
        for d in degrees:
            if d < 0 or d > win:
                raise WindowError("degree %d outside certified window 0..%d for p=%d"
                                  % (d, win, p))
        cells = [(x, d) for d in degrees for x in self.cat.objects]
        dims = list(parallel_map(lambda cell: self.homology_cell(p, *cell), cells))
        return {cell: h for cell, h in zip(cells, dims)}


def cell_homology(dim: int, d_out, d_in, x, d: int, p: int) -> int:
    """dim ker out - dim im in at cell (x, d), counted as dim - rank(out) - rank(in).

    out = d_out.out_matrix(x, d) leaves the cell and in = d_in.in_matrix(x, d)
    enters it; either map may be None.  Raises first unless out * in = 0 (im in
    lies in ker out), the containment that makes the rank count a dimension.
    The ranks come from the maps; p is the index the error names.
    """
    if d_out is not None and d_in is not None and \
            not (d_out.out_matrix(x, d) * d_in.in_matrix(x, d)).is_zero():
        raise StructuralError("boundaries escape cycles at p=%d cell (%s,%d)" % (p, x, d))
    h = dim
    if d_out is not None:
        h -= d_out.out_rank(x, d)
    if d_in is not None:
        h -= d_in.in_rank(x, d)
    return h


@dataclass
class HomotopyCertificate:
    ok: bool
    cells_checked: int
    detail: str


def contracting_homotopy(cx: ChainComplex, candidate=None) -> HomotopyCertificate:
    """Build h with dh + hd = id chainwise; certifies the complex splits.

    Works when every differential has a single degree shift.  Chains are
    anchored at term-0 cells; a chain anchored at degree d0 within the cap is
    entirely stored, so the certificate covers every anchored cell.  Within a
    chain, a term with no solution is reported before a failed identity.  A
    chain whose spaces and blocks equal those of a chain certified earlier in
    this call has the same homotopy, so it is counted without being solved
    again; the certified chains are kept only for the length of the call.

    candidate(p, x, d), when given, is a closed-form h_p on the cell (x, d) of
    term p, taken in place of a solve (`_chain_homotopy`).  It is read only
    where `dd_certificate` has recorded d o d = 0 on every pair of these very
    maps: there a candidate that passes every check proves the chain split
    exact, so the solves would pass too, with the same counts.
    """
    field = cx.field
    shifts = [None] + [cx.diffs[p].single_shift() for p in range(1, len(cx.terms))]
    if candidate is not None and not all(cx.certified.get(p) == (cx.diffs[p - 1], cx.diffs[p])
                                         for p in range(2, len(cx.terms))):
        candidate = None
    checked = 0
    certified = {}  # spaces -> the block lists of the chains certified with them
    for x in cx.cat.objects:
        for d0 in range(cx.cap + 1):
            degs = [d0]
            for p in range(1, len(cx.terms)):
                degs.append(degs[-1] - shifts[p])
            spaces = tuple(cx.terms[p].dim(x, degs[p]) if degs[p] >= 0 else 0
                           for p in range(len(cx.terms)))
            mats = [None]
            for p in range(1, len(cx.terms)):
                if degs[p] < 0:
                    mats.append(Matrix.zeros(field, spaces[p - 1], 0))
                else:
                    mats.append(cx.diffs[p].block(x, degs[p], degs[p - 1]))
            seen = certified.setdefault(spaces, [])
            if mats in seen:
                checked += sum(1 for v in spaces if v)
                continue
            hs, bad = _chain_homotopy(field, spaces, mats, None if candidate is None else
                                      lambda p, x=x, degs=degs: candidate(p, x, degs[p]))
            if hs is None:
                return HomotopyCertificate(False, checked,
                                           "no contracting homotopy along chain (%s, %d)"
                                           % (x, d0))
            # every nonzero cell below the first failing term (all when none fails)
            checked += sum(1 for v in spaces[:bad] if v)
            if bad is not None:
                return HomotopyCertificate(False, checked,
                                           "dh + hd != id at term %d cell (%s, %d)"
                                           % (bad, x, degs[bad]))
            seen.append(mats)
    return HomotopyCertificate(True, checked, "dh + hd = id on all %d cells" % checked)


def _chain_homotopy(field, spaces, mats, candidate=None):
    """Homotopy for one chain 0 -> V_N -> ... -> V_0 -> 0, checked as it is built.

    mats[p]: V_p -> V_{p-1}.  Returns (hs, bad): hs = [h_0, ..., h_{N-1}]
    with h_p: V_p -> V_{p+1}, or None when the chain is not exact; bad is the
    first term at which dh + hd = id fails, or None.

    Construction: h_{-1} = 0 and h_p solves d_{p+1} h_p = e_p, where
    e_p = 1 - h_{p-1} d_p.  When the identity holds at p-1, e_p is idempotent
    with d_p e_p = 0 and e_p = 1 on ker d_p, so its image is exactly the
    cycles Z_p; a solution exists exactly when every cycle of V_p is a
    boundary.  The identity at p < N is d_{p+1} h_p = e_p, checked against
    the solver's answer; at the top it is e_N = 0, which needs ker d_N = 0.
    With candidate, h_p is candidate(p) and no solve runs; the same checks
    apply, and at the first that fails the chain is solved from h_0 as above.
    """
    hs, bad = [], None
    top = len(spaces) - 1
    for p in range(top + 1):
        e = Matrix.identity(field, spaces[p])
        if p >= 1:
            e = e - hs[p - 1] * mats[p]
        if p == top:
            ok = e.is_zero()
        else:
            h = solve_matrix(mats[p + 1], e) if candidate is None else candidate(p)
            if h is None:
                return None, None  # some cycle is not a boundary: not exact here
            hs.append(h)
            ok = mats[p + 1] * h == e
        if not ok:
            if candidate is not None:
                return _chain_homotopy(field, spaces, mats)
            if bad is None:
                bad = p
    return hs, bad


def certify_split(report, cx: ChainComplex, dd_name: str, candidate=None):
    """Certify in `report` that cx is a complex with a contracting homotopy.

    Adds the d o d = 0 certificate under `dd_name`, the `contracting-homotopy`
    certificate with its `cells_checked` witness, and one entry per term cell.
    candidate is a closed-form homotopy for `contracting_homotopy`, which
    checks it where this d o d certificate passed and solves elsewhere.
    """
    ok, cells, _ = cx.dd_certificate()
    report.add_certificate(dd_name, ok, detail="%d composite blocks" % cells)
    hcert = contracting_homotopy(cx, candidate)
    report.add_certificate("contracting-homotopy", hcert.ok, detail=hcert.detail,
                           witness={"cells_checked": hcert.cells_checked})
    for p, term in enumerate(cx.terms):
        for (x, d) in sorted(term.dims):
            report.add_entry(p, x, d, term.dim(x, d))
