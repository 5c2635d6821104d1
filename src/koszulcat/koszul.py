"""The Koszul complex of a central tuple, its homology, and the split data.

The p-th term is one copy of the monoid per p-element subset of {1..n},
subsets ordered lexicographically as sorted tuples.  The differential on the
summand of S = {i_1 < ... < i_p} is the alternating sum of multiplications by
the chosen elements, the k-th component (sign (-1)^(k+1)) landing in the
summand of S minus {i_k}.  The bottom map is the row of multiplication
operators whose image is the generated ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .complexes import ChainComplex, CopyMap, GradedMap, Term
from .errors import DimensionError, NotCentralError, PreconditionError, WrongObjectError
from .matrix import Matrix
from .monoid import (
    Monoid,
    is_central,
    mult_operator,
    regular_bimodule,
    is_regular_sequence,
)
from .report import Certificate, GradedReport


def subsets_lex(n: int, p: int):
    """p-element subsets of {1..n} as sorted tuples in lexicographic order."""
    return list(combinations(range(1, n + 1), p))


def koszul_faces(n: int, p: int):
    """The faces of the p-th Koszul differential, one per element of each subset.

    For every p-subset S = {i_1 < ... < i_p} (summand index s) and every k,
    yields (s, t, (-1)^(k+1), i_k) with t the summand index of S minus {i_k}
    among the (p-1)-subsets.
    """
    tgt_index = {sub: t for t, sub in enumerate(subsets_lex(n, p - 1))}
    return [(s, tgt_index[sub[:k] + sub[k + 1:]], 1 if k % 2 == 0 else -1, i)
            for s, sub in enumerate(subsets_lex(n, p)) for k, i in enumerate(sub)]


def summand_map(field, src_term: Term, tgt_term: Term, faces, cells) -> GradedMap:
    """The map between two terms of copies given by signed faces.

    Both terms come from `Term.copies`: each is one copy of its `base` per
    entry of its `summands`, laid out copy-major within every cell.
    `cells[i]` is a pair (shift, {(x, d): Matrix}) of a map from one source
    copy to one target copy raising the degree by shift; face (s, t, sign, i)
    writes sign * cells[i][(x, d)], sign +1 or -1, row by row at block (t, s)
    of the cell map (x, d) -> (x, d + shift).  A face cell whose shape is not
    one copy to one copy, a face naming no copy, or a second face of one shift
    on (s, t) raises DimensionError naming the face.
    """
    out = {}  # (x, ds, dt) -> the rows of that cell map
    written = set()  # (s, t, shift) of every face so far
    neg = field.neg
    for s, t, sign, i in faces:
        shift, per_cell = cells[i]
        if (s, t, shift) in written or s >= len(src_term.summands) or \
                t >= len(tgt_term.summands):
            raise DimensionError("face (%d, %d, %d, %s) repeats a block or names no copy"
                                 % (s, t, sign, i))
        written.add((s, t, shift))
        for (x, d), mat in per_cell.items():
            rows, cols = tgt_term.base.dim(x, d + shift), src_term.base.dim(x, d)
            if (mat.nrows, mat.ncols) != (rows, cols):
                raise DimensionError("face (%d, %d, %d, %s) at (%s, %d) has shape %dx%d, "
                                     "expected %dx%d" % (s, t, sign, i, x, d, mat.nrows,
                                                         mat.ncols, rows, cols))
            if (x, d, d + shift) not in out:
                out[(x, d, d + shift)] = [{} for _ in range(tgt_term.dim(x, d + shift))]
            c0 = s * cols
            for row, r in zip(out[(x, d, d + shift)][t * rows:(t + 1) * rows], mat.rows):
                if sign != 1:
                    row.update({c0 + j: neg(v) for j, v in r.items()})
                else:
                    row.update({c0 + j: v for j, v in r.items()} if c0 else r)
    blocks = {(x, ds, dt): Matrix(field, len(rows), src_term.dim(x, ds), rows)
              for (x, ds, dt), rows in out.items()}
    return GradedMap(field, src_term, tgt_term, blocks)


@dataclass
class KoszulComplex:
    monoid: Monoid
    alphas: list
    complex: ChainComplex
    mult_ops: dict  # alpha index (1-based) -> MultOperator

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def summands(self) -> list:
        """summands[p]: the subsets indexing the copies of term p."""
        return [t.summands for t in self.complex.terms]

    @property
    def cap(self) -> int:
        return self.complex.cap


def build_koszul(a: Monoid, alphas) -> KoszulComplex:
    """Assemble K_A(alpha) and verify the inputs are central.

    Elements may have different degrees; each block of the differential then
    raises the internal degree by the degree of its own element, and the
    certified homology window shrinks accordingly.
    """
    alphas = list(alphas)
    n = len(alphas)
    if n == 0:
        raise PreconditionError("the complex needs at least one element")
    for i, alpha in enumerate(alphas):
        if alpha.obj != a.cat.unit:
            raise WrongObjectError("alpha_%d lives at %s, not the unit object"
                                   % (i + 1, alpha.obj))
        if not is_central(a, alpha):
            raise NotCentralError("alpha_%d is not in the commutant" % (i + 1))
    module = regular_bimodule(a)
    return _assemble_koszul(a, alphas, {i + 1: mult_operator(a, alpha, module)
                                        for i, alpha in enumerate(alphas)})


def _assemble_koszul(a: Monoid, alphas: list, mult_ops: dict) -> KoszulComplex:
    """K_A(alpha) from the multiplication operators of its elements, keyed 1..n."""
    n = len(alphas)
    terms = [Term.copies("K_%d" % p, a.carrier, subsets_lex(n, p)) for p in range(n + 1)]
    ops = {i: (op.shift, op.cells) for i, op in mult_ops.items()}
    diffs = [None] + [summand_map(a.field, terms[p], terms[p - 1], koszul_faces(n, p), ops)
                      for p in range(1, n + 1)]
    return KoszulComplex(a, alphas, ChainComplex(a.cat, a.cap, terms, diffs), mult_ops)


def _koszul_report(kc: KoszulComplex, op: str, dd_detail: str, parallel_map,
                   certificates=()):
    """Open the report, certify d o d = 0, add `certificates`, then H_p for p = 0..n.

    dd_detail % (number of composite blocks) is the d o d detail.  A failed
    d o d ends the report, as homology is defined only for a complex.  Each
    H_p spans `ChainComplex.homology_window(p)`.  Returns (report, d o d = 0).
    """
    cx, a = kc.complex, kc.monoid
    report = GradedReport(
        task={"op": op, "monoid": a.name, "n": kc.n},
        field=a.field.descriptor(),
        window={"cap": cx.cap, "truncated": a.carrier.truncated},
    )
    ok, cells, bad = cx.dd_certificate()
    report.add_certificate("d-compose-d-zero", ok, detail=dd_detail % cells,
                           witness=None if ok else {"cells": [str(b) for b in bad]})
    report.certificates.extend(certificates)
    if ok:
        for p in range(kc.n + 1):
            dims = cx.homology_dims(p, range(cx.homology_window(p) + 1),
                                    parallel_map=parallel_map)
            for (x, d), h in sorted(dims.items()):
                report.add_entry(p, x, d, h)
    return report, ok


def koszul_homology_report(kc: KoszulComplex, parallel_map=map) -> GradedReport:
    """H_p for every p = 0..n over its certified window; none if d o d = 0 fails."""
    return _koszul_report(kc, "koszul-homology", "%d composite blocks checked",
                          parallel_map)[0]


@dataclass
class ResolutionCertificate:
    regular: bool
    sequence: object
    report: GradedReport

    @property
    def passed(self) -> bool:
        return self.report.all_passed


def check_resolution(a: Monoid, alphas, parallel_map=map) -> ResolutionCertificate:
    """Certify the resolution statement for a central tuple.

    If the tuple is regular (within the window), homology must vanish in
    positive degrees and H_0 must match the quotient by the generated ideal;
    if it is not regular, the report lists the homology entries and asserts no
    vanishing.  If d o d = 0 fails, the report names the failing cells and
    carries no homology.
    """
    kc = build_koszul(a, alphas)
    seq = is_regular_sequence(a, alphas)
    report, ok = _koszul_report(
        kc, "check-resolution", "%d composite blocks", parallel_map,
        [Certificate("regular-sequence", seq.regular,
                     "stages checked: %d" % len(seq.stages), seq.to_jsonable(a.field))])
    if ok and seq.regular:
        nonzero = [(e.p, e.obj, e.degree, e.dim) for e in report.entries if e.p and e.dim]
        report.add_certificate("higher-homology-vanishes", not nonzero,
                               detail="positive-degree homology in window",
                               witness=None if not nonzero else
                               {"nonzero": [list(map(str, t)) for t in nonzero]})
        report.add_certificate("h0-matches-quotient", all(
            e.dim == seq.final_dims.get((e.obj, e.degree), 0) for e in report.entries if not e.p))
    return ResolutionCertificate(seq.regular, seq, report)


# -- Pascal decomposition -------------------------------------------------------


@dataclass
class SplitWitness:
    """The certified splitting, with iota, tau and sigma kept as copy maps.

    `iota_copies[p]`: K_p^{n-1} -> K_p^n, `tau_copies[p]`: K_p^n -> K_{p-1}^{n-1}
    and `sigma_copies[p]`: K_{p-1}^{n-1} -> K_p^n, the section of tau.  The
    `iota`, `tau` and `sigma` lists of `GradedMap`s are built from them, with
    placed identity blocks, when first read.
    """

    big: KoszulComplex
    small: KoszulComplex
    iota_copies: list
    tau_copies: list
    sigma_copies: list
    report: GradedReport

    @property
    def passed(self):
        return self.report.all_passed

    @cached_property
    def iota(self) -> list:
        return [self._identity_map(c) for c in self.iota_copies]

    @cached_property
    def tau(self) -> list:
        return [self._identity_map(c) for c in self.tau_copies]

    @cached_property
    def sigma(self) -> list:
        return [self._identity_map(c) for c in self.sigma_copies]

    def _identity_map(self, copies: CopyMap) -> GradedMap:
        a = self.big.monoid
        ident = {None: (0, {cell: Matrix.identity(a.field, dim)
                            for cell, dim in a.carrier.dims.items()})}
        return summand_map(a.field, copies.src, copies.tgt,
                           [(s, t, 1, None) for s, t in copies.pairs], ident)


def summand_copies(src: Term, tgt: Term, relabel) -> CopyMap:
    """The copy map sending summand S of src onto summand relabel(S) of tgt, where that exists."""
    index = {sub: k for k, sub in enumerate(tgt.summands)}
    return CopyMap(src, tgt, [(k, index[r]) for k, sub in enumerate(src.summands)
                              for r in [relabel(sub)] if r in index])


def pascal_split(kc: KoszulComplex) -> SplitWitness:
    """Certify the binomial decomposition of the complex and its ladder.

    The first block carries the (n-1)-complex; on the second block the
    restricted differential is the small differential plus the signed
    multiplication by the last element, and the connecting map of the induced
    homology sequence is that same signed multiplication.  iota, tau and sigma
    only send copies of the monoid onto copies, so they are kept as copy maps:
    composing with one moves row slices or renumbers columns of a block of d,
    d' or L, and tau iota = 0 and tau sigma = id are read from the composed
    pairs; no matrix is multiplied.  The restriction identity is compared
    block by block, and the connecting map is certified cell by cell from it:
    where the identity holds at a cell, every cycle z of d' there lifts by
    sigma to d sigma z = (-1)^(p-1) iota L z.  The cycles so checked are
    counted as dim ker d' per cell of the window.
    """
    n = kc.n
    if n < 2:
        raise PreconditionError("the decomposition needs at least two elements")
    a = kc.monoid
    field = a.field
    small = _assemble_koszul(a, kc.alphas[:-1], {i: kc.mult_ops[i] for i in range(1, n)})
    op_n = kc.mult_ops[n]
    d, d_small = kc.complex.diffs, small.complex.diffs

    report = GradedReport(
        task={"op": "pascal-split", "monoid": a.name, "n": n},
        field=field.descriptor(),
        window={"cap": kc.cap, "truncated": a.carrier.truncated},
    )

    # iota: S -> S; tau: S -> S minus {n} when n is in S; sigma: its section
    # S' -> S' + {n}.  Indices n and -1 of `small_terms` are the zero term.
    small_terms = small.complex.terms + [Term.copies("0", a.carrier, [])]
    iota, tau, sigma = [], [], []
    for p, big in enumerate(kc.complex.terms):
        iota.append(summand_copies(small_terms[p], big, lambda s: s))
        tau.append(summand_copies(big, small_terms[p - 1],
                                  lambda s: s[:-1] if s[-1:] == (n,) else None))
        sigma.append(summand_copies(small_terms[p - 1], big, lambda s: s + (n,)))
    # L: the last multiplication on every copy of small term p, for p >= 1,
    # the terms the restriction formula reads
    l_maps = [None] + [summand_map(field, t, t, [(k, k, 1, n) for k in range(len(t.summands))],
                                   {n: (op_n.shift, op_n.cells)})
                       for t in small.complex.terms[1:]]

    # tau o iota = 0 and tau o sigma = id
    report.add_certificate("tau-iota-zero",
                           not any(tau[p].compose(iota[p]).pairs for p in range(1, n)))
    report.add_certificate("tau-sigma-identity", all(
        sorted(tau[p].compose(sigma[p]).pairs) ==
        [(k, k) for k in range(len(small_terms[p - 1].summands))] for p in range(1, n + 1)))

    # ladder squares: d o iota = iota o d' and tau o d = d' o tau
    ok_left = not any(_differing_blocks(iota[p].move_columns(d[p]),
                                        iota[p - 1].move_rows(d_small[p]))
                      for p in range(1, n))
    report.add_certificate("ladder-left-square", ok_left)
    ok_right = not any(_differing_blocks(tau[p - 1].move_rows(d[p]),
                                         tau[p].move_columns(d_small[p - 1]))
                       for p in range(2, n + 1))
    report.add_certificate("ladder-right-square", ok_right)

    # restriction to the second block: d o sigma = sigma o d' + (-1)^(p-1) iota L,
    # compared block by block; `bad` keeps (p, x, source degree) of every block
    # that differs
    bad = set()
    for p in range(2, n + 1):
        sign = field.from_int(1 if (p - 1) % 2 == 0 else -1)
        rhs = sigma[p - 1].move_rows(d_small[p - 1]).add(
            iota[p - 1].move_rows(l_maps[p - 1]).scale(sign))
        bad |= {(p, x, ds) for x, ds, _ in
                _differing_blocks(sigma[p].move_columns(d[p]), rhs)}
    report.add_certificate("restriction-formula", not bad, witness=None if not bad else
                           {"cells": ["%d,%s,%d" % cell for cell in sorted(bad)]})

    # connecting map: for a cycle z of d' at (x, d) the identity above gives
    # d sigma z = sigma d' z + (-1)^(p-1) iota L z = (-1)^(p-1) iota L z, so
    # (d sigma - (-1)^(p-1) iota L) z != 0 makes the restriction identity fail
    # at (p, x, d).  The formula holds on the lifted cycles of every window
    # cell that is not bad; the cycles there number dim ker d' per cell.
    sh = op_n.shift
    window = [(p, x, deg) for p in range(2, n + 1) for x in a.cat.objects
              for deg in range(min(small.complex.homology_window(p - 1), kc.cap - sh) + 1)]
    checked = sum(d_small[p - 1].src.dim(x, deg) - d_small[p - 1].out_rank(x, deg)
                  for p, x, deg in window)
    report.add_certificate("connecting-map-formula", bad.isdisjoint(window),
                           detail="%d lifted cycles checked" % checked,
                           witness={"cycles_checked": checked})
    return SplitWitness(kc, small, iota, tau, sigma, report)


def _differing_blocks(a: GradedMap, b: GradedMap) -> list:
    """The keys (obj, source degree, target degree) at which two graded maps differ."""
    return [key for key in set(a.blocks) | set(b.blocks) if a.block(*key) != b.block(*key)]
