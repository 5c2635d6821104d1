"""Tensor idempotence, the enveloping polynomial monoid, and Hochschild cohomology.

A commutative monoid whose multiplication is invertible plays the role of the
base field: its polynomial monoid in n variables has bimodules identified
with modules over the 2n-variable enveloping monoid, resolved by the Koszul
complex of the variable differences.  Cohomology of those resolutions is
computed through the free-module identification, whose cochain differential
is assembled from the two one-sided multiplications by each variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional

from .category import day_tensor
from .complexes import ChainComplex, GradedMap, Term, cell_homology, certify_split
from .errors import IsoFailureError, PreconditionError, StructuralError, WindowError
from .gtensor import GradedTensor
from .koszul import KoszulComplex, build_koszul, koszul_faces, subsets_lex, summand_map
from .matrix import Matrix, rank
from .monoid import (
    Element,
    Module,
    Monoid,
    generated_submodule,
    is_commutative,
    is_regular_sequence,
    monoid_unit_laws,
    morphism_law,
    mult_operator,
)
from .poly import (
    base_merge,
    default_var_names,
    merge_variables,
    mono_index,
    monomial_block_product,
    multi_indices,
    polynomial_monoid,
    rename_variables,
    variable_element,
)
from .report import GradedReport


@dataclass
class TensorIdempotentCertificate:
    direct_ok: Optional[bool]
    quotient_ok: Optional[bool]
    mode: str  # "direct", "quotient-of-I", or "failed"
    detail: str
    mu_cells: dict  # (obj, deg) -> Matrix of the induced multiplication

    @property
    def passed(self) -> bool:
        return self.mode != "failed"


def certify_tensor_idempotent(a: Monoid) -> TensorIdempotentCertificate:
    """Check invertibility of the multiplication, and the quotient-of-unit criterion.

    Both roads are reported; either suffices.  Failure is a result (with the
    failing object and rank deficit), not an exception.  Either criterion
    implies tensor idempotence only for a monoid whose unit is one, so the
    unit laws are checked first on every stored cell; where one fails, the
    certificate fails naming the first such cell, and neither road is tried.
    """
    if not is_commutative(a):
        raise PreconditionError("tensor idempotence is certified for commutative monoids")
    laws = monoid_unit_laws(a)
    if not laws.ok:
        return TensorIdempotentCertificate(None, None, "failed",
                                           "unit law fails: %s" % laws.violations[0], {})
    cat = a.cat
    direct_ok = True
    deficit = None
    # the multiplication induced on the tensor square, per (object, degree)
    mu = GradedTensor(a.carrier, a.carrier).induced_map_cells(a.carrier, a.pairing_cell)
    for (x, d), mat in sorted(mu.items()):
        r = rank(mat)
        if mat.nrows != mat.ncols or r != mat.nrows:
            direct_ok = False
            if deficit is None:
                deficit = "at (%s, %d): tensor square has dim %d, target %d, rank %d" \
                    % (x, d, mat.ncols, mat.nrows, r)
            break

    # quotient-of-unit criterion: the unit arrow I -> A is pointwise surjective
    quotient_ok = True
    q_detail = None
    for x in cat.objects:
        cols = []
        for k in range(cat.hom_dim(cat.unit, x)):
            act = a.carrier.action_matrix((cat.unit, x, k), 0)
            cols.append(list(act.apply(a.unit)))
        total = sum(a.carrier.dim(x, d) for d in range(a.cap + 1))
        mat = Matrix.from_columns(a.field, a.carrier.dim(x, 0), cols) if cols \
            else Matrix.zeros(a.field, a.carrier.dim(x, 0), 0)
        r = rank(mat)
        if r != total:
            quotient_ok = False
            if q_detail is None:
                q_detail = "unit arrow not surjective at %s (rank %d of %d)" % (x, r, total)

    if direct_ok:
        mode, detail = "direct", "multiplication invertible at every cell"
    elif quotient_ok:
        mode, detail = "quotient-of-I", "unit arrow pointwise surjective"
    else:
        mode, detail = "failed", "%s; %s" % (deficit, q_detail)
    return TensorIdempotentCertificate(direct_ok, quotient_ok, mode, detail, mu)


@dataclass
class EnvelopingData:
    base: Monoid
    n: int
    a_n: Monoid        # the polynomial monoid in t variables
    c: Monoid          # the enveloping monoid in u, v variables
    pi: dict           # (obj, deg) -> Matrix, linear over the base coordinates
    alphas: list       # the variable differences u_i - v_i
    ideal: dict        # (obj, deg) -> Subspace, the generated ideal
    report: GradedReport
    cochains: Optional[tuple] = None  # (module, its cochain differences): `hochschild_cohomology`

    @property
    def cap(self) -> int:
        return self.a_n.cap

    @property
    def passed(self) -> bool:
        return self.report.all_passed


def _collapse_matrix(field, n, d, base_dim):
    """Monomial collapse u^i v^j -> t^(i+j), identity on base coordinates."""
    tgt = mono_index(n, d)
    src = multi_indices(2 * n, d)
    collapse = Matrix.from_entries(
        field, len(tgt), len(src),
        {(tgt[tuple(m[k] + m[n + k] for k in range(n))], s_idx): field.one()
         for s_idx, m in enumerate(src)})
    return collapse.kron(Matrix.identity(field, base_dim))


def polynomial_over(a: Monoid, n: int, cap: int,
                    cert: Optional[TensorIdempotentCertificate] = None,
                    var_names=None) -> Monoid:
    """A_n over a base certified tensor idempotent: the polynomial monoid both
    `build_enveloping` and the `syzygy` verb start from.

    Refuses, in this order: a base whose certificate (computed when not
    given) failed, n < 1, cap < 1 and a wrong number of variable names.
    """
    cert = cert if cert is not None else certify_tensor_idempotent(a)
    if not cert.passed:
        raise PreconditionError("monoid %s is not certified tensor idempotent" % a.name)
    if n < 1:
        raise PreconditionError("need at least one variable")
    if cap < 1:
        raise WindowError("degree window %d cannot hold the variables" % cap)
    t_names = tuple(var_names) if var_names is not None else default_var_names(n)
    if len(t_names) != n:
        raise PreconditionError("expected %d variable names" % n)
    return polynomial_monoid(a, n, cap, var_names=t_names)


def check_base_merge(a: Monoid, cert: TensorIdempotentCertificate) -> None:
    """Refuse a base whose merge `build_enveloping` refuses, from degree 0 alone.

    `merge_variables` identifies A_n (x) A_n with A_2n along the degree-0
    cells of cert's mu.  It raises IsoFailureError unless they are invertible,
    which fails exactly outside direct mode, and StructuralError unless the
    witnessed pure-tensor maps descend (`base_merge`).  Every cell (x, d) of
    Phi is copies of the descended map at x, one per pair of monomials, so
    the first cell at which Phi is singular is (x, 0) for the first such x.
    """
    s = a.carrier.slice_rep(0)
    base_phi = base_merge(day_tensor(a.cat, s, s), a,
                          {x: cert.mu_cells[(x, 0)] for x in a.cat.objects})
    for x, mat in sorted(base_phi.items()):
        if mat.nrows and rank(mat) != mat.nrows:
            raise IsoFailureError("Phi fails to be invertible at (%s, 0)" % x)


def build_enveloping(a: Monoid, n: int, cap: int,
                     idem_cert: Optional[TensorIdempotentCertificate] = None,
                     var_names=None) -> EnvelopingData:
    """A_2n with the collapse map onto A_n and the kernel-ideal certificates.

    A_n comes from `polynomial_over`, which the `syzygy` verb shares; A_u and
    A_v are A_n with its variables renamed (`rename_variables`), so the one
    construction serves t, u and v.  Their merge into A_2n, the collapse and
    the kernel ideal are built here for the Hochschild side only.  The
    kernel of the collapse is verified to equal the ideal of the variable
    differences degreewise, both by containment and by dimension count.
    """
    cert = idem_cert if idem_cert is not None else certify_tensor_idempotent(a)
    a_n = polynomial_over(a, n, cap, cert, var_names)
    cat, field = a.cat, a.field
    a_u = rename_variables(a_n, default_var_names(n, "u"))
    a_v = rename_variables(a_n, default_var_names(n, "v"))

    witness = {x: cert.mu_cells[(x, 0)] for x in cat.objects}
    merge = merge_variables(a_u, a_v, a, witness)
    c = merge.monoid

    report = GradedReport(
        task={"op": "build-enveloping", "monoid": a.name, "n": n},
        field=field.descriptor(),
        window={"cap": cap, "truncated": True},
    )
    report.add_certificate("merge-unit-preserved", merge.unit_preserved)
    if merge.hom_checked:
        report.add_certificate("merge-multiplicative", merge.hom_ok)

    pi = {}
    for d in range(cap + 1):
        for x in cat.objects:
            pi[(x, d)] = _collapse_matrix(field, n, d, a.carrier.dim(x, 0))

    # pi is a morphism of monoids, cellwise
    pi_hom = morphism_law(pi, lambda p, q: c.pairing_cell(*p, *q),
                          lambda p, q: a_n.pairing_cell(*p, *q),
                          [((x, d1), (y, d2), (cat.dobj(x, y), d1 + d2))
                           for d1 in range(cap + 1) for d2 in range(cap + 1 - d1)
                           for x in cat.objects for y in cat.objects])
    report.add_certificate("collapse-is-monoid-morphism", pi_hom)
    unit_ok = pi[(cat.unit, 0)].apply(c.unit) == tuple(a_n.unit)
    report.add_certificate("collapse-preserves-unit", unit_ok)

    # pi sends both variable families to the target variables
    us = [variable_element(c, i) for i in range(1, n + 1)]
    vs = [variable_element(c, n + i) for i in range(1, n + 1)]
    vars_ok = True
    for i, (u_i, v_i) in enumerate(zip(us, vs), 1):
        t_i = variable_element(a_n, i)
        if pi[(cat.unit, 1)].apply(u_i.coords) != tuple(t_i.coords):
            vars_ok = False
        if pi[(cat.unit, 1)].apply(v_i.coords) != tuple(t_i.coords):
            vars_ok = False
    report.add_certificate("collapse-matches-variables", vars_ok)

    # the variable differences, degree one; central because `variable_element`
    # refuses a non-central u_i or v_i, and `build_koszul` checks each again
    alphas = [Element(cat.unit, 1, tuple(map(field.sub, u_i.coords, v_i.coords)))
              for u_i, v_i in zip(us, vs)]

    ideal = generated_submodule(c, alphas)

    # kernel equality: containment one way plus a dimension count; and the
    # restriction of pi to the first variable family is injective.  Where
    # that restriction's rank fills the target, it is the rank of pi.
    contain_ok = dims_ok = surj_ok = inj_ok = True
    for d in range(cap + 1):
        mons = multi_indices(2 * n, d)
        u_only = [k for k, m in enumerate(mons) if all(e == 0 for e in m[n:])]
        for x in cat.objects:
            pi_xd, sub = pi[(x, d)], ideal[(x, d)]
            if not (pi_xd * sub.basis).is_zero():
                contain_ok = False
            bd = a.carrier.dim(x, 0)
            r_u = rank(pi_xd.select_columns([j for k in u_only
                                             for j in range(k * bd, (k + 1) * bd)]))
            if r_u != len(u_only) * bd:
                inj_ok = False
            r = r_u if r_u == pi_xd.nrows else rank(pi_xd)
            if r != a_n.carrier.dim(x, d):
                surj_ok = False
            if sub.dim != c.carrier.dim(x, d) - r:
                dims_ok = False
            report.add_entry(None, x, d, sub.dim)
    report.add_certificate("ideal-inside-kernel", contain_ok)
    report.add_certificate("collapse-surjective", surj_ok)
    report.add_certificate("kernel-dimension-match", dims_ok,
                           detail="dim ker pi = dim ideal per cell")
    report.add_certificate("collapse-injective-on-first-family", inj_ok)

    return EnvelopingData(a, n, a_n, c, pi, alphas, ideal, report)


# -- change of variables ---------------------------------------------------------


def change_of_variables_certificate(e: EnvelopingData) -> bool:
    """Verify the substitution (u, w) -> (u, u - v) is a degreewise monoid iso.

    This is the mechanism behind the regularity of the variable differences:
    they are plain polynomial variables after the substitution.  psi is
    invertible in every degree, and multiplicative on its generators
    (`psi_law`).
    """
    n, c = e.n, e.c
    field = c.field
    psi = substitution_matrices(field, n, c.cap)
    if any(rank(mat) != mat.nrows for mat in psi.values()):
        return False

    # monoid morphism cellwise, on the monomial part; the base coordinates are
    # untouched by the substitution so it suffices to check the monomial layer
    if not psi_law(psi, 2 * n, c.cap):
        return False

    # the substitution sends the second variable family to the differences
    unit = Matrix.from_columns(field, len(c.unit), [c.unit])
    for i in range(1, n + 1):
        w_expo = tuple(1 if k == n + i - 1 else 0 for k in range(2 * n))
        col = mono_index(2 * n, 1)[w_expo]
        if psi[1].select_columns([col]).kron(unit).column(0) != tuple(e.alphas[i - 1].coords):
            return False
    return True


def substitution_matrices(field, n: int, cap: int) -> dict:
    """psi[d]: u^i w^j |-> u^i (u - v)^j on the degree-d monomials in 2n variables.

    The first n variables are u, the last n are w on the source and v on the
    target; the expansion is by integer binomial coefficients.
    """
    def expand(m):
        i, j = m[:n], m[n:]
        terms = {tuple(i) + tuple([0] * n): 1}
        for k in range(n):
            new_terms = {}
            for mono, coef in terms.items():
                for r in range(j[k] + 1):
                    c_b = comb(j[k], r) * (-1) ** (j[k] - r)
                    key = list(mono)
                    key[k] += r
                    key[n + k] += j[k] - r
                    key = tuple(key)
                    new_terms[key] = new_terms.get(key, 0) + coef * c_b
            terms = new_terms
        return terms

    psi = {}
    for d in range(cap + 1):
        mons = multi_indices(2 * n, d)
        idx = mono_index(2 * n, d)
        mono_mat = Matrix.zeros(field, len(mons), len(mons))
        for s_idx, m in enumerate(mons):
            for mono, coef in expand(m).items():
                v = field.from_int(coef)  # a binomial may vanish mod p; keep no zero entry
                if v:
                    mono_mat.rows[idx[mono]][s_idx] = v
        psi[d] = mono_mat
    return psi


def psi_law(psi: dict, nvars: int, cap: int) -> bool:
    """psi[d1 + d2](a b) = psi[d1](a) psi[d2](b) for all monomials with d1 + d2 <= cap.

    psi[d] maps the degree-d monomials in nvars variables to themselves; the
    product is the monomial one (`monomial_block_product` with a 1x1 inner),
    which adds exponents, so it is associative and commutative.  The law is
    checked on the degree pairs (0, d) and (1, d) alone, which imply every
    other pair by induction on d1.  A monomial a of degree d1 >= 2 is x a',
    x a variable and a' of degree d1 - 1, so for any monomial b of degree d2
        psi(a b) = psi(x) psi(a' b)        the law at (1, d1 - 1 + d2)
                 = psi(x) (psi(a') psi(b)) the law at (d1 - 1, d2)
                 = (psi(x) psi(a')) psi(b) associativity
                 = psi(a) psi(b)           the law at (1, d1 - 1),
    and both sides are bilinear, so the law holds on the whole pair of
    cells.  Only the product blocks of the checked pairs are built.
    """
    field = psi[0].field
    one = Matrix.identity(field, 1)
    pairs = [(d1, d2) for d1 in range(min(cap, 1) + 1) for d2 in range(cap + 1 - d1)]
    conv = {(d1, d2): monomial_block_product(nvars, d1, nvars, d2, "add", one, 1, 1)
            for d1, d2 in pairs}
    return morphism_law(psi, lambda *split: conv[split], lambda *split: conv[split],
                        [(d1, d2, d1 + d2) for d1, d2 in pairs])


# -- the bimodule resolution ------------------------------------------------------


@dataclass
class BimoduleResolution:
    complex: ChainComplex          # augmented: term 0 = A_n, term 1 = C, then K_p
    koszul: KoszulComplex
    report: GradedReport

    @property
    def passed(self) -> bool:
        return self.report.all_passed


@lru_cache(maxsize=None)
def _divided_differences(n: int, p: int, d: int) -> tuple:
    """(#source monomials, per target its sources): the monomial layer of h_p in degree d.

    Monomials of A_2n are u^a v^b, numbered summand-major on a term of
    copies.  p = -1 is the augmentation A_n -> A_2n, t^m -> v^m.  On K_p the
    summand e_S (x) u^a v^b goes, for every i < min S (every i when S is
    empty) and every l < a_i, with coefficient one, to e_{i}uS (x) u^a' v^b':
    factors j < i collapse onto v (u_j^0 v_j^(a_j + b_j)), factor i becomes
    u_i^l v_i^(a_i + b_i - 1 - l), factors j > i stay.  These are the divided
    differences of u_i - v_i, one variable after another; no two terms of
    one source share a target.  Built on first use.
    """
    if p < 0:
        idx, sources = mono_index(2 * n, d), multi_indices(n, d)
        rows = [[] for _ in idx]
        for s, m in enumerate(sources):
            rows[idx[(0,) * n + m]].append(s)
        return len(sources), tuple(map(tuple, rows))
    mons = multi_indices(2 * n, d) if d >= 0 else ()
    low = multi_indices(2 * n, d - 1) if d >= 1 else ()
    idx = mono_index(2 * n, d - 1) if low else {}
    subsets = subsets_lex(n, p)
    upper = {sub: k for k, sub in enumerate(subsets_lex(n, p + 1))}
    rows = [[] for _ in range(len(upper) * len(low))]
    for k, sub in enumerate(subsets):
        first = sub[0] if sub else n + 1
        for w, m in enumerate(mons):
            a, b = m[:n], m[n:]
            for i in range(first - 1):  # variable i + 1 < min S
                base = upper[(i + 1,) + sub] * len(low)
                for l in range(a[i]):
                    expo = (0,) * i + (l,) + a[i + 1:] + \
                        tuple(a[j] + b[j] for j in range(i)) + (a[i] + b[i] - 1 - l,) + b[i + 1:]
                    rows[base + idx[expo]].append(k * len(mons) + w)
    return len(subsets) * len(mons), tuple(map(tuple, rows))


def _divided_difference_homotopy(e: EnvelopingData):
    """h_q on cell (x, d) of the augmented resolution, q = 0 for A_n and q = p + 1
    for K_p: `_divided_differences(n, q - 1, d)` (x) I_B(x), B the base."""
    field, base, one = e.c.field, e.base.carrier, e.c.field.one()

    def block(q, x, d):
        nsrc, rows = _divided_differences(e.n, q - 1, d)
        bx = base.dim(x, 0)
        return Matrix(field, len(rows) * bx, nsrc * bx,
                      [{s * bx + j: one for s in srcs} for srcs in rows for j in range(bx)])
    return block


def koszul_bimodule_resolution(e: EnvelopingData) -> BimoduleResolution:
    """The augmented Koszul complex of the variable differences, with certificates.

    Certifies: the differences form a regular sequence in the window, the
    substitution mechanism holds, the augmented complex is a complex, and an
    explicit contracting homotopy exists (exactness and pointwise splitting
    in one identity).  The homotopy is the closed form of divided
    differences (`_divided_differences`, Shepler and Witherspoon 2011),
    handed to `certify_split`, which checks dh + hd = id with it wherever
    d o d = 0 passed and solves for h on any chain where it does not check.
    """
    c, a_n = e.c, e.a_n
    field = c.field
    kc = build_koszul(c, e.alphas)
    report = GradedReport(
        task={"op": "bimodule-resolution", "monoid": e.base.name, "n": e.n},
        field=field.descriptor(),
        window={"cap": e.cap, "truncated": True},
    )

    seq = is_regular_sequence(c, e.alphas)
    report.add_certificate("differences-regular-sequence", seq.regular,
                           witness=seq.to_jsonable(field))
    report.add_certificate("change-of-variables-iso", change_of_variables_certificate(e))

    aug_term = Term("A_n", dict(a_n.carrier.dims))
    terms = [aug_term] + kc.complex.terms
    pi_map = GradedMap(field, kc.complex.terms[0], aug_term,
                       {(x, d, d): mat for (x, d), mat in e.pi.items()})
    diffs = [None, pi_map] + kc.complex.diffs[1:]
    aug = ChainComplex(c.cat, e.cap, terms, diffs)

    certify_split(report, aug, "augmented-d-compose-d-zero", _divided_difference_homotopy(e))
    return BimoduleResolution(aug, kc, report)


# -- Hochschild cohomology ---------------------------------------------------------


def _cochain_differences(e: EnvelopingData, m: Module) -> dict:
    """i -> (1, cells): the left minus the right multiplication by t_i on m."""
    diffs = {}
    for i in range(1, e.n + 1):
        t_i = variable_element(e.a_n, i)
        left, right = (mult_operator(e.a_n, t_i, m, side=side).cells for side in ("left", "right"))
        diffs[i] = (1, {cell: mat - right[cell] for cell, mat in left.items()})
    return diffs


def _cochain_phi(e: EnvelopingData, m: Module, p: int, diffs: dict):
    """Phi_p: Hom(K_p, M) -> Hom(K_{p+1}, M) under the free identification.

    The block from the summand of S to the summand of S + {i} is the signed
    difference diffs[i] of the two multiplications by t_i (`_cochain_differences`):
    the faces of the (p+1)-th Koszul differential, read from target to source.
    """
    n = e.n
    src_term, tgt_term = (Term.copies("Hom(K_%d,M)" % q, m.carrier, subsets_lex(n, q))
                          for q in (p, p + 1))
    faces = [(t, s, sign, i) for s, t, sign, i in koszul_faces(n, p + 1)]
    return summand_map(e.a_n.field, src_term, tgt_term, faces, diffs)


def hochschild_cohomology(e: EnvelopingData, m: Module, p: int,
                          parallel_map=map) -> GradedReport:
    """HH^p of the polynomial monoid with coefficients in a bimodule.

    Above the variable count the groups vanish because the resolution stops;
    with coefficients the monoid itself, every cochain differential is the
    zero matrix, which the report certifies entry by entry.  The n cochain
    differences of the last module are kept on e (`EnvelopingData.cochains`)
    and reused by every p while the call is given that same module object,
    so one module's HH^0..HH^n build them once.
    """
    if p < 0:
        raise PreconditionError("cohomological degree must be nonnegative")
    a_n, n = e.a_n, e.n
    if not m.is_over(a_n):
        raise StructuralError("coefficients are not a module over the polynomial monoid")
    report = GradedReport(
        task={"op": "hochschild", "monoid": e.base.name, "n": n, "p": p},
        field=a_n.field.descriptor(),
        window={"cap": e.cap, "max_certified": e.cap - 1, "truncated": True},
    )
    if p > n:
        for d in range(e.cap):
            for x in a_n.cat.objects:
                report.add_entry(p, x, d, 0)
        return report

    if e.cochains is None or e.cochains[0] is not m:
        e.cochains = (m, _cochain_differences(e, m))
    diffs = e.cochains[1]
    phi_out = _cochain_phi(e, m, p, diffs) if p <= n - 1 else None
    phi_in = _cochain_phi(e, m, p - 1, diffs) if p >= 1 else None

    coeffs_are_monoid = m.carrier.dims == a_n.carrier.dims and \
        m.left == a_n.pairing and m.right == a_n.pairing
    if coeffs_are_monoid:
        zero_out = phi_out.is_zero() if phi_out is not None else True
        zero_in = phi_in.is_zero() if phi_in is not None else True
        report.add_certificate("cochain-differential-zero", zero_out and zero_in,
                               detail="all blocks exactly zero")

    cells = [(x, d) for d in range(e.cap) for x in a_n.cat.objects]
    cochains = phi_out.src if phi_out is not None else phi_in.tgt  # Hom(K_p, M)

    def cohom(cell):
        return cell_homology(cochains.dim(*cell), phi_out, phi_in, *cell, p)

    dims = list(parallel_map(cohom, cells))
    for cell, h in zip(cells, dims):
        report.add_entry(p, cell[0], cell[1], h)
    return report
