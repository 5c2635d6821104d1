"""Koszul complexes: differentials, homology, resolution checks, Pascal split."""

import os
import random
import subprocess
import sys
import textwrap
from math import comb

import pytest

from koszulcat.category import CategoryPresentation
from koszulcat.complexes import ChainComplex, GradedMap, Term
from koszulcat.errors import DimensionError, NotCentralError, PreconditionError, WindowError
from koszulcat.field import QQ
from koszulcat.matrix import Matrix, kernel_basis
from koszulcat.monoid import scalar_monoid
from koszulcat.koszul import (
    build_koszul,
    check_resolution,
    koszul_faces,
    koszul_homology_report,
    pascal_split,
    subsets_lex,
    summand_map,
)
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.sample import dual_numbers
from test_homology_rank import linear_form

CAT = CategoryPresentation.trivial(QQ)
U = CAT.unit


def poly(n, cap, base=None):
    return polynomial_monoid(base or scalar_monoid(CAT), n, cap)


def variables(a):
    return [variable_element(a, i + 1) for i in range(a.poly_info.nvars)]


def test_term_ranks_are_binomial():
    a = poly(2, 3)
    kc = build_koszul(a, variables(a))
    for p in range(3):
        assert len(kc.summands[p]) == comb(2, p)
    assert subsets_lex(3, 2) == [(1, 2), (1, 3), (2, 3)]


def test_bottom_differential_concatenates_shifts():
    a = poly(2, 3, base=None)
    x, y = variables(a)
    kc = build_koszul(a, [x, y])
    d1 = kc.complex.diffs[1]
    # at internal degree d the block is the 1 x 2 concatenation of the two
    # monomial shift matrices
    blk = d1.block(U, 1, 2)
    assert blk.nrows == a.carrier.dim(U, 2)
    assert blk.ncols == 2 * a.carrier.dim(U, 1)
    lx = kc.mult_ops[1].cells[(U, 1)]
    ly = kc.mult_ops[2].cells[(U, 1)]
    for i in range(blk.nrows):
        for j in range(a.carrier.dim(U, 1)):
            assert blk.entry(i, j) == lx.entry(i, j)
            assert blk.entry(i, a.carrier.dim(U, 1) + j) == ly.entry(i, j)


def test_summand_map_names_a_face_of_the_wrong_shape():
    """Each face cell must map one source copy to one target copy."""
    a = poly(2, 2)
    src, tgt = (Term.copies("K_%d" % p, a.carrier, subsets_lex(2, p)) for p in (1, 0))
    ident = {(U, d): Matrix.identity(QQ, a.carrier.dim(U, d)) for d in range(3)}
    bad = dict(ident)
    bad[(U, 1)] = Matrix.zeros(QQ, a.carrier.dim(U, 1) + 1, a.carrier.dim(U, 1))
    faces = koszul_faces(2, 1)
    good = summand_map(QQ, src, tgt, faces, {1: (0, ident), 2: (0, ident)})
    assert good.block(U, 1, 1) == Matrix.from_rows(QQ, [[1, 1]]).kron(ident[(U, 1)])
    with pytest.raises(DimensionError, match=r"face \(1, 0, 1, 2\) at \(\w+, 1\) has shape 3x2"):
        summand_map(QQ, src, tgt, faces, {1: (0, ident), 2: (0, bad)})


def test_dd_zero_three_variables():
    a = poly(3, 4)
    kc = build_koszul(a, variables(a))
    ok, cells, bad = kc.complex.dd_certificate()
    assert ok and cells > 0 and not bad


def test_dd_zero_mixed_degrees():
    # alpha = (t1, t2^2): central, homogeneous of degrees 1 and 2
    a = poly(2, 5)
    t1, t2 = variables(a)
    t2sq = a.multiply(t2, t2)
    kc = build_koszul(a, [t1, t2sq])
    ok, _, _ = kc.complex.dd_certificate()
    assert ok
    assert kc.complex.diffs[1].shifts == frozenset({1, 2})


def test_classical_koszul_homology():
    a = poly(2, 5)
    kc = build_koszul(a, variables(a))
    rep = koszul_homology_report(kc)
    assert rep.all_passed
    by_cell = {(e.p, e.degree): e.dim for e in rep.entries}
    win = kc.complex.homology_window(1)
    for d in range(win + 1):
        assert by_cell[(1, d)] == 0
        assert by_cell[(2, d)] == 0
    assert by_cell[(0, 0)] == 1
    for d in range(1, kc.complex.homology_window(0) + 1):
        assert by_cell[(0, d)] == 0


def test_dual_numbers_h1():
    a = dual_numbers(QQ)
    kc = build_koszul(a, [a.basis_element("xbar")])
    dims = kc.complex.homology_dims(1, [0])
    assert dims[(U, 0)] == 1


def test_zero_complex_has_zero_homology():
    terms = [Term("0", {(U, 0): 0}), Term("0", {(U, 0): 0})]
    d1 = GradedMap(QQ, terms[1], terms[0], {})
    cx = ChainComplex(CAT, 0, terms, [None, d1])
    assert cx.homology_cell(0, U, 0) == 0
    assert cx.homology_cell(1, U, 0) == 0


def test_homology_check_survives_optimize():
    # d o d != 0 must raise even when the interpreter strips assert statements
    script = textwrap.dedent("""
        from koszulcat.category import CategoryPresentation
        from koszulcat.complexes import ChainComplex, GradedMap, Term
        from koszulcat.errors import StructuralError
        from koszulcat.field import QQ
        from koszulcat.matrix import Matrix, kernel_basis

        cat = CategoryPresentation.trivial(QQ)
        u = cat.unit
        terms = [Term("C%d" % p, {(u, 0): 1}) for p in range(3)]
        one = Matrix.identity(QQ, 1)
        diffs = [None] + [GradedMap(QQ, terms[p], terms[p - 1], {(u, 0, 0): one})
                          for p in (1, 2)]
        cx = ChainComplex(cat, 0, terms, diffs)
        try:
            print(cx.homology_cell(1, u, 0))
        except StructuralError:
            print("raised")
    """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_empty_alpha_rejected():
    a = poly(1, 2)
    with pytest.raises(PreconditionError):
        build_koszul(a, [])


def test_noncentral_alpha_rejected():
    from koszulcat.sample import s3_group_algebra

    a = s3_group_algebra(QQ)
    with pytest.raises(NotCentralError):
        build_koszul(a, [a.basis_element("t12")])


def test_single_element_base_case():
    # n = 1: the two-term complex; regular element gives a resolution
    a = poly(1, 4)
    cert = check_resolution(a, variables(a))
    assert cert.regular and cert.passed


def test_check_resolution_regular_instance():
    a = poly(2, 4)
    cert = check_resolution(a, variables(a))
    assert cert.regular
    assert cert.passed
    h0 = {e.degree: e.dim for e in cert.report.entries if e.p == 0}
    assert h0[0] == 1 and all(h0[d] == 0 for d in range(1, len(h0)))


def test_check_resolution_nonregular_instance():
    a = dual_numbers(QQ)
    cert = check_resolution(a, [a.basis_element("xbar")])
    assert not cert.regular
    assert not cert.report.all_passed  # regularity certificate fails, with witness
    failed = {c.name for c in cert.report.failed_certificates()}
    assert failed == {"regular-sequence"}
    seq_cert = next(c for c in cert.report.certificates if c.name == "regular-sequence")
    assert seq_cert.witness["stages"][0]["witness"]["coords"] == ["0", "1"]
    h1 = [e for e in cert.report.entries if e.p == 1]
    assert sum(e.dim for e in h1) == 1


def test_homology_window_error():
    a = poly(2, 3)
    cx = build_koszul(a, variables(a)).complex
    with pytest.raises(WindowError):
        cx.homology_dims(1, [cx.homology_window(1) + 1])


def test_homology_invariant_under_summand_shuffle():
    # permuting the summand order of term 1 leaves homology unchanged
    a = poly(3, 3)
    kc = build_koszul(a, variables(a))
    rng = random.Random(5)
    cx = kc.complex
    p = 1
    n_sub = len(kc.summands[p])
    perm = list(range(n_sub))
    rng.shuffle(perm)
    base_dims = {cell: dim // n_sub for cell, dim in cx.terms[p].dims.items()}
    pmats = {}
    for cell, dim in cx.terms[p].dims.items():
        base = base_dims[cell]
        m = Matrix.zeros(QQ, dim, dim)
        for s in range(n_sub):
            for i in range(base):
                m.rows[perm[s] * base + i][s * base + i] = QQ.one()
        pmats[cell] = m
    new_d1 = {}
    for (x, ds, dt), blk in cx.diffs[1].blocks.items():
        new_d1[(x, ds, dt)] = blk * _inv_perm_matrix(pmats[(x, ds)])
    new_d2 = {}
    for (x, ds, dt), blk in cx.diffs[2].blocks.items():
        new_d2[(x, ds, dt)] = pmats[(x, dt)] * blk
    shuffled = ChainComplex(
        CAT, cx.cap, cx.terms,
        [None,
         GradedMap(QQ, cx.terms[1], cx.terms[0], new_d1),
         GradedMap(QQ, cx.terms[2], cx.terms[1], new_d2),
         cx.diffs[3]],
    )
    for d in range(shuffled.homology_window(1) + 1):
        assert shuffled.homology_cell(1, U, d) == cx.homology_cell(1, U, d)


def _inv_perm_matrix(m):
    return m.transpose()


# -- pascal split ---------------------------------------------------------------


def test_pascal_split_two_variables():
    a = poly(2, 4)
    kc = build_koszul(a, variables(a))
    sw = pascal_split(kc)
    assert sw.passed
    # blocks of term 1: the singleton subsets, first block {1}, second {2}
    assert kc.summands[1] == [(1,), (2,)]
    assert sw.small.summands[1] == [(1,)]


def test_pascal_split_three_variables_ladder():
    a = poly(3, 4)
    kc = build_koszul(a, variables(a))
    sw = pascal_split(kc)
    assert sw.passed
    names = {c.name for c in sw.report.certificates}
    assert {"ladder-left-square", "ladder-right-square", "restriction-formula",
            "connecting-map-formula", "tau-iota-zero", "tau-sigma-identity"} <= names


def test_pascal_split_reuses_the_multiplication_operators(monkeypatch):
    """The smaller complex is assembled from the operators of the bigger one."""
    import koszulcat.koszul as koszul_mod
    import koszulcat.monoid as monoid_mod

    a = poly(3, 4)
    kc = build_koszul(a, variables(a))
    rebuilt = build_koszul(a, variables(a)[:-1])

    def refuse(*args, **kwargs):
        raise AssertionError("mult_operator called inside pascal_split")

    monkeypatch.setattr(koszul_mod, "mult_operator", refuse)
    monkeypatch.setattr(monoid_mod, "mult_operator", refuse)
    sw = pascal_split(kc)
    assert sw.passed
    assert all(sw.small.mult_ops[i] is kc.mult_ops[i] for i in (1, 2))
    assert sw.small.summands == rebuilt.summands
    for mine, theirs in zip(sw.small.complex.diffs[1:], rebuilt.complex.diffs[1:]):
        assert mine.blocks == theirs.blocks


def test_pascal_split_multiplies_no_matrices(monkeypatch):
    """iota, tau and sigma are copy maps: composing with them moves rows and columns."""
    def refuse(*args):
        raise AssertionError("product inside pascal_split")

    a = poly(2, 5)
    t1, t2 = variables(a)
    kcs = [_forms_complex(), build_koszul(a, [t1, a.multiply(t2, t2)])]
    monkeypatch.setattr(Matrix, "__mul__", refuse)
    monkeypatch.setattr(GradedMap, "compose", refuse)
    for kc in kcs:
        sw = pascal_split(kc)
        assert sw.passed


def test_pascal_split_on_nonregular_monoid():
    # the decomposition is structural; it holds for non-regular tuples too
    a = polynomial_monoid(dual_numbers(QQ), 2, 3)
    kc = build_koszul(a, variables(a))
    assert pascal_split(kc).passed


def test_pascal_split_needs_two():
    a = poly(1, 3)
    kc = build_koszul(a, variables(a))
    with pytest.raises(PreconditionError):
        pascal_split(kc)


def test_bottom_map_image_is_the_generated_ideal():
    from koszulcat.matrix import Subspace
    from koszulcat.monoid import generated_submodule

    a = poly(2, 4)
    alphas = variables(a)
    kc = build_koszul(a, alphas)
    ideal = generated_submodule(a, alphas)
    d1 = kc.complex.diffs[1]
    for d in range(1, 5):
        inm = d1.in_matrix(U, d)
        im = Subspace.from_columns(QQ, a.carrier.dim(U, d),
                                   [inm.column(j) for j in range(inm.ncols)])
        assert im == ideal[(U, d)]


def test_pascal_split_mixed_degrees():
    # last element of degree two: the restriction formula and the connecting
    # map pick up the shift-two multiplication
    a = poly(2, 5)
    t1, t2 = variables(a)
    kc = build_koszul(a, [t1, a.multiply(t2, t2)])
    sw = pascal_split(kc)
    assert sw.passed


def _forms_complex():
    """Three Q forms whose kernel bases are fractional (no coefficient is +-1)."""
    a = poly(3, 3)
    ts = variables(a)
    return build_koszul(a, [linear_form(QQ, ts, c) for c in ((2, 3, 5), (7, -4, 3), (3, 5, -2))])


def _small_cycle_cells(kc):
    """(p, x, d, out) for every cell whose cycles pascal_split lifts."""
    small = build_koszul(kc.monoid, kc.alphas[:-1])
    sh = kc.mult_ops[kc.n].shift
    for p in range(2, kc.n + 1):
        win = min(small.complex.homology_window(p - 1), kc.cap - sh)
        for x in kc.monoid.cat.objects:
            for d in range(win + 1):
                yield p, x, d, small.complex.diffs[p - 1].out_matrix(x, d)


def test_cycles_checked_is_the_kernel_dimension_over_the_window():
    kc = _forms_complex()
    columns = sum(len(kernel_basis(out)) for _, _, _, out in _small_cycle_cells(kc))
    cert = {c.name: c for c in pascal_split(kc).report.certificates}["connecting-map-formula"]
    assert columns == cert.witness["cycles_checked"]
    assert columns > 0


def test_connecting_map_fault_fails_with_integer_cycles(monkeypatch):
    # add one entry to a block of iota((-1)^(p-1) L) leaving a window cell,
    # in a column where a cycle is nonzero
    kc = _forms_complex()
    cert = {c.name: c for c in pascal_split(kc).report.certificates}["connecting-map-formula"]
    assert cert.passed and cert.witness["cycles_checked"] > 0
    p, x, d, z = next((p, x, d, z) for p, x, d, out in _small_cycle_cells(kc)
                      for z in [kernel_basis(out)] if z)
    j = next(j for j, v in enumerate(z[0]) if v)
    key = (x, d, d + kc.mult_ops[kc.n].shift)
    scaled = []
    scale = GradedMap.scale

    def faulty_scale(self, c):
        out = scale(self, c)
        scaled.append(out)
        if len(scaled) == p - 1:  # pascal_split scales iota L once per p = 2..n
            block = out.block(*key)
            fault = Matrix.from_entries(QQ, block.nrows, block.ncols, {(0, j): 1})
            out.blocks[key] = block + fault
        return out

    monkeypatch.setattr(GradedMap, "scale", faulty_scale)
    faulty = {c.name: c for c in pascal_split(kc).report.certificates}["connecting-map-formula"]
    assert len(scaled) == kc.n - 1
    assert not faulty.passed
    assert faulty.witness == cert.witness


def test_resolution_over_prime_field():
    from koszulcat.field import Field

    f5 = Field(5)
    cat5 = CategoryPresentation.trivial(f5)
    a = polynomial_monoid(scalar_monoid(cat5), 2, 4)
    cert = check_resolution(a, [variable_element(a, 1), variable_element(a, 2)])
    assert cert.regular and cert.passed


def test_koszul_over_finite_backend():
    # the machinery runs unchanged over a multi-object category
    from koszulcat.monoid import identity_monoid
    from koszulcat.sample import c2_convolution_category

    ident = identity_monoid(c2_convolution_category(QQ))
    eps = ident.unit_element()
    kc = build_koszul(ident, [eps, eps])
    ok, _, _ = kc.complex.dd_certificate()
    assert ok
    # epsilon generates everything, so the sequence fails the nonzero test
    from koszulcat.monoid import is_regular_sequence

    cert = is_regular_sequence(ident, [eps])
    assert not cert.regular and not cert.quotient_nonzero
