"""The divided-difference homotopy of the bimodule resolution against the solving route.

`koszul_bimodule_resolution` hands `certify_split` a closed-form contracting
homotopy, the divided differences of the u_i - v_i
(`hochschild._divided_differences`), which `contracting_homotopy` checks
instead of solving for.  The oracle is the solving route as it stood before,
copied below: one solve and one check per term of each distinct chain.  The
`contracting-homotopy` certificate (verdict, cells checked, detail) must be
the oracle's on every input, with no solve on the bimodule side; the syzygy
side still solves.  A candidate never changes a verdict: on a complex whose
d o d fails, or was never certified, it is not read, and a chain on which
it does not check is solved from its first term.
"""

import sys

import pytest

from koszulcat.category import CategoryPresentation
from koszulcat.complexes import ChainComplex, GradedMap, certify_split, contracting_homotopy
from koszulcat.field import QQ, Field
from koszulcat.hochschild import (
    _divided_difference_homotopy,
    build_enveloping,
    koszul_bimodule_resolution,
)
from koszulcat.matrix import Matrix, solve_matrix
from koszulcat.monoid import identity_monoid, regular_bimodule, scalar_monoid
from koszulcat.report import GradedReport
from koszulcat.sample import c2_convolution_category
from koszulcat.tensor import syzygy_resolution

FIELDS = {"Q": QQ, "F2": Field(2), "F3": Field(3), "F101": Field(101)}
BASES = {"scalar": lambda f: scalar_monoid(CategoryPresentation.trivial(f)),
         "c2unit": lambda f: identity_monoid(c2_convolution_category(f))}
INPUTS = [(n, cap) for n in (1, 2, 3) for cap in range(1, 6) if n < 3 or cap <= 4]


def oracle_homotopy(cx):
    """(ok, cells checked, detail) of the solving route: one solve per term of each distinct chain."""
    field = cx.field
    shifts = [None] + [cx.diffs[p].single_shift() for p in range(1, len(cx.terms))]
    checked = 0
    certified = {}
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
            hs, bad = oracle_chain(field, spaces, mats)
            if hs is None:
                return False, checked, "no contracting homotopy along chain (%s, %d)" % (x, d0)
            checked += sum(1 for v in spaces[:bad] if v)
            if bad is not None:
                return False, checked, "dh + hd != id at term %d cell (%s, %d)" \
                    % (bad, x, degs[bad])
            seen.append(mats)
    return True, checked, "dh + hd = id on all %d cells" % checked


def oracle_chain(field, spaces, mats):
    hs, bad = [], None
    top = len(spaces) - 1
    for p in range(top + 1):
        e = Matrix.identity(field, spaces[p])
        if p >= 1:
            e = e - hs[p - 1] * mats[p]
        if p == top:
            ok = e.is_zero()
        else:
            h = solve_matrix(mats[p + 1], e)
            if h is None:
                return None, None
            hs.append(h)
            ok = mats[p + 1] * h == e
        if not ok and bad is None:
            bad = p
    return hs, bad


def oracle_lines(cx, dd_name):
    """The d o d and homotopy certificates the solving route reports on cx."""
    report = GradedReport(task={}, field=cx.field.descriptor(), window={})
    ok, cells, _ = cx.dd_certificate()
    report.add_certificate(dd_name, ok, detail="%d composite blocks" % cells)
    h_ok, checked, detail = oracle_homotopy(cx)
    report.add_certificate("contracting-homotopy", h_ok, detail=detail,
                           witness={"cells_checked": checked})
    return [c.to_jsonable() for c in report.certificates]


def candidate_lines(cx, dd_name, candidate):
    report = GradedReport(task={}, field=cx.field.descriptor(), window={})
    certify_split(report, cx, dd_name, candidate)
    return [c.to_jsonable() for c in report.certificates]


def count_solves(monkeypatch):
    """Count `solve_matrix` calls through every package module that binds it."""
    calls = []

    def counting(m, b):
        calls.append(1)
        return solve_matrix(m, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("koszulcat") and getattr(module, "solve_matrix", None) is solve_matrix:
            monkeypatch.setattr(module, "solve_matrix", counting)
    return calls


def homotopy_certificate(report):
    (cert,) = [c for c in report.certificates if c.name == "contracting-homotopy"]
    return cert.passed, cert.witness["cells_checked"], cert.detail


def copy_complex(cx, diffs=None):
    """A fresh complex on cx's terms, nothing certified, with diffs swapped in where given."""
    return ChainComplex(cx.cat, cx.cap, cx.terms, diffs if diffs is not None else cx.diffs)


def with_block(gmap, key, block):
    blocks = dict(gmap.blocks)
    blocks[key] = block
    return GradedMap(gmap.field, gmap.src, gmap.tgt, blocks)


def bumped(mat, r, c):
    """mat with entry (r, c) increased by one."""
    f = mat.field
    rows = [dict(row) for row in mat.rows]
    v = f.add(rows[r].get(c, f.zero()), f.one())
    if v:
        rows[r][c] = v
    else:
        rows[r].pop(c, None)
    return Matrix(f, mat.nrows, mat.ncols, rows)


@pytest.mark.parametrize("n, cap", INPUTS)
@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_formula_gives_the_oracles_certificate_with_no_solve(monkeypatch, field, base, n, cap):
    e = build_enveloping(BASES[base](FIELDS[field]), n, cap)
    calls = count_solves(monkeypatch)
    res = koszul_bimodule_resolution(e)
    assert calls == []
    monkeypatch.undo()
    assert res.report.all_passed  # every certificate, change-of-variables-iso over F_2, F_3 too
    got = homotopy_certificate(res.report)
    assert got == oracle_homotopy(copy_complex(res.complex))
    assert got[0] is True


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_the_syzygy_side_still_solves(monkeypatch, field, base):
    e = build_enveloping(BASES[base](FIELDS[field]), 2, 3)
    calls = count_solves(monkeypatch)
    assert syzygy_resolution(e.a_n, regular_bimodule(e.a_n)).passed
    assert calls


def recording(candidate):
    """candidate, with every cell it is asked for kept in .asked."""
    def read(*cell):
        read.asked.append(cell)
        return candidate(*cell)
    read.asked = []
    return read


@pytest.fixture(params=[("F101", "scalar"), ("Q", "c2unit")], ids=["F101-scalar", "Q-c2unit"])
def resolved(request):
    field, base = request.param
    e = build_enveloping(BASES[base](FIELDS[field]), 2, 3)
    return e, koszul_bimodule_resolution(e).complex


@pytest.mark.parametrize("q", [1, 2], ids=["pi", "koszul"])
def test_a_bumped_block_fails_d_compose_d_with_the_oracles_lines(resolved, q):
    """One entry of pi (q = 1) or of the first Koszul differential (q = 2)
    bumped: d o d fails, the candidate is not read, and both lines are the oracle's."""
    e, cx = resolved
    key = sorted(k for k, m in cx.diffs[q].blocks.items() if not m.is_zero())[-1]
    block = cx.diffs[q].blocks[key]
    diffs = list(cx.diffs)
    diffs[q] = with_block(cx.diffs[q], key, bumped(block, 0, min(block.rows[0] or [0])))
    candidate = recording(_divided_difference_homotopy(e))
    got = candidate_lines(copy_complex(cx, diffs), "dd", candidate)
    want = oracle_lines(copy_complex(cx, diffs), "dd")
    assert got == want
    assert want[0]["passed"] is False
    assert candidate.asked == []


def test_a_permuted_basis_is_solved_by_the_fallback(monkeypatch, resolved):
    """Two basis vectors of K_1 swapped at one cell: d o d = 0 and split
    exactness survive, the formula does not.  Only the chain through that
    cell is solved, one solve per term below the top, and the certificate
    passes with the oracle's counts."""
    e, cx = resolved
    x, deg = cx.cat.objects[0], 1
    dim = cx.terms[2].dim(x, deg)
    swap = list(range(dim))
    swap[0], swap[dim - 1] = dim - 1, 0
    out_key, in_key = (x, deg, deg + 1), (x, deg - 1, deg)  # d_1 leaves the cell, d_2 enters it
    d_out, d_in = cx.diffs[2].blocks[out_key], cx.diffs[3].blocks[in_key]
    diffs = list(cx.diffs)
    diffs[2] = with_block(cx.diffs[2], out_key, d_out.select_columns(swap))
    diffs[3] = with_block(cx.diffs[3], in_key,
                          Matrix(d_in.field, d_in.nrows, d_in.ncols, [d_in.rows[k] for k in swap]))
    calls = count_solves(monkeypatch)
    got = candidate_lines(copy_complex(cx, diffs), "dd", _divided_difference_homotopy(e))
    assert len(calls) == len(cx.terms) - 1
    monkeypatch.undo()
    assert got == oracle_lines(copy_complex(cx, diffs), "dd")
    assert got[0]["passed"] and got[1]["passed"]


def test_no_candidate_is_read_without_a_certified_d_compose_d(resolved):
    """Never certified, or certified on maps since swapped for equal copies:
    the candidate is not read, and the verdict is the oracle's."""
    e, cx = resolved
    candidate = recording(_divided_difference_homotopy(e))
    fresh = copy_complex(cx)
    cert = contracting_homotopy(fresh, candidate)
    assert candidate.asked == []
    assert (cert.ok, cert.cells_checked, cert.detail) == oracle_homotopy(copy_complex(cx))
    fresh.dd_certificate()
    fresh.diffs[2] = with_block(cx.diffs[2], next(iter(cx.diffs[2].blocks)),
                                next(iter(cx.diffs[2].blocks.values())))
    contracting_homotopy(fresh, candidate)
    assert candidate.asked == []
    certified = copy_complex(cx)
    certified.dd_certificate()
    contracting_homotopy(certified, candidate)  # the control: read once certified
    assert candidate.asked
