"""Acceptance suite: one test per criterion, one pass/fail line each.

Every criterion assembles a canonical report (no wall times inside), so the
determinism criterion can compare the byte output across thread counts.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

from koszulcat.category import CategoryPresentation, day_convolution, day_unit_iso
from koszulcat.field import QQ
from koszulcat.hochschild import (
    build_enveloping,
    certify_tensor_idempotent,
    hochschild_cohomology,
    koszul_bimodule_resolution,
)
from koszulcat.koszul import build_koszul, check_resolution, pascal_split
from koszulcat.matrix import kernel
from koszulcat.monoid import (
    Element,
    generated_submodule,
    identity_monoid,
    quotient_module,
    regular_bimodule,
    scalar_monoid,
)
from koszulcat.parallel import make_parallel_map
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.problemfile import parse_problem_file
from koszulcat.sample import dual_numbers, s3_center
from koszulcat.tensor import (
    OuterStructure,
    build_syzygy_resolution,
    tensor_over_monoid,
    unit_law_maps,
)
from koszulcat.matrix import Matrix

import os

CAT = CategoryPresentation.trivial(QQ)
U = CAT.unit
PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")

_CACHE = {}


def run_criterion(k: int, threads: int = 1):
    key = (k, threads)
    if key not in _CACHE:
        pmap = make_parallel_map(threads)
        passed, payload, detail = CRITERIA[k](pmap)
        _CACHE[key] = (passed, payload, detail)
    return _CACHE[key]


def _emit(k, passed, detail):
    print("criterion %d: %s  (%s)" % (k, "PASS" if passed else "FAIL", detail))


def _payload(parts):
    return json.dumps(parts, sort_keys=True, separators=(",", ":"))


def _variables(a):
    return [variable_element(a, i + 1) for i in range(a.poly_info.nvars)]


def _cyclic(a, gens):
    return quotient_module(regular_bimodule(a), generated_submodule(a, gens)).module


# -- criterion 1: the complex property on randomized commutant tuples -----------


def _crit1(pmap):
    rng = random.Random(20250808)
    q = scalar_monoid(CAT)
    stock = [
        ("Q[x,y]", polynomial_monoid(q, 2, 5, var_names=("x", "y"))),
        ("Q[x,y,z]", polynomial_monoid(q, 3, 4, var_names=("x", "y", "z"))),
        ("dual", dual_numbers(QQ)),
        ("s3center", s3_center(QQ)),
    ]
    parts = []
    ok = True
    total_blocks = 0
    for case in range(20):
        name, a = stock[case % len(stock)]
        n = rng.randint(1, 4)
        alphas = []
        for _ in range(n):
            if a.cap > 0:
                deg = rng.randint(1, 2)
            else:
                deg = 0
            dim = a.carrier.dim(U, deg)
            coords = [Fraction(0)] * dim
            while not any(coords):
                coords = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
            alphas.append(Element(U, deg, tuple(coords)))
        kc = build_koszul(a, alphas)
        good, cells, bad = kc.complex.dd_certificate()
        ok = ok and good
        total_blocks += cells
        parts.append({"case": case, "monoid": name, "n": n,
                      "degrees": [al.degree for al in alphas],
                      "dd_zero": good, "blocks": cells})
    ok = ok and total_blocks > 0
    return ok, _payload(parts), \
        "20 randomized tuples, %d composite blocks all zero" % total_blocks


# -- criterion 2: the resolution theorem and its negative instance ----------------


def _crit2(pmap):
    q = scalar_monoid(CAT)
    parts = []
    ok = True
    for n in (1, 2, 3):
        a = polynomial_monoid(q, n, 6)
        cert = check_resolution(a, _variables(a), parallel_map=pmap)
        good = cert.regular and cert.report.all_passed
        h0 = {e.degree: e.dim for e in cert.report.entries if e.p == 0}
        good = good and h0[0] == 1 and all(h0[d] == 0 for d in range(1, 6))
        for e in cert.report.entries:
            if e.p and e.p >= 1:
                good = good and e.dim == 0
        ok = ok and good
        parts.append({"n": n, "passed": good, "report": cert.report.to_jsonable()})
    dn = dual_numbers(QQ)
    cert = check_resolution(dn, [dn.basis_element("xbar")], parallel_map=pmap)
    seq = next(c for c in cert.report.certificates if c.name == "regular-sequence")
    witness_ok = (not cert.regular
                  and seq.witness["stages"][0]["witness"]["coords"] == ["0", "1"])
    h1 = sum(e.dim for e in cert.report.entries if e.p == 1)
    neg_ok = witness_ok and h1 == 1
    ok = ok and neg_ok
    parts.append({"instance": "dual-numbers", "regular": cert.regular,
                  "h1": h1, "witness_is_xbar": witness_ok})
    return ok, _payload(parts), "resolutions for n=1,2,3; converse witnessed"


# -- criterion 3: Pascal decomposition and the connecting map ---------------------


def _crit3(pmap):
    q = scalar_monoid(CAT)
    dn = dual_numbers(QQ)
    parts = []
    ok = True
    total_cycles = 0
    for n in (2, 3):
        # regular tuple: ladder and restriction identities
        a = polynomial_monoid(q, n, 5)
        sw = pascal_split(build_koszul(a, _variables(a)))
        ok = ok and sw.passed
        parts.append({"base": "Q", "n": n, "report": sw.report.to_jsonable()})
        # nilpotent-scaled first element: the small complex has genuine
        # cycles, so the connecting map is evaluated on real lifts
        b = polynomial_monoid(dn, n, 5)
        alphas = _variables(b)
        alphas[0] = b.multiply(b.basis_element("xbar"), alphas[0])
        sw2 = pascal_split(build_koszul(b, alphas))
        delta = next(c for c in sw2.report.certificates
                     if c.name == "connecting-map-formula")
        cycles = delta.witness["cycles_checked"]
        total_cycles += cycles
        ok = ok and sw2.passed and cycles > 0
        parts.append({"base": "dual", "n": n, "cycles": cycles,
                      "report": sw2.report.to_jsonable()})
    return ok, _payload(parts), \
        "ladder identities, delta on %d lifted cycles, n=2,3" % total_cycles


# -- criterion 4: the enveloping kernel ideal --------------------------------------


def _crit4(pmap):
    q = scalar_monoid(CAT)
    parts = []
    ok = True
    for n in (1, 2):
        e = build_enveloping(q, n, 5)
        good = e.passed
        both_ways = True
        for d in range(6):
            dim_gap = e.c.carrier.dim(U, d) - e.a_n.carrier.dim(U, d)
            if e.ideal[(U, d)].dim != dim_gap:
                good = False
            ker = kernel(e.pi[(U, d)])
            if not (ker.contains_subspace(e.ideal[(U, d)])
                    and e.ideal[(U, d)].contains_subspace(ker)):
                both_ways = False
        good = good and both_ways
        ok = ok and good
        parts.append({"n": n, "passed": good, "containment_both_ways": both_ways,
                      "report": e.report.to_jsonable()})
    return ok, _payload(parts), "kernel of the collapse equals the ideal, n=1,2"


# -- criterion 5: the Hochschild theorem --------------------------------------------


def _crit5(pmap):
    q = scalar_monoid(CAT)
    parts = []
    ok = True
    for n in (1, 2, 3):
        e = build_enveloping(q, n, 5)
        m = regular_bimodule(e.a_n)
        for p in range(n + 3):
            rep = hochschild_cohomology(e, m, p, parallel_map=pmap)
            dims = {en.degree: en.dim for en in rep.entries}
            if p <= n:
                phi_cert = next(c for c in rep.certificates
                                if c.name == "cochain-differential-zero")
                good = phi_cert.passed
                for d in range(5):
                    good = good and dims[d] == comb(n, p) * comb(n + d - 1, d)
            else:
                good = all(v == 0 for v in dims.values())
            ok = ok and good
            parts.append({"n": n, "p": p, "passed": good,
                          "dims": [dims[d] for d in sorted(dims)]})
    return ok, _payload(parts), "phi = 0 and binomial dimensions, n=1,2,3, p=0..n+2"


# -- criterion 6: split certificates -------------------------------------------------


def _crit6(pmap):
    q = scalar_monoid(CAT)
    parts = []
    ok = True
    for n in (1, 2):
        e = build_enveloping(q, n, 5)
        res = koszul_bimodule_resolution(e)
        hc = next(c for c in res.report.certificates if c.name == "contracting-homotopy")
        ok = ok and res.passed and hc.passed and hc.witness["cells_checked"] > 0
        parts.append({"kind": "bimodule", "n": n, "homotopy": hc.to_jsonable()})
    e1 = build_enveloping(q, 1, 5)
    e2 = build_enveloping(q, 2, 5)
    instances = [
        ("Q[t]/(t)", e1, _cyclic(e1.a_n, [variable_element(e1.a_n, 1)])),
        ("Q[t1,t2]/(t1,t2)", e2, _cyclic(e2.a_n, [variable_element(e2.a_n, 1),
                                                  variable_element(e2.a_n, 2)])),
        ("A_1", e1, regular_bimodule(e1.a_n)),
        ("A_2", e2, regular_bimodule(e2.a_n)),
    ]
    for label, env, mod in instances:
        res = build_syzygy_resolution(env, mod)
        hc = next(c for c in res.report.certificates if c.name == "contracting-homotopy")
        ok = ok and res.passed and hc.passed and hc.witness["cells_checked"] > 0
        parts.append({"kind": "syzygy", "module": label, "homotopy": hc.to_jsonable()})
    return ok, _payload(parts), "dh + hd = id exactly on every certified cell"


# -- criterion 7: tensor-over-monoid against the brute-force oracle -------------------


def _oracle_tensor_dims(a, m, n):
    """Independent relation-closure oracle: plain spans and naive elimination."""
    cap = min(m.cap, n.cap) if (m.carrier.truncated or n.carrier.truncated) \
        else m.cap + n.cap
    dims = {}
    for d in range(cap + 1):
        offsets = {}
        total = 0
        for d1 in range(d + 1):
            offsets[d1] = total
            total += m.carrier.dim(U, d1) * n.carrier.dim(U, d - d1)
        rels = []
        for dm in range(d + 1):
            for da in range(d + 1 - dm):
                dn = d - dm - da
                dim_m = m.carrier.dim(U, dm)
                dim_a = a.carrier.dim(U, da)
                dim_n = n.carrier.dim(U, dn)
                if 0 in (dim_m, dim_a, dim_n):
                    continue
                sig_r = m.right_cell(U, dm, U, da)
                sig_l = n.left_cell(U, da, U, dn)
                for mi in range(dim_m):
                    for aj in range(dim_a):
                        ma = sig_r.column(mi * dim_a + aj)
                        for nk in range(dim_n):
                            an = sig_l.column(aj * dim_n + nk)
                            vec = [Fraction(0)] * total
                            base1 = offsets[dm + da]
                            nd = n.carrier.dim(U, dn)
                            for r, v in enumerate(ma):
                                vec[base1 + r * nd + nk] += v
                            base2 = offsets[dm]
                            nd2 = n.carrier.dim(U, da + dn)
                            for r, v in enumerate(an):
                                vec[base2 + mi * nd2 + r] -= v
                            if any(vec):
                                rels.append(vec)
        dims[d] = total - _naive_rank(rels, total)
    return dims


def _naive_rank(rows, ncols):
    work = [list(r) for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] / work[rank][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def _crit7(pmap):
    parts = []
    ok = True
    dn = dual_numbers(QQ)
    qt = polynomial_monoid(scalar_monoid(CAT), 1, 4)
    t = variable_element(qt, 1)
    t2 = qt.multiply(t, t)
    families = [
        ("dual", dn, [("A", regular_bimodule(dn)),
                      ("A/(x)", _cyclic(dn, [dn.basis_element("xbar")]))]),
        ("Q[t]", qt, [("A", regular_bimodule(qt)),
                      ("A/(t)", _cyclic(qt, [t])),
                      ("A/(t^2)", _cyclic(qt, [t2]))]),
    ]
    for label, a, fam in families:
        for m_name, m_mod in fam:
            for n_name, n_mod in fam:
                coeq = tensor_over_monoid(m_mod, n_mod)
                got = {d: coeq.dim(U, d) for d in range(coeq.gt.cap + 1)}
                want = _oracle_tensor_dims(a, m_mod, n_mod)
                agree = got == want
                ok = ok and agree
                parts.append({"monoid": label, "pair": [m_name, n_name],
                              "dims": [got[d] for d in sorted(got)],
                              "oracle_agrees": agree})
            # unit law M (x)_A A = M
            coeq = tensor_over_monoid(m_mod, regular_bimodule(a))
            unit_dims = {d: coeq.dim(U, d) for d in range(coeq.gt.cap + 1)}
            mod_dims = {d: m_mod.carrier.dim(U, d) for d in range(coeq.gt.cap + 1)}
            law = unit_dims == mod_dims
            if law:
                unit_law_maps(coeq, "right")
            ok = ok and law
            parts.append({"monoid": label, "unit_law_for": m_name, "holds": law})
    # Lemma A.2 on a three-monoid instance: the tensor with outer scalar
    # actions on both sides, both of which must descend (else this raises),
    # has the oracle's dims
    q = scalar_monoid(CAT)
    reg = regular_bimodule(dn)
    scalars_l = OuterStructure(q, "left", {(U, 0, U, 0): Matrix.identity(QQ, 2)})
    scalars_r = OuterStructure(q, "right", {(U, 0, U, 0): Matrix.identity(QQ, 2)})
    coeq = tensor_over_monoid(reg, reg, m_outer=scalars_l, n_outer=scalars_r)
    got = {d: coeq.dim(U, d) for d in range(coeq.gt.cap + 1)}
    agree = got == _oracle_tensor_dims(dn, reg, reg)
    ok = ok and agree and bool(coeq.outer_left) and bool(coeq.outer_right)
    parts.append({"lemma_a2": {"dims": [got[d] for d in sorted(got)], "oracle_agrees": agree}})
    return ok, _payload(parts), "coequalizer dims match the oracle; unit laws exact"


# -- criterion 8: finite-backend smoke ------------------------------------------------


def _crit8(pmap):
    problem = parse_problem_file(os.path.join(PROBLEMS, "c2conv.kz"))
    cat = problem.category
    parts = []
    ok = True
    ident_rep = problem.build_representation("I")
    reg = problem.build_representation("reg")
    for name, f in (("I", ident_rep), ("reg", reg)):
        conv = day_convolution(cat, ident_rep, f)
        dims_match = all(conv.dims[x] == f.dims[x] for x in cat.objects)
        day_unit_iso(cat, f, "left")
        day_unit_iso(cat, f, "right")
        ok = ok and dims_match
        parts.append({"functor": name, "unit_tensor_dims_match": dims_match,
                      "dims": {x: conv.dims[x] for x in cat.objects}})
    cert = certify_tensor_idempotent(identity_monoid(cat))
    consistent = bool(cert.direct_ok) and bool(cert.quotient_ok)
    ok = ok and cert.passed and consistent
    parts.append({"identity_idempotent": cert.passed,
                  "direct": cert.direct_ok, "quotient_of_I": cert.quotient_ok})
    return ok, _payload(parts), "Day unit law and idempotence of I on c2conv"


CRITERIA = {1: _crit1, 2: _crit2, 3: _crit3, 4: _crit4, 5: _crit5,
            6: _crit6, 7: _crit7, 8: _crit8}


def test_criterion_1_complex_property():
    t0 = time.time()
    passed, _, detail = run_criterion(1)
    elapsed = time.time() - t0
    _emit(1, passed, "%s, %.1fs" % (detail, elapsed))
    assert passed
    assert elapsed < 10.0


def test_criterion_2_resolution_theorem():
    passed, _, detail = run_criterion(2)
    _emit(2, passed, detail)
    assert passed


def test_criterion_3_pascal_split():
    passed, _, detail = run_criterion(3)
    _emit(3, passed, detail)
    assert passed


def test_criterion_4_enveloping_kernel():
    passed, _, detail = run_criterion(4)
    _emit(4, passed, detail)
    assert passed


def test_criterion_5_hochschild_theorem():
    t0 = time.time()
    passed, _, detail = run_criterion(5)
    elapsed = time.time() - t0
    _emit(5, passed, "%s, %.1fs" % (detail, elapsed))
    assert passed
    assert elapsed < 60.0


def test_criterion_6_split_certificates():
    passed, _, detail = run_criterion(6)
    _emit(6, passed, detail)
    assert passed


def test_criterion_7_tensor_oracle():
    passed, _, detail = run_criterion(7)
    _emit(7, passed, detail)
    assert passed


def test_criterion_8_finite_backend_smoke():
    passed, _, detail = run_criterion(8)
    _emit(8, passed, detail)
    assert passed


def test_criterion_9_determinism():
    mismatches = []
    for k in range(1, 9):
        _, base, _ = run_criterion(k, threads=1)
        for threads in (2, 8):
            _, other, _ = run_criterion(k, threads=threads)
            if other.encode() != base.encode():
                mismatches.append((k, threads))
    passed = not mismatches
    _emit(9, passed, "byte-identical reports across 1, 2, 8 threads"
          if passed else "mismatches: %s" % mismatches)
    assert passed
