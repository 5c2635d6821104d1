"""Expected results of every benchmark job, computed without koszulcat.

This module must never import koszulcat: it is the independent side of the
correctness check.  It derives what each job has to produce from the job's
own input (coefficient tuples, the base, the problem-file text) and from
closed-form statements of the theory, and compares that with the canonical
JSON reports the job wrote.  `check(workload, spec, outcome)` returns a list
of disagreements; an empty list means the job matches.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb


def fraction_rank(rows) -> int:
    """Rank of an integer matrix by plain Fraction Gaussian elimination."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def monomials(nvars: int, degree: int) -> int:
    """Number of monomials of a degree in nvars variables (1 at degree 0)."""
    if nvars == 0:
        return 1 if degree == 0 else 0
    return comb(degree + nvars - 1, nvars - 1)


def _failed_certs(rep):
    return [c["name"] for c in rep["certificates"] if not c["passed"]]


def _entries(rep):
    return {(e["p"], e["obj"], e["degree"]): e["dim"] for e in rep["entries"]}


def _expect_entries(problems, what, got, want):
    if got != want:
        missing = sorted(set(want) - set(got), key=repr)[:3]
        extra = sorted(set(got) - set(want), key=repr)[:3]
        wrong = sorted((k for k in set(got) & set(want) if got[k] != want[k]), key=repr)[:3]
        problems.append("%s: missing %s, unexpected %s, wrong %s"
                        % (what, missing, extra, [(k, got[k], want[k]) for k in wrong]))


# -- resolve_q ---------------------------------------------------------------


def resolve_q_expected(spec):
    """Regularity and Koszul homology of k linear forms in n variables.

    For a tuple of rank r, K(alpha) is the Koszul complex of r independent
    forms tensored with an exterior algebra on k - r generators, so
    H_p(d) = C(k-r, p) * #monomials(n - r, d) in the unshifted grading.
    """
    n, cap, forms = spec["nvars"], spec["cap"], spec["forms"]
    k = len(forms)
    r = fraction_rank(forms)
    dims = {}
    for p in range(k + 1):
        top = cap if p == 0 else cap - 1
        for d in range(top + 1):
            dims[(p, "1", d)] = comb(k - r, p) * monomials(n - r, d)
    return r == k, dims


def check_resolve_q(spec, outcome):
    problems = []
    regular, want = resolve_q_expected(spec)
    rep = json.loads(outcome["resolution"])
    failed = _failed_certs(rep)
    expect_failed = [] if regular else ["regular-sequence"]
    if failed != expect_failed:
        problems.append("resolution certificates failed %s, expected %s"
                        % (failed, expect_failed))
    if not regular:
        seq = next(c for c in rep["certificates"] if c["name"] == "regular-sequence")
        wit = (seq.get("witness") or {}).get("stages", [{}])[-1].get("witness")
        if not wit or not any(c != "0" for c in wit["coords"]):
            problems.append("non-regular tuple without a nonzero witness")
    _expect_entries(problems, "koszul homology", _entries(rep), want)
    split = json.loads(outcome["split"])
    if _failed_certs(split):
        problems.append("pascal split certificates failed %s" % _failed_certs(split))
    return problems


# -- hochschild_fp -------------------------------------------------------------


def check_hochschild_fp(spec, outcome):
    """HH^p(x, d) = C(n, p) * dim A_n(x, d) for p <= n, zero above n.

    A_n(x, d) = I(x) (x) degree-d polynomials in n variables, so its dimension
    is the base dimension at x times the monomial count.  The bimodule
    resolution has C(n, p-1) copies of A_2n in term p >= 1, and the syzygy
    resolution of A_n / (linear form) starts at the quotient, whose cells
    count monomials in n - 1 variables.  Every certificate must pass.
    """
    problems = []
    n, cap, base = spec["nvars"], spec["cap"], spec["base_dims"]
    if not outcome["idempotent"]:
        problems.append("base not certified tensor idempotent")
    for key in ("enveloping", "resolution", "syzygy"):
        failed = _failed_certs(json.loads(outcome[key]))
        if failed:
            problems.append("%s certificates failed %s" % (key, failed))
    want_res = {}
    for x, b in base.items():
        for d in range(cap + 1):
            want_res[(0, x, d)] = b * monomials(n, d)
            for p in range(1, n + 2):
                want_res[(p, x, d)] = comb(n, p - 1) * b * monomials(2 * n, d)
    _expect_entries(problems, "bimodule resolution terms",
                    _entries(json.loads(outcome["resolution"])), want_res)
    syz = _entries(json.loads(outcome["syzygy"]))
    want_m = {(0, x, d): b * monomials(n - 1, d) for x, b in base.items()
              for d in range(cap + 1)}
    _expect_entries(problems, "syzygy module term",
                    {k: v for k, v in syz.items() if k[0] == 0}, want_m)
    if max(p for p, _, _ in syz) != n + 1:
        problems.append("syzygy resolution has %d terms above the module, expected %d"
                        % (max(p for p, _, _ in syz), n + 1))
    for p, text in enumerate(outcome["hh"]):
        rep = json.loads(text)
        if _failed_certs(rep):
            problems.append("HH^%d certificates failed %s" % (p, _failed_certs(rep)))
        want = {(p, x, d): (comb(n, p) * b * monomials(n, d) if p <= n else 0)
                for x, b in base.items() for d in range(cap)}
        _expect_entries(problems, "HH^%d" % p, _entries(rep), want)
    return problems


# -- corpus ------------------------------------------------------------------


def _basis_line(problem_text):
    for line in problem_text.splitlines():
        toks = line.split("#", 1)[0].split()
        if toks[:1] == ["basis"]:
            return toks[1:]
    raise ValueError("no basis line")


def check_corpus(spec, outcome):
    """Exit codes and the facts README and the problem files state."""
    problems = []
    code, want_code = outcome["code"], spec["exit"]
    if code != want_code:
        return ["exit code %r, expected %r" % (code, want_code)]
    report = outcome["report"]
    if want_code == 2:
        if report is not None:
            problems.append("input error still wrote a report")
        if outcome["stdout"]:
            problems.append("input error printed a result")
        return problems
    if report is None:
        return ["no report written"]
    rep = json.loads(report)
    failed = _failed_certs(rep)
    if want_code == 0 and failed:
        problems.append("exit 0 with failed certificates %s" % failed)
    if want_code == 1 and not failed:
        problems.append("exit 1 without a failed certificate")
    fact = spec.get("fact")
    ent = _entries(rep)
    if fact == "commutant-dim-3":
        _expect_entries(problems, "commutant", ent, {(None, "1", 0): 3})
    elif fact == "witness-xbar":
        basis = _basis_line(spec["problem_text"])
        seq = next(c for c in rep["certificates"] if c["name"] == "regular-sequence")
        wit = seq["witness"]["stages"][-1]["witness"]
        named = [b for b, c in zip(basis, wit["coords"]) if c != "0"]
        if named != ["xbar"] or wit["degree"] != 0:
            problems.append("witness %s, expected xbar" % wit)
    elif fact == "hh1-two-vars":
        _expect_entries(problems, "HH^1", ent,
                        {(1, "1", d): 2 * comb(d + 1, d) for d in range(spec["cap"])})
    elif fact == "hh1-c2-one-var":
        _expect_entries(problems, "HH^1", ent,
                        {(1, x, d): 1 for x in ("e", "g") for d in range(spec["cap"])})
    elif fact == "h0-degree-0":
        h0 = {k: v for k, v in ent.items() if k[0] == 0}
        _expect_entries(problems, "H_0", h0,
                        {(0, "1", d): int(d == 0) for d in range(spec["cap"] + 1)})
        if any(v for k, v in ent.items() if k[0] != 0):
            problems.append("higher homology of a regular sequence")
    return problems


CHECKS = {
    "resolve_q": check_resolve_q,
    "hochschild_fp": check_hochschild_fp,
    "corpus": check_corpus,
}


def check(workload, spec, outcome):
    return CHECKS[workload](spec, outcome)
