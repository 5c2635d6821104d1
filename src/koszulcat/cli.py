"""Command-line front end.

Verbs: validate | koszul | regular-check | commutant | tensor-idem | hh |
syzygy | tensor-over.  Each verb and its handler are declared once, on the
verb's subparser.  Exit codes: 0 when every certificate passes, 1 on a
mathematical failure (with a witness in the report), 2 on input errors.
Reports print as aligned tables on stdout; --report writes the canonical
machine-readable form.  `main` may be called repeatedly in one process: the
parser is built on first use and shared by every later call.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import (
    IsoFailureError,
    KoszulcatError,
    NotCentralError,
    ParseError,
    StabilityError,
)
from .hochschild import (
    build_enveloping,
    certify_tensor_idempotent,
    check_base_merge,
    hochschild_cohomology,
    polynomial_over,
)
from .koszul import build_koszul, check_resolution, koszul_homology_report
from .monoid import (
    commutant,
    is_regular_sequence,
    regular_bimodule,
    validate_monoid,
)
from .category import validate_presentation, validate_representation
from .parallel import make_parallel_map, resolve_threads
from .poly import element_from_name
from .problemfile import parse_problem_file
from .report import GradedReport
from .tensor import syzygy_resolution, tensor_over_monoid, unit_law_maps

MATH_FAILURE = (IsoFailureError, NotCentralError, StabilityError)


@functools.lru_cache(maxsize=None)
def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="koszulcat",
                                 description="certified homological algebra "
                                             "for monoids in functor categories")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("file", help="problem file")
        p.add_argument("--field", help="expected field descriptor, e.g. Q or 'F 5'")
        p.add_argument("--max-degree", type=int, default=None,
                       help="truncation cap for graded carriers")
        p.add_argument("--threads", type=int, default=None,
                       help="thread count (or KOSZULCAT_THREADS): validated, but the "
                            "cells run on the calling thread")
        p.add_argument("--report", help="write the machine-readable report here")
        return p

    verb("validate", cmd_validate, "check every axiom of the declared data")
    k = verb("koszul", cmd_koszul, "build the complex, certify, report homology")
    k.add_argument("--alpha", help="comma-separated central elements")
    k.add_argument("--check-resolution", action="store_true")
    r = verb("regular-check", cmd_regular_check, "regular-sequence certificate")
    r.add_argument("--alpha", help="comma-separated central elements")
    verb("commutant", cmd_commutant, "commutant dimensions per object and degree")
    verb("tensor-idem", cmd_tensor_idem, "tensor idempotence certificate")
    h = verb("hh", cmd_hh, "Hochschild cohomology of the polynomial monoid")
    h.add_argument("-n", type=int, help="number of variables")
    h.add_argument("-p", type=int, help="cohomological degree")
    h.add_argument("--module", help="coefficient module (default: the monoid itself)")
    s = verb("syzygy", cmd_syzygy, "split resolution of a module")
    s.add_argument("-n", type=int, help="number of variables")
    s.add_argument("--module", help="module to resolve", required=False)
    t = verb("tensor-over", cmd_tensor_over, "tensor product over the subject monoid")
    t.add_argument("--module", help="two module names, comma separated")
    return ap


def _task_value(args, problem, key, default=None):
    """The flag's value, else the task line's (validated by the parser), else default."""
    cli_val = getattr(args, key.replace("-", "_"), None)
    if cli_val is not None:
        return cli_val
    return problem.task.get(key, default)


def _fail(msg, code):
    print("error: %s" % msg, file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        problem = parse_problem_file(args.file)
    except FileNotFoundError:
        return _fail("no such file: %s" % args.file, 2)
    except ParseError as exc:
        return _fail(str(exc), 2)
    if args.field and problem.field.descriptor().replace(" ", "") \
            != args.field.replace(" ", "").replace("_", ""):
        return _fail("file declares field %s, flag says %s"
                     % (problem.field.descriptor(), args.field), 2)
    try:
        if problem.backend == "finite" and args.verb != "validate":
            axioms = validate_presentation(problem.category)
            if not axioms.ok:  # every verb but validate needs a lawful category
                return _fail("%s: %s" % (axioms.subject, axioms.violations[0]), 2)
        parallel_map = make_parallel_map(resolve_threads(args.threads))
        cap = _task_value(args, problem, "max-degree", default=4)
        report, code = args.handler(args, problem, cap, parallel_map)
    except MATH_FAILURE as exc:
        return _fail(str(exc), 1)
    except ParseError as exc:
        return _fail(str(exc), 2)
    except KoszulcatError as exc:
        return _fail(str(exc), 2)
    if report is not None:
        print(report.to_text())
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report.to_json_str() + "\n")
    return code


def _alphas(args, problem, subject):
    raw = _task_value(args, problem, "alpha")
    if not raw:
        raise ParseError("no alpha elements given (flag --alpha or task line)")
    return [element_from_name(subject, nm.strip()) for nm in raw.split(",")]


def cmd_validate(args, problem, cap, parallel_map):
    reports = []
    if problem.backend == "finite":
        reports.append(validate_presentation(problem.category))
    for name in sorted(problem.reps):
        rep = problem.build_representation(name)
        reports.append(validate_representation(problem.category, rep))
    for name in sorted(problem.monoids):
        mon = problem.build_monoid(name, cap)
        reports.append(validate_monoid(mon))
    ok = all(r.ok for r in reports)
    out = GradedReport(
        task={"op": "validate", "file": problem.path},
        field=problem.field.descriptor(),
        window={"cap": cap},
    )
    for r in reports:
        out.add_certificate(r.subject.replace(" ", "-"), r.ok,
                            detail="%d axiom instances" % r.checked,
                            witness=None if r.ok else
                            {"violations": [str(v) for v in r.violations]})
    for r in reports:
        print(r.to_text())
    return out, (0 if ok else 1)


def cmd_koszul(args, problem, cap, parallel_map):
    subject = problem.build_subject(cap)
    alphas = _alphas(args, problem, subject)
    if getattr(args, "check_resolution", False) or problem.task.get("check-resolution"):
        cert = check_resolution(subject, alphas, parallel_map=parallel_map)
        return cert.report, (0 if cert.report.all_passed else 1)
    kc = build_koszul(subject, alphas)
    report = koszul_homology_report(kc, parallel_map=parallel_map)
    return report, (0 if report.all_passed else 1)


def cmd_regular_check(args, problem, cap, parallel_map):
    subject = problem.build_subject(cap)
    alphas = _alphas(args, problem, subject)
    cert = is_regular_sequence(subject, alphas)
    report = GradedReport(
        task={"op": "regular-check", "monoid": subject.name},
        field=subject.field.descriptor(),
        window={"cap": subject.cap, "truncated": subject.carrier.truncated},
    )
    report.add_certificate("regular-sequence", cert.regular,
                           witness=cert.to_jsonable(subject.field))
    for (x, d), dim in sorted(cert.final_dims.items()):
        report.add_entry(None, x, d, dim)
    return report, (0 if cert.regular else 1)


def cmd_commutant(args, problem, cap, parallel_map):
    subject = problem.build_subject(cap)
    report = GradedReport(
        task={"op": "commutant", "monoid": subject.name},
        field=subject.field.descriptor(),
        window={"cap": subject.cap, "truncated": subject.carrier.truncated},
    )
    for x in subject.cat.objects:
        com = commutant(subject, x)
        for d, sub in sorted(com.items()):
            report.add_entry(None, x, d, sub.dim)
    return report, 0


def cmd_tensor_idem(args, problem, cap, parallel_map):
    subject = problem.build_subject(cap)
    cert = certify_tensor_idempotent(subject)
    report = GradedReport(
        task={"op": "tensor-idem", "monoid": subject.name},
        field=subject.field.descriptor(),
        window={"cap": subject.cap},
    )
    report.add_certificate("tensor-idempotent", cert.passed,
                           detail="mode: %s; %s" % (cert.mode, cert.detail))
    report.add_certificate("direct-mode", bool(cert.direct_ok))
    report.add_certificate("quotient-of-unit-mode", bool(cert.quotient_ok))
    return report, (0 if cert.passed else 1)


def _polynomial_setup(args, problem):
    """Base monoid, variable count and names for the hh and syzygy verbs.

    A polynomial subject contributes its base and declared variable names; a
    degree-0 subject is the base itself and the variables get default names.
    """
    main = problem.monoids[problem.main_name()]
    n = _task_value(args, problem, "n")
    if main.kind == "poly":
        base = problem.build_monoid(main.over, 0)
        if n is None:
            n = len(main.var_names)
        if n != len(main.var_names):
            raise ParseError("-n %d conflicts with the %d declared variables"
                             % (n, len(main.var_names)))
        return base, n, main.var_names
    if n is None:
        raise ParseError("this verb needs -n (or a polynomial subject)")
    return problem.build_subject(0), n, None


def _refusal(task, subject, cap, cert):
    """The report and exit code of a verb that needs a tensor-idempotent subject."""
    report = GradedReport(task=task, field=subject.field.descriptor(), window={"cap": cap})
    report.add_certificate("tensor-idempotent", False, detail="refused: %s" % cert.detail)
    return report, 1


def cmd_hh(args, problem, cap, parallel_map):
    subject, n, var_names = _polynomial_setup(args, problem)
    p = _task_value(args, problem, "p")
    if p is None:
        raise ParseError("hh needs -p")
    cert = certify_tensor_idempotent(subject)
    if not cert.passed:
        return _refusal({"op": "hh", "monoid": subject.name, "n": n, "p": p}, subject, cap, cert)
    env = build_enveloping(subject, n, cap, idem_cert=cert, var_names=var_names)
    mod_name = _task_value(args, problem, "module")
    if mod_name:
        coeffs = problem.build_module(mod_name, env.a_n)
    else:
        coeffs = regular_bimodule(env.a_n)
    report = hochschild_cohomology(env, coeffs, p, parallel_map=parallel_map)
    for c in env.report.certificates:
        report.certificates.append(c)
    return report, (0 if report.all_passed else 1)


def cmd_syzygy(args, problem, cap, parallel_map):
    """Resolve a module over A_n alone: the enveloping monoid, which only the
    Hochschild side reads, is not built.  The base is refused wherever
    `build_enveloping` would refuse it, before the module is built."""
    subject, n, var_names = _polynomial_setup(args, problem)
    mod_name = _task_value(args, problem, "module")
    if not mod_name:
        raise ParseError("syzygy needs --module")
    cert = certify_tensor_idempotent(subject)
    if not cert.passed:
        return _refusal({"op": "syzygy", "monoid": subject.name, "n": n}, subject, cap, cert)
    a_n = polynomial_over(subject, n, cap, cert, var_names)
    check_base_merge(subject, cert)
    res = syzygy_resolution(a_n, problem.build_module(mod_name, a_n))
    return res.report, (0 if res.passed else 1)


def cmd_tensor_over(args, problem, cap, parallel_map):
    subject = problem.build_subject(cap)
    raw = _task_value(args, problem, "module")
    if not raw or "," not in raw:
        raise ParseError("tensor-over needs --module M,N")
    m_name, n_name = [s.strip() for s in raw.split(",", 1)]
    m_mod = problem.build_module(m_name, subject)
    n_mod = problem.build_module(n_name, subject)
    coeq = tensor_over_monoid(m_mod, n_mod)
    report = GradedReport(
        task={"op": "tensor-over", "monoid": subject.name,
              "modules": "%s,%s" % (m_name, n_name)},
        field=subject.field.descriptor(),
        window={"cap": coeq.gt.cap, "truncated": subject.carrier.truncated},
    )
    for (x, d), q in sorted(coeq.quots.items()):
        report.add_entry(None, x, d, q.dim)
    if problem.modules.get(m_name) == ("self",):
        unit_law_maps(coeq, "left")
    if problem.modules.get(n_name) == ("self",):
        unit_law_maps(coeq, "right")
    return report, 0


if __name__ == "__main__":
    sys.exit(main())
