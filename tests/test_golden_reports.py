"""Report bytes pinned against recorded goldens.

Every case runs one CLI command or one library call and compares what it
produces with the files under tests/golden/: the stdout and the canonical
`--report` JSON of the CLI commands, and for the library calls the canonical
JSON of each report plus a SHA-256 digest of every differential and
comparison map the call assembled, so a change to the matrices themselves
shows even where the dimensions in a report would not.

To record the goldens again from the current code, run

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest

from koszulcat.category import CategoryPresentation
from koszulcat.cli import main
from koszulcat.field import QQ, Field
from koszulcat.hochschild import (
    _cochain_differences,
    _cochain_phi,
    build_enveloping,
    certify_tensor_idempotent,
    hochschild_cohomology,
    koszul_bimodule_resolution,
)
from koszulcat.koszul import build_koszul, check_resolution, koszul_homology_report, pascal_split
from koszulcat.matrix import Matrix
from koszulcat.monoid import (
    Module,
    degree_zero_carrier,
    generated_submodule,
    identity_monoid,
    is_regular_sequence,
    quotient_module,
    regular_bimodule,
    scalar_monoid,
)
from koszulcat.poly import (
    default_var_names,
    element_from_name,
    merge_variables,
    multi_indices,
    polynomial_monoid,
    rename_variables,
    variable_element,
)
from koszulcat.problemfile import parse_problem_file
from koszulcat.sample import c2_convolution_category, c2_regular_representation
from koszulcat.tensor import build_syzygy_resolution, module_over_identity, tensor_over_monoid
from test_copy_maps import identity_map
from test_homology_rank import linear_form

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (name, argv, exit code): the README corpus commands plus regular-check.
CLI_CASES = [
    ("validate_c2conv", ["validate", "problems/c2conv.kz"], 0),
    ("koszul_poly_xy", ["koszul", "problems/poly_xy.kz", "--alpha", "x,y",
                        "--max-degree", "6", "--check-resolution"], 0),
    ("koszul_dual_numbers", ["koszul", "problems/dual_numbers.kz"], 1),
    ("commutant_s3", ["commutant", "problems/s3_group_algebra.kz"], 0),
    ("tensor_idem_c2conv", ["tensor-idem", "problems/c2conv.kz"], 0),
    ("hh_trivial_q", ["hh", "problems/trivial_q.kz", "-n", "2", "-p", "1",
                      "--max-degree", "4"], 0),
    ("syzygy_trivial_q", ["syzygy", "problems/trivial_q.kz", "-n", "1",
                          "--module", "Mt", "--max-degree", "4"], 0),
    ("tensor_over_dual_numbers", ["tensor-over", "problems/dual_numbers.kz",
                                  "--module", "R,M"], 0),
    ("regular_check_poly_xy", ["regular-check", "problems/poly_xy.kz"], 0),
    ("hh_c2conv", ["hh", "problems/c2conv.kz", "-n", "1", "-p", "1",
                   "--max-degree", "3"], 0),
    ("syzygy_c2conv", ["syzygy", "problems/c2conv.kz", "-n", "1", "--module", "R",
                       "--max-degree", "3"], 0),
    ("tensor_over_poly_xy", ["tensor-over", "problems/poly_xy.kz", "--module", "M,Mx",
                             "--max-degree", "4"], 0),
]

F101 = Field(101)


def _base(field):
    return scalar_monoid(CategoryPresentation.trivial(field))


def _c2_base(field):
    """The Day unit of the C2 convolution category: every Day quotient is proper."""
    return identity_monoid(c2_convolution_category(field))


def _poly(field, n, cap):
    return polynomial_monoid(_base(field), n, cap)


def _variables(a):
    return [variable_element(a, i + 1) for i in range(a.poly_info.nvars)]


def _cyclic_quotient(a, gens):
    return quotient_module(regular_bimodule(a), generated_submodule(a, gens)).module


def _twisted_bimodule(a):
    """A over a scalar base with the right action twisted by t_i -> (i+1) t_i.

    The two one-sided multiplications by a variable then differ, so the
    cochain differentials of Hochschild cohomology are nonzero.
    """
    field, n = a.field, a.poly_info.nvars
    twist = {}
    for d in range(a.cap + 1):
        diag = Matrix.zeros(field, a.carrier.dim(a.cat.unit, d), a.carrier.dim(a.cat.unit, d))
        for k, mono in enumerate(multi_indices(n, d)):
            c = 1
            for i, e in enumerate(mono):
                c *= (i + 2) ** e
            diag.rows[k][k] = field.from_int(c)
        twist[d] = diag
    right = {}
    for (x, d1, y, d2), mat in a.pairing.items():
        right[(x, d1, y, d2)] = mat * Matrix.identity(field, a.carrier.dim(x, d1)).kron(twist[d2])
    return Module(a, a.carrier, dict(a.pairing), right, name="twisted")


def _digest(blocks) -> str:
    """SHA-256 of the nonzero matrices of a dict, in a canonical text form.

    A zero block reads the same whether it is stored or not, so only the
    nonzero ones enter the digest.
    """
    h = hashlib.sha256()
    for key in sorted(blocks, key=repr):
        m = blocks[key]
        if m.is_zero():
            continue
        h.update(("%r %dx%d\n" % (key, m.nrows, m.ncols)).encode())
        for i, row in enumerate(m.rows):
            for j in sorted(row):
                h.update(("%d %d %s\n" % (i, j, row[j])).encode())
    return h.hexdigest()


def _complex_lines(cx):
    return ["map d%d %s" % (p, _digest(d.blocks)) for p, d in enumerate(cx.diffs) if d is not None]


def _check_resolution_lines(field, n, cap, alphas_of):
    a = _poly(field, n, cap)
    alphas = alphas_of(a)
    lines = ["report " + check_resolution(a, alphas).report.to_json_str()]
    return lines + _complex_lines(build_koszul(a, alphas).complex)


def _koszul_homology_lines(a, alphas_of):
    kc = build_koszul(a, alphas_of(a))
    return ["report " + koszul_homology_report(kc).to_json_str()] + _complex_lines(kc.complex)


def _dual_numbers():
    return parse_problem_file(os.path.join(REPO, "problems", "dual_numbers.kz")).build_subject(0)


def _pascal_lines(field, n, cap, alphas_of):
    a = _poly(field, n, cap)
    kc = build_koszul(a, alphas_of(a))
    sw = pascal_split(kc)
    lines = ["report " + sw.report.to_json_str()] + _complex_lines(kc.complex)
    carrier = kc.monoid.carrier
    for name, maps in (("iota", sw.iota_copies), ("tau", sw.tau_copies),
                       ("sigma", sw.sigma_copies)):
        for p, copies in enumerate(maps):
            lines.append("map %s%d %s" % (name, p,
                                          _digest(identity_map(field, carrier, copies).blocks)))
    return lines


def _regular_sequence_lines(field):
    """(t1 t2, t1^2) over Q[t1, t2, t3] at cap 4: stage 1 fails at degree 1,
    after a cell that passes, with witness t2."""
    a = _poly(field, 3, 4)
    t1, t2, _ = _variables(a)
    cert = is_regular_sequence(a, [a.multiply(t1, t2), a.multiply(t1, t1)])
    return ["sequence " + json.dumps(cert.to_jsonable(field), sort_keys=True,
                                     separators=(",", ":")),
            "dims %r" % sorted(cert.final_dims.items())]


def _bimodule_lines(base, n, cap):
    res = koszul_bimodule_resolution(build_enveloping(base, n, cap))
    return ["report " + res.report.to_json_str()] + _complex_lines(res.complex)


def _enveloping_lines(base, n, cap):
    """The `build_enveloping` report, the merge Phi of A_u and A_v, and the collapse pi."""
    e = build_enveloping(base, n, cap)
    mu = certify_tensor_idempotent(base).mu_cells
    merge = merge_variables(rename_variables(e.a_n, default_var_names(n, "u")),
                            rename_variables(e.a_n, default_var_names(n, "v")), base,
                            {x: mu[(x, 0)] for x in base.cat.objects})
    return ["report " + e.report.to_json_str(), "map phi %s" % _digest(merge.phi),
            "map pi %s" % _digest(e.pi)]


def _hochschild_lines(field, n, cap, coeffs_of):
    e = build_enveloping(_base(field), n, cap)
    m = coeffs_of(e.a_n)
    lines = ["report " + hochschild_cohomology(e, m, p).to_json_str() for p in range(n + 2)]
    diffs = _cochain_differences(e, m)
    return lines + ["map phi%d %s" % (p, _digest(_cochain_phi(e, m, p, diffs).blocks))
                    for p in range(n)]


def _syzygy_lines(base, n, cap, module_of):
    e = build_enveloping(base, n, cap)
    res = build_syzygy_resolution(e, module_of(e.a_n))
    return ["report " + res.report.to_json_str()] + _complex_lines(res.complex)


def _tensor_over_identity_lines(field):
    """M (x)_I M and M (x)_I I for the C2 regular representation M over the Day unit I."""
    cat = c2_convolution_category(field)
    ident = identity_monoid(cat)
    m = module_over_identity(degree_zero_carrier(c2_regular_representation(cat), "reg"),
                             ident, name="reg")
    lines = []
    for label, n in (("MM", m), ("MI", regular_bimodule(ident))):
        coeq = tensor_over_monoid(m, n)
        lines.append("dims %s %r" % (label, sorted(coeq.dims().items())))
        lines.append("map projection%s %s" % (label, _digest(
            {cell: q.projection for cell, q in coeq.quots.items()})))
    return lines


def _tensor_over_poly_lines(base, n, cap):
    """A (x)_A A/(t1) over the polynomial monoid on base: dims and projections per cell."""
    a = polynomial_monoid(base, n, cap)
    coeq = tensor_over_monoid(regular_bimodule(a), _first_variable_quotient(a))
    return ["dims %r" % sorted(coeq.dims().items()),
            "map projection %s" % _digest({cell: q.projection for cell, q in coeq.quots.items()})]


def _square_last(a):
    *rest, last = _variables(a)
    return rest + [a.multiply(last, last)]


def _mixed_triple(a):
    """(t1^2, t2, t1 t2): degrees 2, 1, 2, and not a regular sequence."""
    t1, t2 = _variables(a)
    return [a.multiply(t1, t1), t2, a.multiply(t1, t2)]


def _repeat_first(a):
    variables = _variables(a)
    return variables + variables[:1]


def _rank_two_triple(a):
    """Three dense forms in general position, the third 1 * first - 2 * second."""
    rows = [[2, -3, 5], [-1, 4, 3], [4, -11, -1]]
    return [linear_form(a.field, _variables(a), row) for row in rows]


_DENSE_ROWS = [[2, -3, 5, 1], [-1, 4, 3, -2], [3, 1, -4, 5], [5, -2, 1, 3]]


def _dense_quadruple(a):
    """Four dense forms in general position over four variables: a regular tuple."""
    return [linear_form(a.field, _variables(a), row) for row in _DENSE_ROWS]


def _rank_three_quadruple(a):
    """The first three dense forms and 1 * first - 2 * second + third: not regular."""
    rows = _DENSE_ROWS[:3] + [[7, -10, -5, 10]]
    return [linear_form(a.field, _variables(a), row) for row in rows]


def _first_variable_quotient(a):
    return _cyclic_quotient(a, _variables(a)[:1])


def _dense_form_quotient(a):
    """A / (3 t1 - 7 t2): a cyclic module by a form with every coefficient nonzero."""
    return _cyclic_quotient(a, [linear_form(a.field, _variables(a), [3, -7])])


# name -> zero-argument callable returning the golden lines
LIB_CASES = {
    "check_resolution_q": lambda: _check_resolution_lines(QQ, 2, 4, _variables),
    "check_resolution_f101": lambda: _check_resolution_lines(F101, 2, 4, _repeat_first),
    "check_resolution_rank_two_q": lambda: _check_resolution_lines(QQ, 3, 3, _rank_two_triple),
    "check_resolution_dense_q": lambda: _check_resolution_lines(QQ, 4, 6, _dense_quadruple),
    "check_resolution_dense_f101": lambda: _check_resolution_lines(F101, 4, 6, _dense_quadruple),
    "koszul_homology_dense_q": lambda: _koszul_homology_lines(_poly(QQ, 4, 6), _dense_quadruple),
    "koszul_homology_dense_f101": lambda: _koszul_homology_lines(_poly(F101, 4, 6),
                                                                 _dense_quadruple),
    "koszul_homology_dual_numbers": lambda: _koszul_homology_lines(
        _dual_numbers(), lambda a: [element_from_name(a, "xbar")]),
    "regular_sequence_witness_q": lambda: _regular_sequence_lines(QQ),
    "regular_sequence_witness_f101": lambda: _regular_sequence_lines(F101),
    "pascal_split_q": lambda: _pascal_lines(QQ, 3, 4, _variables),
    "pascal_split_f101": lambda: _pascal_lines(F101, 2, 5, _square_last),
    "pascal_split_mixed_triple_f101": lambda: _pascal_lines(F101, 2, 5, _mixed_triple),
    "pascal_split_rank_two_q": lambda: _pascal_lines(QQ, 3, 3, _rank_two_triple),
    "pascal_split_dense_q": lambda: _pascal_lines(QQ, 4, 6, _dense_quadruple),
    "pascal_split_dense_f101": lambda: _pascal_lines(F101, 4, 6, _dense_quadruple),
    "pascal_split_rank_three_q": lambda: _pascal_lines(QQ, 4, 5, _rank_three_quadruple),
    "bimodule_resolution_q": lambda: _bimodule_lines(_base(QQ), 2, 3),
    "bimodule_resolution_f101": lambda: _bimodule_lines(_base(F101), 1, 4),
    "bimodule_resolution_c2_f101": lambda: _bimodule_lines(_c2_base(F101), 2, 3),
    "bimodule_resolution_c2_cap4_f101": lambda: _bimodule_lines(_c2_base(F101), 2, 4),
    "enveloping_scalar_f101": lambda: _enveloping_lines(_base(F101), 2, 4),
    "enveloping_c2_f101": lambda: _enveloping_lines(_c2_base(F101), 2, 4),
    "hochschild_regular_q": lambda: _hochschild_lines(QQ, 2, 3, regular_bimodule),
    "hochschild_twisted_q": lambda: _hochschild_lines(QQ, 2, 3, _twisted_bimodule),
    "hochschild_twisted_f101": lambda: _hochschild_lines(F101, 2, 3,
                                                         _twisted_bimodule),
    "syzygy_regular_q": lambda: _syzygy_lines(_base(QQ), 2, 3, regular_bimodule),
    "syzygy_cyclic_f101": lambda: _syzygy_lines(_base(F101), 2, 3,
                                                _first_variable_quotient),
    "syzygy_cyclic_c2_f101": lambda: _syzygy_lines(_c2_base(F101), 2, 3,
                                                   _first_variable_quotient),
    "syzygy_dense_form_c2_f101": lambda: _syzygy_lines(_c2_base(F101), 2, 4,
                                                       _dense_form_quotient),
    "tensor_over_identity_c2_f101": lambda: _tensor_over_identity_lines(F101),
    "tensor_over_poly_c2_f101": lambda: _tensor_over_poly_lines(_c2_base(F101), 2, 3),
}


def _cli_outputs(argv, tmp):
    """(exit code, stdout, report text) of one CLI run."""
    report_path = os.path.join(tmp, "r.json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--report", report_path])
    with open(report_path, encoding="utf-8") as fh:
        return code, out.getvalue(), fh.read()


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name,argv,code", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_report_bytes(name, argv, code, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    assert _cli_outputs(argv, str(tmp_path)) == \
        (code, _golden(name + ".stdout"), _golden(name + ".json"))


def test_optimized_interpreter_prints_the_same_reports(tmp_path):
    """Under `python -O`, which drops assert statements, `hh`, `syzygy` and
    `tensor` (its quotient modules take the bracketed descent) on the corpus
    print the same stdout and --report bytes as the goldens."""
    argv_of = {name: argv for name, argv, _ in CLI_CASES}
    script = "import sys\nfrom koszulcat.cli import main\n" \
        "sys.exit(main(sys.argv[1:]) if sys.flags.optimize else 3)"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), PYTHONDONTWRITEBYTECODE="1")
    for name in ("hh_trivial_q", "syzygy_trivial_q", "tensor_over_poly_xy"):
        report = tmp_path / (name + ".json")
        run = subprocess.run([sys.executable, "-O", "-c", script] + argv_of[name] +
                             ["--report", str(report)], cwd=REPO, env=env,
                             capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout, report.read_text(encoding="utf-8")) == \
            (0, _golden(name + ".stdout"), _golden(name + ".json"))


@pytest.mark.parametrize("name", sorted(LIB_CASES))
def test_library_report_bytes(name):
    assert "\n".join(LIB_CASES[name]()) + "\n" == _golden(name + ".txt")


def _record():
    def write(name, text):
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    os.makedirs(GOLDEN, exist_ok=True)
    os.chdir(REPO)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, code in CLI_CASES:
            got, out, report = _cli_outputs(argv, tmp)
            if got != code:
                raise SystemExit("%s exited %d, expected %d" % (name, got, code))
            write(name + ".stdout", out)
            write(name + ".json", report)
    for name, lines_of in sorted(LIB_CASES.items()):
        write(name + ".txt", "\n".join(lines_of()) + "\n")


if __name__ == "__main__":
    sys.exit(_record())
