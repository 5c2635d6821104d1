"""The `syzygy` verb pinned end to end: exit code, stdout, stderr and report.

Each case runs the CLI in process and compares all four outputs with one
recorded golden under tests/golden/, `<name>.pin`, a JSON object whose
`report` is null when the command writes no report.  The cases cover a
passing resolution with no other golden (poly_xy), the refusal report of a
base that is not tensor idempotent (exit 1), a noncommutative base, no
variables, a window that cannot hold them and an unknown module (exit 2).
The verb resolves over A_n alone: every case, and the two `syzygy` goldens
of test_golden_reports.py, give the same outputs with `build_enveloping`
and `merge_variables` made to raise wherever the package binds them.  One
more pin, `tensor_idem_zero_product`, holds the `tensor-idem` outputs on a
unit with no products, whose unit laws fail.

To record the pins again from the current code, run

    PYTHONPATH=src python tests/test_syzygy_verb.py
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

import koszulcat.hochschild
import koszulcat.poly
from koszulcat.cli import main
from koszulcat.errors import IsoFailureError, StructuralError
from koszulcat.field import Field
from koszulcat.gtensor import GradedTensor
from koszulcat.hochschild import (
    TensorIdempotentCertificate,
    certify_tensor_idempotent,
    check_base_merge,
    polynomial_over,
)
from koszulcat.monoid import identity_monoid
from koszulcat.poly import default_var_names, merge_variables, polynomial_monoid
from koszulcat.problemfile import parse_problem_file
from koszulcat.sample import c2_convolution_category
from test_golden_reports import CLI_CASES, _cli_outputs, _golden

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (name, argv after the verb)
PIN_CASES = [
    ("syzygy_poly_xy", ["problems/poly_xy.kz", "--module", "M"]),
    ("syzygy_dual_numbers_refused", ["problems/dual_numbers.kz", "-n", "1", "--module", "R"]),
    ("syzygy_s3_noncommutative", ["problems/s3_group_algebra.kz", "-n", "1", "--module", "R"]),
    ("syzygy_trivial_q_no_variables", ["problems/trivial_q.kz", "-n", "0", "--module", "Mt"]),
    ("syzygy_trivial_q_cap_zero", ["problems/trivial_q.kz", "-n", "1", "--module", "Mt",
                                   "--max-degree", "0"]),
    ("syzygy_trivial_q_unknown_module", ["problems/trivial_q.kz", "-n", "1", "--module", "Nope"]),
]


def _outputs(argv, tmp, verb="syzygy"):
    """{exit, stdout, stderr, report} of one in-process run of verb, `syzygy` by default."""
    report_path = os.path.join(tmp, "r.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb] + argv + ["--report", report_path])
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = fh.read()
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "report": report}


def _pin(name):
    with open(os.path.join(GOLDEN, name + ".pin"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,argv", PIN_CASES, ids=[c[0] for c in PIN_CASES])
def test_syzygy_verb_outputs(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    assert _outputs(argv, str(tmp_path)) == _pin(name)


@pytest.fixture
def no_enveloping(monkeypatch):
    """Every package binding of build_enveloping and merge_variables raises."""
    originals = (koszulcat.hochschild.build_enveloping, koszulcat.poly.merge_variables)

    def unreachable(*args, **kwargs):
        raise RuntimeError("the syzygy verb reached the enveloping monoid")

    for name, module in list(sys.modules.items()):
        if name == "koszulcat" or name.startswith("koszulcat."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(module, attr, unreachable)


@pytest.mark.parametrize("name,argv", PIN_CASES, ids=[c[0] for c in PIN_CASES])
def test_syzygy_verb_skips_the_enveloping_monoid(name, argv, tmp_path, monkeypatch, no_enveloping):
    monkeypatch.chdir(REPO)
    assert _outputs(argv, str(tmp_path)) == _pin(name)


SYZYGY_GOLDENS = [case for case in CLI_CASES if case[1][0] == "syzygy"]


@pytest.mark.parametrize("name,argv,code", SYZYGY_GOLDENS, ids=[c[0] for c in SYZYGY_GOLDENS])
def test_syzygy_goldens_skip_the_enveloping_monoid(name, argv, code, tmp_path, monkeypatch,
                                                   no_enveloping):
    monkeypatch.chdir(REPO)
    assert _cli_outputs(argv, str(tmp_path)) == \
        (code, _golden(name + ".stdout"), _golden(name + ".json"))


def test_the_patch_reaches_the_hh_verb(tmp_path, monkeypatch, no_enveloping):
    """The stub is live: `hh` still builds the enveloping monoid and hits it."""
    monkeypatch.chdir(REPO)
    with pytest.raises(RuntimeError, match="enveloping"):
        main(["hh", "problems/trivial_q.kz", "-n", "1", "-p", "0", "--max-degree", "2"])


ZERO_PRODUCT = """field Q
backend trivial

monoid A
  basis one
  unit 1*one
end
main A

module R self
"""


def _zero_product_problem(tmp_path):
    problem = tmp_path / "zero_product.kz"
    problem.write_text(ZERO_PRODUCT, encoding="utf-8")
    return str(problem)


def test_a_base_only_a_quotient_of_the_unit_is_refused_as_the_merge_refuses_it(
        tmp_path, monkeypatch, no_enveloping):
    """A unit with no products passes the quotient-of-I road but not the
    direct one, so its degree-0 mu, the merge witness, is singular, and
    `check_base_merge` refuses it with the merge's message.  Its unit laws
    fail, so the tensor-idempotence certificate now refuses it first: the
    verb writes the refusal report, naming the cell where the left unit law
    fails, and reaches neither A_n nor the merge check."""
    monkeypatch.chdir(REPO)
    problem = _zero_product_problem(tmp_path)
    refused = ('{"certificates":[{"detail":"refused: unit law fails: unit-left at (1, 0)",'
               '"name":"tensor-idempotent","passed":false}],"entries":[],"field":"Q",'
               '"task":{"monoid":"A","n":1,"op":"syzygy"},"window":{"cap":4}}\n')
    assert _outputs([problem, "-n", "1", "--module", "R"], str(tmp_path)) == \
        {"exit": 1, "report": refused, "stderr": "",
         "stdout": "task: monoid=A n=1 op=syzygy\nfield: Q\nwindow: cap=4\n\n"
                   "certificate tensor-idempotent:           FAIL  "
                   "(refused: unit law fails: unit-left at (1, 0))\n"}
    a = parse_problem_file(problem).build_subject(0)
    mu = GradedTensor(a.carrier, a.carrier).induced_map_cells(a.carrier, a.pairing_cell)
    quotient_only = TensorIdempotentCertificate(False, True, "quotient-of-I", "", mu)
    a_u = polynomial_monoid(a, 1, 2, var_names=("u",))
    a_v = polynomial_monoid(a, 1, 2, var_names=("v",))
    merge_refusal = _refusal(lambda: merge_variables(a_u, a_v, a, {"1": mu[("1", 0)]}))
    assert merge_refusal == (IsoFailureError, "witness at 1 is not invertible")
    assert _refusal(lambda: check_base_merge(a, quotient_only)) == merge_refusal


def test_tensor_idem_refuses_a_unit_with_no_products(tmp_path, monkeypatch):
    """The quotient-of-I road alone would pass this file; its unit laws fail."""
    monkeypatch.chdir(REPO)
    assert _outputs([_zero_product_problem(tmp_path)], str(tmp_path), verb="tensor-idem") == \
        _pin("tensor_idem_zero_product")


def _refusal(call):
    with pytest.raises((IsoFailureError, StructuralError)) as info:
        call()
    return type(info.value), str(info.value)


def test_check_base_merge_refuses_what_merge_variables_refuses():
    """On the C2 Day unit, a witness scaled at one object is invertible but
    not natural: the descent of `base_merge` refuses it on both routes."""
    f101 = Field(101)
    a = identity_monoid(c2_convolution_category(f101))
    cert = certify_tensor_idempotent(a)
    check_base_merge(a, cert)
    cert.mu_cells[("g", 0)] = cert.mu_cells[("g", 0)].scale(f101.from_int(2))
    polynomial_over(a, 1, 2, cert)
    a_u = polynomial_monoid(a, 1, 2, var_names=default_var_names(1, "u"))
    a_v = polynomial_monoid(a, 1, 2, var_names=default_var_names(1, "v"))
    witness = {x: cert.mu_cells[(x, 0)] for x in a.cat.objects}
    refused = _refusal(lambda: merge_variables(a_u, a_v, a, witness))
    assert refused[0] is StructuralError
    assert _refusal(lambda: check_base_merge(a, cert)) == refused


def _record():
    os.chdir(REPO)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in PIN_CASES:
            with open(os.path.join(GOLDEN, name + ".pin"), "w", encoding="utf-8") as fh:
                json.dump(_outputs(argv, tmp), fh, indent=1, sort_keys=True)
                fh.write("\n")
        with open(os.path.join(GOLDEN, "tensor_idem_zero_product.pin"), "w",
                  encoding="utf-8") as fh:
            problem = _zero_product_problem(pathlib.Path(tmp))
            json.dump(_outputs([problem], tmp, verb="tensor-idem"), fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(_record())
