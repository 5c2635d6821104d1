"""One list of what fails each certificate.

An ast scan collects every string literal passed as the name of
`add_certificate` in src/koszulcat, as tests/test_no_constant_certificates.py
does.  `COVERAGE` maps each name to exactly one of:

- `in_table(module)`: an entry of the `FAULTS` table of that test module, whose
  fault fails the certificate;
- `failed_in("tests/<file>.py::<test>")`: a test in which the certificate fails.

The test fails when a name has no entry, when an entry names a certificate
that no longer exists, or when it names a missing table entry or test.  The
faults for the resolution and Hochschild certificates that no other test
fails are at the end of this file.
"""

import ast
import dataclasses
import glob
import importlib
import json
import os

import pytest

import koszulcat.hochschild as hochschild
import koszulcat.koszul as koszul
from koszulcat.category import CategoryPresentation
from koszulcat.cli import main
from koszulcat.field import Field
from koszulcat.hochschild import (
    build_enveloping,
    hochschild_cohomology,
    koszul_bimodule_resolution,
)
from koszulcat.koszul import build_koszul, check_resolution, koszul_homology_report
from koszulcat.monoid import regular_bimodule, scalar_monoid
from koszulcat.poly import variable_element
from test_koszul import poly, variables

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, "..", "src", "koszulcat")


def in_table(module):
    return ("fault", module)


def failed_in(node_id):
    return ("test", node_id)


HERE = "tests/test_certificate_faults.py::"
DUAL_NUMBERS = failed_in("tests/test_hochschild.py::test_dual_numbers_not_idempotent")

COVERAGE = {
    # koszulcat.koszul
    "d-compose-d-zero": failed_in(HERE + "test_faulted_operator_fails_d_compose_d_zero"),
    "regular-sequence": failed_in("tests/test_koszul.py::"
                                  "test_check_resolution_nonregular_instance"),
    "higher-homology-vanishes": failed_in(HERE + "test_complex_of_other_elements_fails_homology"),
    "h0-matches-quotient": failed_in(HERE + "test_complex_of_other_elements_fails_homology"),
    "tau-iota-zero": in_table("test_pascal_faults"),
    "tau-sigma-identity": in_table("test_pascal_faults"),
    "ladder-left-square": in_table("test_pascal_faults"),
    "ladder-right-square": in_table("test_pascal_faults"),
    "restriction-formula": in_table("test_pascal_faults"),
    "connecting-map-formula": in_table("test_pascal_faults"),
    # koszulcat.complexes
    "contracting-homotopy": failed_in("tests/test_homotopy_oracle.py::"
                                      "test_zeroed_column_makes_the_chain_fail"),
    # koszulcat.hochschild
    "merge-unit-preserved": failed_in("tests/test_merge_placement.py::"
                                      "test_scaled_witness_fails_unit_preservation"),
    "merge-multiplicative": failed_in("tests/test_enveloping_faults.py::"
                                      "test_morphism_certificates_are_read_from_the_shared_law"),
    "collapse-is-monoid-morphism": in_table("test_enveloping_faults"),
    "collapse-preserves-unit": in_table("test_enveloping_faults"),
    "collapse-matches-variables": in_table("test_enveloping_faults"),
    "ideal-inside-kernel": in_table("test_enveloping_faults"),
    "collapse-surjective": in_table("test_enveloping_faults"),
    "kernel-dimension-match": in_table("test_enveloping_faults"),
    "collapse-injective-on-first-family": in_table("test_enveloping_faults"),
    "differences-regular-sequence": failed_in(HERE + "test_repeated_difference_fails_regularity"),
    "change-of-variables-iso": in_table("test_enveloping_faults"),
    "cochain-differential-zero": failed_in(HERE + "test_faulted_right_action_fails_zero_cochains"),
    # koszulcat.cli
    "tensor-idempotent": failed_in("tests/test_cli.py::test_tensor_idem_verb"),
    "direct-mode": DUAL_NUMBERS,
    "quotient-of-unit-mode": DUAL_NUMBERS,
}


def certificate_names(source: str):
    """The string literals passed as the name of an `add_certificate` call."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_certificate" and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            names.add(node.args[0].value)
    return names


def scanned_names():
    names = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            names |= certificate_names(fh.read())
    return names


def functions_in(path):
    with open(os.path.join(TESTS, "..", path), encoding="utf-8") as fh:
        return {node.name for node in ast.parse(fh.read()).body
                if isinstance(node, ast.FunctionDef)}


def test_every_certificate_name_has_one_entry():
    names = scanned_names()
    assert sorted(names - set(COVERAGE)) == [], "certificates with no entry"
    assert sorted(set(COVERAGE) - names) == [], "entries for no certificate"


@pytest.mark.parametrize("name", sorted(COVERAGE))
def test_entry_names_what_fails_it(name):
    kind, target = COVERAGE[name]
    if kind == "fault":
        table = importlib.import_module(target).FAULTS
        assert name in [entry[0] for entry in table]
    else:
        assert kind == "test"
        path, func = target.split("::")
        assert func in functions_in(path), target


def test_detector_reads_only_literal_names():
    src = ("r.add_certificate('a', ok)\n"
           "r.add_certificate(name, ok)\n"
           "r.add_certificate(passed=ok, name='b')\n"
           "r.add_certificate(\"c\", False, detail='refused')\n")
    assert certificate_names(src) == {"a", "c"}


# -- faults with no other home ---------------------------------------------------

F101 = Field(101)


def doubled_at(op, cell):
    """A copy of a multiplication operator whose matrix at `cell` is doubled."""
    cells = dict(op.cells)
    cells[cell] = cells[cell].scale(op.cells[cell].field.from_int(2))
    return dataclasses.replace(op, cells=cells)


def failed(report):
    return {c.name for c in report.certificates if not c.passed}


def double_first_operator(monkeypatch):
    """alpha_1 acts as twice itself on degree 0: `build_koszul` asks for the
    operators in the order of its elements."""
    real = koszul.mult_operator
    built = []

    def faulty(a, alpha, m):
        op = real(a, alpha, m)
        built.append(op)
        return doubled_at(op, (a.cat.unit, 0)) if len(built) == 1 else op

    monkeypatch.setattr(koszul, "mult_operator", faulty)


def test_faulted_operator_fails_d_compose_d_zero(monkeypatch):
    """alpha_1 acts as 2 t1 on degree 0, so d_1 d_2 = 2 t1 t2 - t1 t2 there.
    `check_resolution` names the failing cells, as the homology report does,
    and carries no homology: the complex has none."""
    a = poly(2, 3)
    double_first_operator(monkeypatch)
    cert = check_resolution(a, variables(a))
    assert failed(cert.report) == {"d-compose-d-zero"}
    assert cert.report.entries == []
    double_first_operator(monkeypatch)  # a fresh fault for the second complex
    homology = koszul_homology_report(build_koszul(a, variables(a)))
    assert failed(homology) == {"d-compose-d-zero"}
    assert cert.report.certificates[0].witness == homology.certificates[0].witness
    assert cert.report.certificates[0].witness == {"cells": ["(2, [('1', 0)])"]}


def test_faulted_operator_exits_1_from_the_cli(monkeypatch, capsys):
    """The same fault through `koszul --check-resolution`: a failed certificate, not an input error."""
    monkeypatch.chdir(os.path.join(TESTS, ".."))
    double_first_operator(monkeypatch)
    assert main(["koszul", "problems/poly_xy.kz", "--alpha", "x,y", "--max-degree", "4",
                 "--check-resolution"]) == 1
    assert "d-compose-d-zero" in capsys.readouterr().out


def test_failed_dd_stops_the_homology_report(monkeypatch):
    """With d o d != 0 the homology report names the failing cells and takes no
    homology; the homology of a map that is not a differential would raise
    "boundaries escape cycles at p=1"."""
    a = poly(2, 3)
    double_first_operator(monkeypatch)
    report = koszul_homology_report(build_koszul(a, variables(a)))
    assert failed(report) == {"d-compose-d-zero"}
    assert report.certificates[0].witness == {"cells": ["(2, [('1', 0)])"]}
    assert report.entries == []


def test_failed_dd_exits_1_from_a_plain_koszul_command(monkeypatch, capsys, tmp_path):
    """`koszul` on a problem that does not ask for check-resolution goes through
    the homology report: a failed d o d exits 1 with its witness, not 2."""
    with open(os.path.join(TESTS, "..", "problems", "poly_xy.kz"), encoding="utf-8") as fh:
        text = fh.read()
    assert " check-resolution" in text
    path = tmp_path / "poly_xy_homology.kz"
    path.write_text(text.replace(" check-resolution", ""), encoding="utf-8")
    report_path = tmp_path / "r.json"
    double_first_operator(monkeypatch)
    assert main(["koszul", str(path), "--alpha", "x,y", "--max-degree", "4",
                 "--report", str(report_path)]) == 1
    assert "d-compose-d-zero" in capsys.readouterr().out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["task"]["op"] == "koszul-homology"
    assert report["entries"] == []
    [dd] = [c for c in report["certificates"] if c["name"] == "d-compose-d-zero"]
    assert not dd["passed"] and dd["witness"]["cells"]


def test_complex_of_other_elements_fails_homology(monkeypatch):
    """The complex is built from (t1, t1) while (t1, t2) is certified regular:
    H_1 is nonzero, and H_0 is k[t2], not the quotient k."""
    a = poly(2, 3)
    real = koszul.mult_operator
    alphas = variables(a)
    monkeypatch.setattr(koszul, "mult_operator", lambda a, alpha, m: real(a, alphas[0], m))
    cert = check_resolution(a, alphas)
    assert cert.regular
    assert failed(cert.report) == {"higher-homology-vanishes", "h0-matches-quotient"}


def test_repeated_difference_fails_regularity():
    """The differences (u1 - v1, u1 - v1) in place of (u1 - v1, u2 - v2)."""
    e = build_enveloping(scalar_monoid(CategoryPresentation.trivial(F101)), 2, 3)
    e.alphas = e.alphas[:1] * 2
    assert "differences-regular-sequence" in failed(koszul_bimodule_resolution(e).report)


def test_faulted_right_action_fails_zero_cochains(monkeypatch):
    """t1 acts on the right of A_n as 2 t1 on degree 0, so Phi_0 is not zero."""
    e = build_enveloping(scalar_monoid(CategoryPresentation.trivial(F101)), 1, 3)
    real = hochschild.mult_operator
    t1 = variable_element(e.a_n, 1)

    def faulty(a, elt, m, side="left"):
        op = real(a, elt, m, side=side)
        if side == "right" and elt.coords == t1.coords:
            op = doubled_at(op, (a.cat.unit, 0))
        return op

    monkeypatch.setattr(hochschild, "mult_operator", faulty)
    report = hochschild_cohomology(e, regular_bimodule(e.a_n), 0)
    assert failed(report) == {"cochain-differential-zero"}
