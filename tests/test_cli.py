"""CLI: exit codes, shipped corpus, report round-trips, witness replay."""

import os

import pytest

from koszulcat.cli import main
from koszulcat.errors import IsoFailureError, PreconditionError
from koszulcat.matrix import Matrix
from koszulcat.monoid import Element
from koszulcat.parallel import MAX_THREADS, resolve_threads
from koszulcat.problemfile import parse_problem_file, parse_problem_text
from koszulcat.report import GradedReport

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def pfile(name):
    return os.path.join(PROBLEMS, name)


BROKEN = """
field Q
backend trivial
monoid A
  basis z1 z2 z3
  unit 1*z1
  mul z1 z1 = 1*z1
  mul z1 z2 = 1*z2
  mul z1 z3 = 1*z3
  mul z2 z1 = 1*z2
  mul z3 z1 = 1*z3
  mul z2 z2 = 3*z1 + 3*z3
  mul z2 z3 = 3*z2
  mul z3 z2 = 2*z2
  mul z3 z3 = 2*z1 + 1*z3
end
main A
"""


def test_validate_shipped_corpus():
    for name in ("trivial_q.kz", "dual_numbers.kz", "s3_group_algebra.kz",
                 "poly_xy.kz", "c2conv.kz"):
        assert main(["validate", pfile(name), "--max-degree", "2"]) == 0


def test_validate_broken_monoid_exits_one(tmp_path):
    path = tmp_path / "broken.kz"
    path.write_text(BROKEN)
    assert main(["validate", str(path)]) == 1


def test_parse_error_exits_two(tmp_path):
    path = tmp_path / "bad.kz"
    path.write_text("field Q\nbackend trivial\nfrobnicate\n")
    assert main(["validate", str(path)]) == 2


def test_missing_file_exits_two():
    assert main(["validate", "no_such_file.kz"]) == 2


def test_field_flag_mismatch_exits_two():
    assert main(["validate", pfile("trivial_q.kz"), "--field", "F 5"]) == 2


def test_koszul_regular_instance_passes(tmp_path):
    report_path = tmp_path / "r.json"
    code = main(["koszul", pfile("poly_xy.kz"), "--max-degree", "4",
                 "--report", str(report_path)])
    assert code == 0
    rep = GradedReport.from_json(report_path.read_text())
    assert rep.all_passed


def test_koszul_nonregular_exits_one():
    assert main(["koszul", pfile("dual_numbers.kz")]) == 1


def test_koszul_noncentral_alpha_exits_one():
    assert main(["koszul", pfile("s3_group_algebra.kz"), "--alpha", "t12"]) == 1


@pytest.mark.parametrize("verb", ["koszul", "regular-check"])
def test_alpha_off_the_unit_object_exits_two(verb, capsys):
    assert main([verb, pfile("c2conv.kz"), "--alpha", "u_eg"]) == 2
    assert "unit object" in capsys.readouterr().err


def test_regular_check_verbs():
    assert main(["regular-check", pfile("poly_xy.kz"), "--alpha", "x,y",
                 "--max-degree", "3"]) == 0
    assert main(["regular-check", pfile("dual_numbers.kz"), "--alpha", "xbar"]) == 1


def test_a_difference_of_three_names_subtracts_left_to_right(capsys):
    """x-y-x is -y, and (-y, y) is not a regular sequence."""
    assert main(["regular-check", pfile("poly_xy.kz"), "--alpha", "x-y-x,y"]) == 1
    assert "certificate regular-sequence:            FAIL" in capsys.readouterr().out


def test_commutant_verb():
    assert main(["commutant", pfile("s3_group_algebra.kz")]) == 0


def test_tensor_idem_verb():
    assert main(["tensor-idem", pfile("trivial_q.kz")]) == 0
    assert main(["tensor-idem", pfile("c2conv.kz")]) == 0
    assert main(["tensor-idem", pfile("dual_numbers.kz")]) == 1


def test_hh_verb(tmp_path):
    report_path = tmp_path / "hh.json"
    code = main(["hh", pfile("trivial_q.kz"), "-n", "2", "-p", "1",
                 "--max-degree", "3", "--report", str(report_path)])
    assert code == 0
    rep = GradedReport.from_json(report_path.read_text())
    dims = {e.degree: e.dim for e in rep.entries}
    assert dims[0] == 2 and dims[1] == 4


def test_hh_refuses_nonidempotent():
    assert main(["hh", pfile("dual_numbers.kz"), "-n", "1", "-p", "0",
                 "--max-degree", "2"]) == 1


@pytest.mark.parametrize("verb, flags", [
    ("hh", ["-p", "0"]),
    ("syzygy", ["--module", "M"]),
])
def test_refusal_of_a_non_idempotent_subject(tmp_path, verb, flags):
    path = tmp_path / "refused.json"
    assert main([verb, pfile("dual_numbers.kz"), "-n", "1", "--report", str(path)] + flags) == 1
    rep = GradedReport.from_json(path.read_text())
    assert rep.task["op"] == verb
    assert [(c.name, c.passed) for c in rep.certificates] == [("tensor-idempotent", False)]
    assert rep.certificates[0].detail.startswith("refused: ")
    assert rep.entries == []


def test_hh_window_zero_exits_two():
    assert main(["hh", pfile("trivial_q.kz"), "-n", "1", "-p", "0",
                 "--max-degree", "0"]) == 2


def test_hh_zero_variables_reports_the_precondition(capsys):
    assert main(["hh", pfile("trivial_q.kz"), "-n", "0", "-p", "0"]) == 2
    assert "need at least one variable" in capsys.readouterr().err


def test_syzygy_verb():
    assert main(["syzygy", pfile("trivial_q.kz"), "-n", "1", "--module", "Mt",
                 "--max-degree", "3"]) == 0
    assert main(["syzygy", pfile("poly_xy.kz"), "--module", "M",
                 "--max-degree", "3"]) == 0


def test_tensor_over_verb():
    assert main(["tensor-over", pfile("dual_numbers.kz"), "--module", "R,M"]) == 0


def test_report_roundtrip_and_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["koszul", pfile("poly_xy.kz"), "--max-degree", "4"]
    assert main(argv + ["--report", str(p1)]) == 0
    assert main(argv + ["--report", str(p2), "--threads", "2"]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    rep = GradedReport.from_json(p1.read_text())
    assert rep.to_json_str() + "\n" == p1.read_text()


def test_witness_replay(tmp_path):
    # the reported regularity witness must be nonzero and annihilated
    report_path = tmp_path / "w.json"
    main(["regular-check", pfile("dual_numbers.kz"), "--alpha", "xbar",
          "--report", str(report_path)])
    rep = GradedReport.from_json(report_path.read_text())
    cert = next(c for c in rep.certificates if c.name == "regular-sequence")
    wit = cert.witness["stages"][0]["witness"]
    problem = parse_problem_file(pfile("dual_numbers.kz"))
    subject = problem.build_subject(0)
    coords = tuple(subject.field.parse(v) for v in wit["coords"])
    elt = Element(wit["obj"], wit["degree"], coords)
    assert not elt.is_zero()
    alpha = subject.basis_element("xbar")
    product = subject.multiply(alpha, elt)
    assert product.is_zero()


def test_env_var_thread_fallback(monkeypatch, tmp_path):
    monkeypatch.setenv("KOSZULCAT_THREADS", "2")
    p = tmp_path / "env.json"
    assert main(["koszul", pfile("poly_xy.kz"), "--max-degree", "3",
                 "--report", str(p)]) == 0


def test_parse_problem_text_scalars():
    pf = parse_problem_text("""
field F 5
backend trivial
monoid A
  basis one
  unit 1*one
  mul one one = 1*one
end
main A
""")
    assert pf.field.char == 5
    subject = pf.build_subject(0)
    assert subject.unit == (1,)


def test_thread_count_is_bounded(monkeypatch):
    # the bound is checked before any cell is mapped, and the map is serial,
    # so no thread is ever started here
    assert resolve_threads(MAX_THREADS) == MAX_THREADS
    with pytest.raises(PreconditionError, match="at most"):
        resolve_threads(MAX_THREADS + 1)
    monkeypatch.setenv("KOSZULCAT_THREADS", "100000")
    with pytest.raises(PreconditionError):
        resolve_threads()
    monkeypatch.delenv("KOSZULCAT_THREADS")
    assert main(["validate", pfile("trivial_q.kz"), "--threads", "100000"]) == 2


@pytest.mark.parametrize("line", ["compose u_gg u_eg", "unit", "rep reg dims e",
                                  "identity e", "module M", "task", "main"])
def test_malformed_line_exits_two_with_its_number(tmp_path, capsys, line):
    path = tmp_path / "bad.kz"
    path.write_text("field Q\nbackend finite\nobjects e g\n%s\n" % line)
    assert main(["validate", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err


UNDECLARED = """field Q
backend trivial
monoid A
  basis one
  unit %s
  mul %s
end
main A
"""


@pytest.mark.parametrize("unit, mul, line", [
    ("1*one", "one one = 1*nope", 6),
    ("1*nope", "one one = 1*one", 5),
    ("1*one", "nope one = 1*one", 6),
], ids=["mul-right-side", "unit", "mul-left-operand"])
def test_undeclared_basis_name_exits_two(tmp_path, capsys, unit, mul, line):
    path = tmp_path / "undeclared.kz"
    path.write_text(UNDECLARED % (unit, mul))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'nope'" in err
    assert "line %d" % line in err


C2_MONOID = """monoid J
  basis e : i_e
  basis g : i_g
  unit 1*i_e
  mul i_e i_e = 1*i_e
  mul i_e i_g = 1*i_g
  mul i_g i_e = 1*i_g
  mul i_g i_g = 1*i_e
  act u_ee i_g = 1*i_g
end
main J"""


@pytest.mark.parametrize("old, new, message", [
    ("monoid I identity\nmain I", C2_MONOID, "act u_ee applied to i_g at the wrong object"),
    ("act reg u_eg = 1 1 ; 0 1", "act reg u_eg = 1 1 1 ; 0 1 1",
     "action u_eg has shape 2x3, expected 2x2"),
    ("act reg u_eg = 1 1 ; 0 1", "act reg u_eg = 1 1 ; 0", "ragged rows in action u_eg"),
    ("act reg u_eg = 1 1 ; 0 1", "act reg u_xx = 1 1 ; 0 1",
     "no hom basis element named 'u_xx'"),
    ("monoid I identity\nmain I", C2_MONOID.replace("act u_ee", "act u_xx"),
     "no hom basis element named 'u_xx'"),
], ids=["monoid-act-wrong-object", "rep-act-wrong-shape", "rep-act-ragged",
        "rep-act-unknown-arrow", "monoid-act-unknown-arrow"])
def test_bad_act_line_exits_two_with_its_number(tmp_path, capsys, old, new, message):
    with open(pfile("c2conv.kz"), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    text = text.replace(old, new)
    act = next(ln for ln in new.splitlines() if ln.strip().startswith("act"))
    line = text.splitlines().index(act) + 1
    path = tmp_path / "bad_act.kz"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line %d: %s" % (line, message) in err
    assert "Traceback" not in err


OBJECTS_AT = "(objects at line 7)"


# (old, new, the line the error names, message); new "" deletes the old line
@pytest.mark.parametrize("old, new, named, message", [
    ("hom e g = u_eg", "hom e q = u_eg", None, "undeclared object 'q' " + OBJECTS_AT),
    ("unit e", "unit q", None, "undeclared object 'q' " + OBJECTS_AT),
    ("diamond g g = e", "diamond g g = q", None, "undeclared object 'q' " + OBJECTS_AT),
    ("identity g = 1*u_gg", "identity q = 1*u_gg", None,
     "undeclared object 'q' " + OBJECTS_AT),
    ("symmetry g g = 1*u_ee", "symmetry g q = 1*u_ee", None,
     "undeclared object 'q' " + OBJECTS_AT),
    ("rep reg dims e=2 g=2", "rep reg dims e=2 q=2", None,
     "undeclared object 'q' " + OBJECTS_AT),
    ("objects e g", "objects e g e", None, "object 'e' listed twice"),
    ("main I", "main I\nobjects e", "objects e", "objects already declared at line 7"),
    ("hom g g = u_gg", "hom g g = u_gg u_ee", None, "duplicate hom basis name 'u_ee'"),
    ("identity g = 1*u_gg", "", "objects e g",
     "no 'identity g' line for the objects declared here"),
    ("diamond g e = g", "", "objects e g", "no 'diamond g e' line for the objects declared here"),
    ("symmetry g e = 1*u_gg", "", "objects e g",
     "no 'symmetry g e' line for the objects declared here"),
    ("rep reg dims e=2 g=2", "rep reg dims e=2", None,
     "rep reg gives no dimension for object 'g'"),
    ("rep reg dims e=2 g=2", "rep reg dims e=2 g=2 e=2", None,
     "rep reg gives object 'e' twice"),
    ("identity g = 1*u_gg", "identity g = 1*u_ee", None,
     "u_ee lies in hom(e, e), expected hom(g, g)"),
    ("compose u_eg u_ge = 1*u_gg", "compose u_eg u_ge = 1*u_ee", None,
     "u_ee lies in hom(e, e), expected hom(g, g)"),
    ("compose u_eg u_ge = 1*u_gg", "compose u_eg u_eg = 1*u_gg", None,
     "cannot compose u_eg after u_eg: u_eg ends at g, u_eg starts at e"),
    ("dmor u_eg u_ge = 1*u_gg", "dmor u_eg u_ge = 1*u_ee", None,
     "u_ee lies in hom(e, e), expected hom(g, g)"),
    ("symmetry e g = 1*u_gg", "symmetry e g = 1*u_ee", None,
     "u_ee lies in hom(e, e), expected hom(g, g)"),
    ("compose u_eg u_ge = 1*u_gg", "compose u_eg u_xx = 1*u_gg", None,
     "no hom basis element named 'u_xx'"),
], ids=["hom-undeclared-object", "unit-undeclared-object", "diamond-undeclared-object",
        "identity-undeclared-object", "symmetry-undeclared-object",
        "rep-dims-undeclared-object", "object-listed-twice", "second-objects-line",
        "duplicate-hom-name", "missing-identity", "missing-diamond",
        "missing-symmetry", "rep-dims-missing-object", "rep-dims-object-twice",
        "identity-wrong-hom", "compose-wrong-hom", "compose-not-composable",
        "dmor-wrong-hom", "symmetry-wrong-hom", "compose-unknown-arrow"])
def test_bad_category_line_exits_two_with_its_number(tmp_path, capsys, old, new, named,
                                                     message):
    with open(pfile("c2conv.kz"), encoding="utf-8") as fh:
        text = fh.read()
    assert "\n%s\n" % old in text
    text = text.replace("\n%s\n" % old, "\n%s\n" % new if new else "\n")
    line = text.splitlines().index(named or new) + 1
    path = tmp_path / "bad_category.kz"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line %d: %s" % (line, message) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["tensor-idem"], ["hh", "-n", "1", "-p", "1", "--max-degree", "2"],
    ["syzygy", "-n", "1", "--module", "R", "--max-degree", "2"], ["commutant"],
    ["tensor-over", "--module", "R,R"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("deleted, instance", [
    ("dmor u_ge u_ge = 1*u_ee", "(u_ge o u_eg) <> (u_ge o u_eg)"),
    ("dmor u_gg u_gg = 1*u_ee", "(u_gg o u_eg) <> (u_gg o u_eg)"),
], ids=["u_ge-u_ge", "u_gg-u_gg"])
def test_unlawful_category_exits_two_before_any_verb(tmp_path, capsys, argv, deleted,
                                                      instance):
    # validate reports the violation and exits 1; every other verb refuses
    with open(pfile("c2conv.kz"), encoding="utf-8") as fh:
        text = fh.read()
    assert "\n%s\n" % deleted in text
    path = tmp_path / "c2broken.kz"
    path.write_text(text.replace("\n%s\n" % deleted, "\n"))
    report = tmp_path / "r.json"
    assert main([argv[0], str(path)] + argv[1:] + ["--report", str(report)]) == 2
    out, err = capsys.readouterr()
    assert err == "error: category c2broken.kz: diamond-functoriality at %s\n" % instance
    assert out == "" and not report.exists()
    assert main(["validate", str(path)]) == 1
    assert "violated: diamond-functoriality at %s" % instance in capsys.readouterr().out


def test_trivial_backend_declares_the_one_object(tmp_path, capsys):
    with open(pfile("trivial_q.kz"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "rep.kz"
    path.write_text(text + "rep F dims 1=2\nact F id = 1 0 ; 0 1\n")
    assert main(["validate", str(path)]) == 0
    path.write_text(text + "rep F dims e=2\n")
    assert main(["validate", str(path)]) == 2
    line = len(text.splitlines()) + 1
    assert "line %d: undeclared object 'e' (objects at line 3)" % line \
        in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["validate", "koszul", "hh", "syzygy"])
def test_main_naming_undeclared_monoid_exits_two(tmp_path, capsys, verb):
    with open(pfile("trivial_q.kz"), encoding="utf-8") as fh:
        text = fh.read()
    assert "\nmain A\n" in text
    path = tmp_path / "main_b.kz"
    path.write_text(text.replace("\nmain A\n", "\nmain B\n"))
    report = tmp_path / "out.json"
    assert main([verb, str(path), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert "line 10" in err and "'B'" in err
    assert "Traceback" not in err
    assert not report.exists()


def test_non_integer_thread_variable_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("KOSZULCAT_THREADS", "abc")
    with pytest.raises(PreconditionError, match="KOSZULCAT_THREADS"):
        resolve_threads()
    assert main(["validate", pfile("trivial_q.kz")]) == 2
    err = capsys.readouterr().err
    assert "'abc'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("task, key", [
    ("hh p=abc", "p"),
    ("hh max-degree=x", "max-degree"),
    ("hh p", "p"),
    ("hh max-degree", "max-degree"),
    ("hh p=", "p"),
    ("koszul alpha", "alpha"),
    ("koszul check-resolution=no", "check-resolution"),
    ("hh n=1 p=1 maxdegree=2", "maxdegree"),
], ids=["p-not-integer", "max-degree-not-integer", "bare-p", "bare-max-degree",
        "empty-p", "bare-alpha", "flag-with-value", "unknown-key"])
def test_bad_task_value_exits_two(tmp_path, capsys, task, key):
    with open(pfile("trivial_q.kz"), encoding="utf-8") as fh:
        text = fh.read()
    assert "\ntask tensor-idem\n" in text
    path = tmp_path / "task.kz"
    path.write_text(text.replace("\ntask tensor-idem\n", "\ntask %s\n" % task))
    report = tmp_path / "out.json"
    assert main([task.split()[0], str(path), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert "line 16" in err and repr(key) in err and repr("task " + task) in err
    assert "Traceback" not in err
    assert not report.exists()


def test_shipped_problem_files_parse():
    names = sorted(n for n in os.listdir(PROBLEMS) if n.endswith(".kz"))
    assert names
    for name in names:
        assert parse_problem_file(pfile(name)).task["op"]


def test_failed_merge_isomorphism_exits_one(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise IsoFailureError("Phi fails to be invertible at (1, 0)")

    monkeypatch.setattr("koszulcat.hochschild.merge_variables", fail)
    assert main(["hh", pfile("trivial_q.kz"), "-n", "1", "-p", "0"]) == 1
    assert "Phi fails to be invertible" in capsys.readouterr().err


def test_singular_unit_comparison_exits_one(monkeypatch, capsys):
    monkeypatch.setattr("koszulcat.tensor.rank", lambda m: 0)
    assert main(["tensor-over", pfile("dual_numbers.kz"), "--module", "R,M"]) == 1
    assert "unit comparison map not invertible" in capsys.readouterr().err


def test_unit_law_relation_failure_exits_one(monkeypatch, capsys):
    # every vector a relation: the action map of A (x)_A M -> M cannot kill them all
    monkeypatch.setattr("koszulcat.tensor._delta_relations",
                        lambda a, m, n, gt, x, d: Matrix.identity(a.field, gt.dim(x, d)))
    assert main(["tensor-over", pfile("dual_numbers.kz"), "--module", "R,M"]) == 1
    assert "action map does not kill the relations" in capsys.readouterr().err


def test_task_line_values_reach_the_verbs(tmp_path):
    with open(pfile("trivial_q.kz"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "task.kz"
    path.write_text(text.replace("\ntask tensor-idem\n", "\ntask hh n=1 p=1 max-degree=3\n"))
    assert parse_problem_file(str(path)).task == {"op": "hh", "n": 1, "p": 1, "max-degree": 3}
    report = tmp_path / "out.json"
    assert main(["hh", str(path), "--report", str(report)]) == 0
    assert '"p":1' in report.read_text() and '"cap":3' in report.read_text()
