"""Problem-file grammar: scalars, blocks, finite-backend tables, errors."""

import glob
import os

import pytest

from koszulcat.errors import ParseError, StructuralError
from koszulcat.field import QQ
from koszulcat.monoid import identity_monoid, validate_monoid
from koszulcat.problemfile import parse_problem_text

C2_HEADER = """
field Q
backend finite
objects e g
unit e
diamond e e = e
diamond e g = g
diamond g e = g
diamond g g = e
hom e e = u_ee
hom e g = u_eg
hom g e = u_ge
hom g g = u_gg
identity e = 1*u_ee
identity g = 1*u_gg
compose u_ee u_ee = 1*u_ee
compose u_eg u_ee = 1*u_eg
compose u_ge u_gg = 1*u_ge
compose u_gg u_gg = 1*u_gg
compose u_ee u_ge = 1*u_ge
compose u_eg u_ge = 1*u_gg
compose u_ge u_eg = 1*u_ee
compose u_gg u_eg = 1*u_eg
dmor u_ee u_ee = 1*u_ee
dmor u_ee u_eg = 1*u_eg
dmor u_ee u_ge = 1*u_ge
dmor u_ee u_gg = 1*u_gg
dmor u_eg u_ee = 1*u_eg
dmor u_eg u_eg = 1*u_ee
dmor u_eg u_ge = 1*u_gg
dmor u_eg u_gg = 1*u_ge
dmor u_ge u_ee = 1*u_ge
dmor u_ge u_eg = 1*u_gg
dmor u_ge u_ge = 1*u_ee
dmor u_ge u_gg = 1*u_eg
dmor u_gg u_ee = 1*u_gg
dmor u_gg u_eg = 1*u_ge
dmor u_gg u_ge = 1*u_eg
dmor u_gg u_gg = 1*u_ee
symmetry e e = 1*u_ee
symmetry e g = 1*u_gg
symmetry g e = 1*u_gg
symmetry g g = 1*u_ee
"""

FINITE_TABLE_MONOID = C2_HEADER + """
monoid J
  basis e : i_e
  basis g : i_g
  unit 1*i_e
  mul i_e i_e = 1*i_e
  mul i_e i_g = 1*i_g
  mul i_g i_e = 1*i_g
  mul i_g i_g = 1*i_e
  act u_ee i_e = 1*i_e
  act u_gg i_g = 1*i_g
  act u_eg i_e = 1*i_g
  act u_ge i_g = 1*i_e
end
main J
"""


def test_finite_backend_table_monoid_matches_identity():
    pf = parse_problem_text(FINITE_TABLE_MONOID)
    j = pf.build_subject(0)
    assert validate_monoid(j).ok
    ident = identity_monoid(pf.category)
    assert j.carrier.dims == ident.carrier.dims
    assert j.pairing == ident.pairing
    assert j.unit == ident.unit


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_problem_text("field Q\nbackend trivial\nnonsense here\n")
    assert "line 3" in str(err.value)


def test_unclosed_monoid_block():
    with pytest.raises(ParseError):
        parse_problem_text("field Q\nbackend trivial\nmonoid A\n  basis one\n")


def test_bad_scalar_reported():
    with pytest.raises(ParseError):
        parse_problem_text("""
field Q
backend trivial
monoid A
  basis one
  unit oops*one
  mul one one = 1*one
end
""")


def test_duplicate_hom_name_rejected():
    bad = C2_HEADER.replace("hom g g = u_gg", "hom g g = u_ee")
    with pytest.raises(ParseError):
        parse_problem_text(bad + "\nmonoid I identity\nmain I\n")


def test_unknown_module_name():
    pf = parse_problem_text("""
field Q
backend trivial
monoid A
  basis one
  unit 1*one
  mul one one = 1*one
end
main A
""")
    subject = pf.build_subject(0)
    with pytest.raises(StructuralError):
        pf.build_module("nope", subject)


def test_prime_field_scalars_roundtrip():
    pf = parse_problem_text("""
field F 7
backend trivial
monoid A
  basis one half
  unit 1*one
  mul one one = 1*one
  mul one half = 1*half
  mul half one = 1*half
  mul half half = 1/4*half
end
main A
""")
    subject = pf.build_subject(0)
    assert validate_monoid(subject).ok
    # 1/4 over F_7 is 2
    assert subject.pairing_cell("1", 0, "1", 0).entry(1, 3) == 2


SHIPPED = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "problems", "*.kz")))


def test_truncated_directive_lines_name_their_line():
    # cut every directive line of the shipped corpus after each of its tokens
    # but the last: the file parses, or the error names the cut line
    cuts = 0
    for path in SHIPPED:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for i, raw in enumerate(lines):
            toks = raw.split("#", 1)[0].split()
            for k in range(1, len(toks)):
                text = "\n".join(lines[:i] + [" ".join(toks[:k])] + lines[i + 1:])
                cuts += 1
                try:
                    parse_problem_text(text, path)
                except ParseError as exc:
                    assert "line %d" % (i + 1) in str(exc), (path, i + 1, toks[:k], str(exc))
    assert len(SHIPPED) == 5 and cuts > 400
