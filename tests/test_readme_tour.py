"""The README's library quick tour runs as written and does what its comments say.

The one `python` block under "## Library quick tour" is executed with stdout
captured.  Its comments claim a passing Koszul resolution certificate for
(x, y) over Q[x, y], and HH^1 of Q[t1, t2] at cap 5 with dims 2 * (d + 1) in
degrees d = 0..4 and cochain maps exactly zero.
"""

import contextlib
import io
import os

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")


def tour_source():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")
    assert len(blocks) == 2, "expected one python block in the quick tour"
    return blocks[1].split("```", 1)[0]


def test_readme_tour_runs_and_its_comments_hold():
    scope = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour_source(), "README.md", "exec"), scope)
    cert, rep = scope["cert"], scope["rep"]
    assert out.getvalue() == cert.report.to_text() + "\n" + rep.to_text() + "\n"

    assert cert.regular and cert.passed
    assert "certificate h0-matches-quotient" in cert.report.to_text()

    assert [(e.p, e.degree, e.dim) for e in rep.entries] == [(1, d, 2 * (d + 1)) for d in range(5)]
    zero = [c for c in rep.certificates if c.name == "cochain-differential-zero"]
    assert len(zero) == 1 and zero[0].passed
    assert rep.all_passed
