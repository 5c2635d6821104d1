"""`cli.main` builds its argparse tree once per process and shares it.

Every call must still behave as if it had a parser of its own: the same
stdout, stderr, `--report` bytes and exit code as a call made right after the
cache is cleared, and no flag of one call in the next call's namespace.  The
parser is built on the first `main` call, never at import, and the console
entry point agrees with in-process calls.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

from koszulcat import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")

# the shipped-corpus commands of the perfbench corpus workload
CORPUS = (
    ["validate", "problems/c2conv.kz"],
    ["koszul", "problems/poly_xy.kz", "--alpha", "x,y", "--max-degree", "6",
     "--check-resolution"],
    ["koszul", "problems/dual_numbers.kz"],
    ["commutant", "problems/s3_group_algebra.kz"],
    ["tensor-idem", "problems/c2conv.kz"],
    ["hh", "problems/trivial_q.kz", "-n", "2", "-p", "1", "--max-degree", "4"],
    ["syzygy", "problems/trivial_q.kz", "-n", "1", "--module", "Mt", "--max-degree", "4"],
    ["tensor-over", "problems/dual_numbers.kz", "--module", "R,M"],
    ["hh", "problems/c2conv.kz", "-n", "1", "-p", "1", "--max-degree", "3"],
    ["syzygy", "problems/c2conv.kz", "-n", "1", "--module", "R", "--max-degree", "3"],
    ["regular-check", "problems/poly_xy.kz"],
    ["syzygy", "problems/trivial_q.kz", "-n", "1", "--module", "Nope"],
    ["validate", "problems/trivial_q.kz", "--field", "F 5"],
    ["validate", "problems/no_such_problem.kz"],
)
USAGE_ERRORS = (["hh"], ["frob"])
# (flag, namespace attribute) pairs whose value must not leak between calls
FLAGS = (("--alpha", "alpha"), ("--check-resolution", "check_resolution"),
         ("-n", "n"), ("--module", "module"))


@pytest.fixture(autouse=True)
def same_terminal(monkeypatch):
    """argparse wraps usage text to COLUMNS; fix it so every run sees one width.

    Runs from the repository root, where the commands' problem paths resolve,
    and clears the parser cache afterwards, so no test leaves its parser behind.
    """
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    yield
    cli.build_arg_parser.cache_clear()


def run(argv, report_path=None):
    """(exit code, stdout, stderr, report text) of one in-process call."""
    if report_path is not None and os.path.exists(report_path):
        os.remove(report_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + (["--report", report_path] if report_path else []))
        except SystemExit as exc:
            code = exc.code
    report = None
    if report_path is not None and os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = fh.read()
    return code, out.getvalue(), err.getvalue(), report


def corpus_commands(tmp_path):
    """The corpus commands plus a problem file with an unknown directive."""
    malformed = tmp_path / "malformed.kz"
    with open(os.path.join(ROOT, "problems", "dual_numbers.kz"), encoding="utf-8") as fh:
        lines = fh.readlines()
    malformed.write_text("".join(lines[:3] + ["frobnicate now\n"] + lines[3:]))
    return list(CORPUS) + [["validate", str(malformed)]]


@pytest.mark.parametrize("seed", [11, 12])
def test_shared_parser_keeps_calls_independent(tmp_path, monkeypatch, seed):
    commands = corpus_commands(tmp_path)
    report = str(tmp_path / "report.json")
    fresh = {}
    for argv in commands:
        cli.build_arg_parser.cache_clear()
        fresh[tuple(argv)] = run(argv, report)
    for argv in USAGE_ERRORS:
        cli.build_arg_parser.cache_clear()
        fresh[tuple(argv)] = run(argv)
        assert fresh[tuple(argv)][0] == 2 and fresh[tuple(argv)][2].startswith("usage:")
    assert len(commands) == 15 and {r[0] for r in fresh.values()} == {0, 1, 2}

    order = list(commands)
    random.Random(seed).shuffle(order)
    mid = len(order) // 2
    order[mid:mid] = USAGE_ERRORS

    cli.build_arg_parser.cache_clear()
    parser = cli.build_arg_parser()
    seen = []

    def recording(args=None, namespace=None, _parse=parser.parse_args):
        ns = _parse(args, namespace)
        seen.append((args, ns))
        return ns

    monkeypatch.setattr(parser, "parse_args", recording)
    for argv in order:
        got = run(argv, None if argv in USAGE_ERRORS else report)
        assert got == fresh[tuple(argv)], argv
    assert cli.build_arg_parser() is parser

    own = cli.build_arg_parser.__wrapped__()  # a parser no other call has used
    assert len(seen) == len(commands)
    for argv, ns in seen:
        assert vars(ns) == vars(own.parse_args(argv)), argv
        for flag, dest in FLAGS:
            if flag not in argv:
                assert getattr(ns, dest, None) in (None, False), (argv, dest)


COUNT_PARSERS = textwrap.dedent("""
    import argparse, contextlib, io, json
    built = []
    init = argparse.ArgumentParser.__init__
    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    argparse.ArgumentParser.__init__ = counting
    import koszulcat.cli as cli
    counts = [len(built)]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["validate", "problems/c2conv.kz"], ["tensor-idem", "problems/c2conv.kz"]):
            cli.main(argv)
            counts.append(len(built))
    print(json.dumps({"counts": counts, "roots": built.count("koszulcat")}))
""")


def test_parser_is_built_on_first_use_only():
    # a fresh interpreter, so no earlier import or call has built a parser
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", COUNT_PARSERS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    at_import, after_first, after_second = seen["counts"]
    assert at_import == 0
    assert after_first > 0 and after_second == after_first
    assert seen["roots"] == 1


@pytest.mark.parametrize("argv,code", [
    (["tensor-idem", "problems/c2conv.kz"], 0),
    (["koszul", "problems/dual_numbers.kz"], 1),
    (["hh"], 2),
], ids=["exit0", "exit1", "usage-exit2"])
def test_console_entry_point_matches_in_process_calls(argv, code):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "koszulcat.cli"] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    for other in (["validate", "problems/c2conv.kz"], ["frob"],
                  ["commutant", "problems/s3_group_algebra.kz"]):
        run(other)  # in-process calls come after others have used the parser
    assert proc.returncode == code
    assert run(argv)[:3] == (proc.returncode, proc.stdout, proc.stderr)
