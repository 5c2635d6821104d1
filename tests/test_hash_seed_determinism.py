"""CLI output does not depend on the string-hash seed or on `python -O`.

Each command runs in a fresh interpreter under PYTHONHASHSEED 0 and 1, and
under `python -O`, which strips asserts, so a certificate that checked only
through an assert would change its verdict; exit codes, stdout and the
`--report` bytes must be equal.  The commands cover a
quotient module (the failing stage of `koszul` on the dual numbers), the
tensor over a monoid, a syzygy resolution on each backend (over A_n alone,
without the enveloping monoid), the enveloping monoid behind Hochschild
cohomology on both backends (the merge Phi, the collapse pi and the change
of variables psi), and the plain
`koszul` route through the homology report, on a copy of poly_xy.kz whose
task line does not ask for check-resolution, and `tensor-idem` on a Day
unit and on a unit with no products, whose unit laws fail.  One library
golden, the bimodule resolution over the C2 Day unit, is also rebuilt
under `python -O` and compared byte for byte.
"""

import os
import subprocess
import sys

import pytest

from test_syzygy_verb import ZERO_PRODUCT, _pin

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
RUN_CLI = "import sys; from koszulcat.cli import main; sys.exit(main(sys.argv[1:]))"

# (id, argv).  The ids are explicit, so adding a command renames no case;
# the first five keep the ids that pytest derived from the verb before.
COMMANDS = [
    ("koszul", ["koszul", "problems/dual_numbers.kz"]),
    ("tensor-over", ["tensor-over", "problems/dual_numbers.kz", "--module", "R,M"]),
    ("syzygy", ["syzygy", "problems/c2conv.kz", "-n", "1", "--module", "R", "--max-degree", "3"]),
    ("hh0", ["hh", "problems/trivial_q.kz", "-n", "2", "-p", "1", "--max-degree", "4"]),
    ("hh1", ["hh", "problems/c2conv.kz", "-n", "1", "-p", "1", "--max-degree", "3"]),
    ("syzygy-trivial_q", ["syzygy", "problems/trivial_q.kz", "-n", "1", "--module", "Mt",
                          "--max-degree", "4"]),
    ("tensor-idem", ["tensor-idem", "problems/c2conv.kz"]),
]
ARGVS = [argv for _, argv in COMMANDS]
IDS = [name for name, _ in COMMANDS]


def run_under_seed(argv, seed, report, *flags):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *flags, "-c", RUN_CLI, *argv, "--report", str(report)],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    with open(report, "rb") as fh:
        return proc.returncode, proc.stdout, fh.read()


@pytest.mark.parametrize("argv", ARGVS, ids=IDS)
def test_cli_output_is_equal_across_hash_seeds(argv, tmp_path):
    runs = [run_under_seed(argv, seed, tmp_path / ("seed%d.json" % seed)) for seed in (0, 1)]
    assert runs[0] == runs[1]
    assert runs[0][2]  # a report was written


@pytest.mark.parametrize("argv", ARGVS, ids=IDS)
def test_cli_output_is_equal_under_optimize(argv, tmp_path):
    plain = run_under_seed(argv, 0, tmp_path / "plain.json")
    optimized = run_under_seed(argv, 0, tmp_path / "optimized.json", "-O")
    assert optimized == plain
    assert plain[2]


def test_plain_koszul_output_is_equal_across_hash_seeds_and_under_optimize(tmp_path):
    """`koszul` on a problem whose task line does not ask for check-resolution
    goes through the homology report, which no shipped problem reaches: a
    copy of poly_xy.kz without that flag runs under both seeds and `-O`."""
    with open(os.path.join(ROOT, "problems", "poly_xy.kz"), encoding="utf-8") as fh:
        text = fh.read()
    assert " check-resolution\n" in text
    problem = tmp_path / "poly_xy_plain.kz"
    problem.write_text(text.replace(" check-resolution\n", "\n"), encoding="utf-8")
    argv = ["koszul", str(problem)]
    runs = [run_under_seed(argv, seed, tmp_path / ("seed%d.json" % seed)) for seed in (0, 1)]
    optimized = run_under_seed(argv, 0, tmp_path / "optimized.json", "-O")
    assert runs[0] == runs[1] == optimized
    assert runs[0][0] == 0
    assert b'"op":"koszul-homology"' in runs[0][2]


@pytest.mark.parametrize("seed, flags", [(0, ()), (1, ()), (0, ("-O",))],
                         ids=["seed0", "seed1", "optimize"])
def test_unit_law_refusal_is_equal_across_hash_seeds_and_under_optimize(seed, flags, tmp_path):
    """`tensor-idem` on a unit with no products: the pinned refusal, exit 1."""
    problem = tmp_path / "zero_product.kz"
    problem.write_text(ZERO_PRODUCT, encoding="utf-8")
    code, stdout, report = run_under_seed(["tensor-idem", str(problem)], seed,
                                          tmp_path / "r.json", *flags)
    pin = _pin("tensor_idem_zero_product")
    assert (code, stdout.decode(), report.decode()) == (pin["exit"], pin["stdout"], pin["report"])


def test_bimodule_resolution_golden_under_optimize():
    """The `bimodule_resolution_c2_f101` golden, rebuilt in a fresh `python -O`."""
    name = "bimodule_resolution_c2_f101"
    code = ("import sys; from test_golden_reports import LIB_CASES; "
            "sys.stdout.write('\\n'.join(LIB_CASES[%r]()) + '\\n')" % name)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, TESTS, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(TESTS, "golden", name + ".txt"), "rb") as fh:
        assert proc.stdout == fh.read()
