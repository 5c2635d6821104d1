"""The three benchmark workloads: seeded job specs and the calls into koszulcat.

Every workload is a closed loop with one client: jobs run one after another,
in rounds.  A round holds one job of every kind the workload mixes, in an
order the seed shuffles, so every run measures the same mix and only the
drawn inputs change with the seed.  `round()` returns the next round of job
specs (plain data the oracle can read); `run(spec)` makes the koszulcat calls
and returns the canonical outputs.  Every koszulcat name is looked up on its
module at call time, so a tracer that rebinds module attributes sees the
calls.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from itertools import combinations

import koszulcat.category as category
import koszulcat.cli as cli
import koszulcat.field as field_mod
import koszulcat.hochschild as hochschild
import koszulcat.koszul as koszul
import koszulcat.monoid as monoid
import koszulcat.parallel as parallel
import koszulcat.poly as poly
import koszulcat.sample as sample
import koszulcat.tensor as tensor
from oracle import fraction_rank


def _linear_form(field, variables, coeffs):
    """sum_i coeffs[i] * t_i as an element of the degree-one cell."""
    first = variables[0]
    coords = []
    for j in range(len(first.coords)):
        acc = field.zero()
        for c, v in zip(coeffs, variables):
            acc = field.add(acc, field.mul(field.from_int(c), v.coords[j]))
        coords.append(acc)
    return monoid.Element(first.obj, 1, tuple(coords))


def _general_position(rows):
    """Dense forms: no zero coefficient and no vanishing 2x2 minor of any pair.

    A zero coefficient, or a pair whose span holds a form in fewer
    variables, makes a sparse ideal whose certificates cost as little as a
    third of a dense tuple's; admitting them would make the cost of a run
    depend on how many of them the seed happened to draw.
    """
    if any(c == 0 for row in rows for c in row):
        return False
    for a, b in combinations(rows, 2):
        for i, j in combinations(range(len(a)), 2):
            if a[i] * b[j] == a[j] * b[i]:
                return False
    return True


class ResolveQ:
    """Koszul resolution certificates over Q[t1, t2, t3] at one shared cap.

    Kinds per round: two independent forms, three independent forms, and
    three forms of rank two (the third a combination of the first two), so
    one tuple in three takes the non-regular path and emits a witness.
    Coefficients are small nonzero integers in general position.
    """

    name = "resolve_q"
    NVARS = 3
    CAP = 3
    KINDS = ((2, 2), (3, 3), (3, 2))  # (forms, rank)
    COEFFS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.field = field_mod.QQ
        cat = category.CategoryPresentation.trivial(self.field)
        self.monoid = poly.polynomial_monoid(monoid.scalar_monoid(cat), self.NVARS, self.CAP)

    def _forms(self, k, r):
        rng = self.rng
        while True:
            rows = [[rng.choice(self.COEFFS) for _ in range(self.NVARS)] for _ in range(r)]
            if k > r:
                mix = [rng.choice((-2, -1, 1, 2)) for _ in range(r)]
                rows.append([sum(m * row[j] for m, row in zip(mix, rows))
                             for j in range(self.NVARS)])
            if _general_position(rows) and fraction_rank(rows) == r:
                return rows

    def round(self):
        specs = [{"nvars": self.NVARS, "cap": self.CAP, "forms": self._forms(k, r)}
                 for k, r in self.KINDS]
        self.rng.shuffle(specs)
        return specs

    def run(self, spec):
        a = self.monoid
        variables = [poly.variable_element(a, i) for i in range(1, self.NVARS + 1)]
        alphas = [_linear_form(self.field, variables, row) for row in spec["forms"]]
        cert = koszul.check_resolution(a, alphas, parallel_map=parallel.make_parallel_map(2))
        split = koszul.pascal_split(koszul.build_koszul(a, alphas))
        return {"resolution": cert.report.to_json_str(),
                "split": split.report.to_json_str()}


class HochschildFp:
    """Enveloping monoids, bimodule resolutions, HH and syzygies over F_101.

    Kinds per round: every base (the scalar monoid on the trivial backend,
    the Day-unit monoid of the two-object C2 convolution category) with
    n in {1, 2} and cap in {3, 4}.  Each job builds its own monoids.
    """

    name = "hochschild_fp"
    PRIME = 101
    BASES = {"scalar": {"1": 1}, "c2unit": {"e": 1, "g": 1}}

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.field = field_mod.Field.prime(self.PRIME)

    def round(self):
        specs = []
        for base in sorted(self.BASES):
            for n in (1, 2):
                for cap in (3, 4):
                    specs.append({"base": base, "base_dims": self.BASES[base],
                                  "nvars": n, "cap": cap,
                                  "syzygy_form": [self.rng.randint(1, self.PRIME - 1)
                                                  for _ in range(n)]})
        self.rng.shuffle(specs)
        return specs

    def _base(self, kind):
        if kind == "scalar":
            return monoid.scalar_monoid(category.CategoryPresentation.trivial(self.field))
        return monoid.identity_monoid(sample.c2_convolution_category(self.field))

    def run(self, spec):
        n, cap = spec["nvars"], spec["cap"]
        base = self._base(spec["base"])
        idem = hochschild.certify_tensor_idempotent(base)
        env = hochschild.build_enveloping(base, n, cap, idem_cert=idem)
        res = hochschild.koszul_bimodule_resolution(env)
        coeffs = monoid.regular_bimodule(env.a_n)
        hh = [hochschild.hochschild_cohomology(env, coeffs, p).to_json_str()
              for p in range(n + 2)]
        variables = [poly.variable_element(env.a_n, i) for i in range(1, n + 1)]
        form = _linear_form(self.field, variables, spec["syzygy_form"])
        cyclic = monoid.quotient_module(monoid.regular_bimodule(env.a_n),
                                        monoid.generated_submodule(env.a_n, [form])).module
        syz = tensor.build_syzygy_resolution(env, cyclic)
        return {"idempotent": idem.passed,
                "enveloping": env.report.to_json_str(),
                "resolution": res.report.to_json_str(),
                "hh": hh,
                "syzygy": syz.report.to_json_str()}


MALFORMED_LINE = "frobnicate the-parser\n"


class Corpus:
    """In-process CLI runs on the shipped problems, plus inputs that must exit 2.

    A round is one pass over every command in a seeded order.  Every command
    writes --report into a scratch directory; the malformed problem is a
    shipped file with an unknown directive inserted at a seeded line.  The
    pass has an odd number of commands, so the median job is the middle
    command rather than the mean of two neighbours of different cost.
    """

    name = "corpus"

    # (argv, exit code, fact the oracle checks, cap the fact is stated at)
    COMMANDS = (
        (["validate", "problems/c2conv.kz"], 0, None, None),
        (["koszul", "problems/poly_xy.kz", "--alpha", "x,y", "--max-degree", "6",
          "--check-resolution"], 0, "h0-degree-0", 6),
        (["koszul", "problems/dual_numbers.kz"], 1, "witness-xbar", None),
        (["commutant", "problems/s3_group_algebra.kz"], 0, "commutant-dim-3", None),
        (["tensor-idem", "problems/c2conv.kz"], 0, None, None),
        (["hh", "problems/trivial_q.kz", "-n", "2", "-p", "1", "--max-degree", "4"],
         0, "hh1-two-vars", 4),
        (["syzygy", "problems/trivial_q.kz", "-n", "1", "--module", "Mt",
          "--max-degree", "4"], 0, None, None),
        (["tensor-over", "problems/dual_numbers.kz", "--module", "R,M"], 0, None, None),
        (["hh", "problems/c2conv.kz", "-n", "1", "-p", "1", "--max-degree", "3"],
         0, "hh1-c2-one-var", 3),
        (["syzygy", "problems/c2conv.kz", "-n", "1", "--module", "R", "--max-degree", "3"],
         0, None, None),
        (["regular-check", "problems/poly_xy.kz"], 0, None, None),
        (["syzygy", "problems/trivial_q.kz", "-n", "1", "--module", "Nope"], 2, None, None),
        (["validate", "problems/trivial_q.kz", "--field", "F 5"], 2, None, None),
        (["validate", "problems/no_such_problem.kz"], 2, None, None),
    )
    MALFORMED_SOURCE = "problems/dual_numbers.kz"

    def __init__(self, seed, scratch_dir):
        self.rng = random.Random(seed)
        self.report_path = os.path.join(scratch_dir, "report.json")
        with open(self.MALFORMED_SOURCE, encoding="utf-8") as fh:
            lines = fh.readlines()
        at = self.rng.randint(1, len(lines))
        self.malformed_path = os.path.join(scratch_dir, "malformed.kz")
        with open(self.malformed_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:at] + [MALFORMED_LINE] + lines[at:])
        self.texts = {}
        for argv, _, fact, _ in self.COMMANDS:
            if fact == "witness-xbar":
                with open(argv[1], encoding="utf-8") as fh:
                    self.texts[argv[1]] = fh.read()  # the oracle reads the basis

    def round(self):
        specs = []
        for argv, code, fact, cap in self.COMMANDS:
            spec = {"argv": argv, "exit": code, "fact": fact, "cap": cap}
            if fact == "witness-xbar":
                spec["problem_text"] = self.texts[argv[1]]
            specs.append(spec)
        specs.append({"argv": ["validate", self.malformed_path], "exit": 2,
                      "fact": None, "cap": None})
        self.rng.shuffle(specs)
        return specs

    def run(self, spec):
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(spec["argv"] + ["--report", self.report_path])
        report = None
        if os.path.exists(self.report_path):
            with open(self.report_path, encoding="utf-8") as fh:
                report = fh.read()
        return {"code": code, "stdout": out.getvalue(), "report": report}


def make(name, seed, scratch_dir):
    if name == "resolve_q":
        return ResolveQ(seed)
    if name == "hochschild_fp":
        return HochschildFp(seed)
    if name == "corpus":
        return Corpus(seed, scratch_dir)
    raise ValueError("unknown workload %r" % name)
