"""Self-tests of the benchmark: oracle, determinism check and tracer.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def first(wl, pred):
    for _ in range(20):
        for spec in wl.round():
            if pred(spec):
                return spec
    raise AssertionError("no such job in 20 rounds")


# one cheap job per workload, and the kinds the acceptance checks single out
def small_hh(spec):
    return spec["base"] == "scalar" and spec["nvars"] == 2 and spec["cap"] == 3


def regular_pair(spec):
    return len(spec["forms"]) == 2


def test_fraction_rank_and_formula():
    assert oracle.fraction_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert oracle.fraction_rank([[1, 0, 0], [0, 1, 0], [1, 1, 0]]) == 2
    regular, dims = oracle.resolve_q_expected(
        {"nvars": 3, "cap": 2, "forms": [[1, 2, 3], [2, 4, 7], [3, 6, 10]]})
    assert not regular
    assert dims[(0, "1", 2)] == 1 and dims[(1, "1", 1)] == 1 and dims[(2, "1", 0)] == 0


def test_wrong_expectation_counts_as_failure(tmp_path, at_root):
    """A job whose expected value is wrong must land in failed / error_rate."""
    hh = workloads.HochschildFp(3)
    spec = first(hh, small_hh)
    corpus = workloads.Corpus(3, str(tmp_path))
    witness = next(s for s in corpus.round() if s["fact"] == "witness-xbar")
    tally = run.Tally()
    run.run_job(hh, oracle.check, spec, tally)
    run.run_job(corpus, oracle.check, witness, tally)
    assert (tally.attempted, tally.failed) == (2, 0)

    wrong_dims = copy.deepcopy(spec)
    wrong_dims["base_dims"] = {"1": 2}
    wrong_exit = dict(witness, exit=0)
    wrong_fact = dict(witness, problem_text=witness["problem_text"].replace(
        "basis one xbar", "basis xbar one"))
    for job, bad in ((hh, wrong_dims), (corpus, wrong_exit), (corpus, wrong_fact)):
        run.run_job(job, oracle.check, bad, tally)
    assert (tally.attempted, tally.failed) == (5, 3)
    tally.host.probe()
    tally.refs = [0.01] * len(tally.times)
    _, notes = run.end_to_end(tally, 0.1)
    assert notes["error_rate"] == pytest.approx(3 / 5)


def test_changed_output_counts_as_failure(tmp_path, at_root):
    corpus = workloads.Corpus(5, str(tmp_path))
    spec = corpus.round()[0]
    tally = run.Tally()
    run.run_job(corpus, oracle.check, spec, tally)
    run.run_job(corpus, oracle.check, spec, tally, expected_digest=tally.digests[0])
    run.run_job(corpus, oracle.check, spec, tally, expected_digest="0" * 64)
    assert (tally.attempted, tally.failed) == (3, 1)


def test_malformed_problem_exits_two_at_every_line(tmp_path, at_root):
    with open(workloads.Corpus.MALFORMED_SOURCE, encoding="utf-8") as fh:
        lines = fh.readlines()
    corpus = workloads.Corpus(1, str(tmp_path))
    for at in range(1, len(lines) + 1):
        with open(corpus.malformed_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:at] + [workloads.MALFORMED_LINE] + lines[at:])
        spec = {"argv": ["validate", corpus.malformed_path], "exit": 2,
                "fact": None, "cap": None}
        assert oracle.check("corpus", spec, corpus.run(spec)) == []


def test_reference_probe_grows_with_the_job():
    host = run.HostSpeed()
    assert host.probe() > 0
    host.probe(run.REF_EVERY * 2.5)
    host.probe(run.REF_EVERY * 1000)
    assert len(host.samples) == 1 + 3 + run.REF_MAX


def test_job_metrics_are_in_reference_units():
    tally = run.Tally()
    tally.attempted, tally.times, tally.refs = 3, [0.2, 0.4, 0.9], [0.1, 0.1, 0.3]
    tally.host.probe()
    e2e, notes = run.end_to_end(tally, 0.1)
    assert e2e["job_ref.p50"][0] == pytest.approx(3.0)
    assert e2e["certs_per_kref"][0] == pytest.approx(1000.0 * 3 / (2 + 4 + 3))
    assert notes["job_s.p50"] == pytest.approx(0.4)


def test_tail_percentile():
    assert run.tail([1.0] * 5) == (1.0, 100.0, 0)
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)


def test_covered_is_the_union_of_child_intervals():
    # children on two threads overlap; the part outside the parent is clipped
    assert tracer._covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 12.0)]) == 7.0
    assert tracer._covered(0.0, 1.0, []) == 0.0


def test_remove_restores_every_binding():
    import koszulcat.cli as cli
    import koszulcat.complexes as complexes
    import koszulcat.matrix as matrix

    before = (matrix.rank, complexes.rank, cli.main, matrix.Matrix.__dict__["__mul__"],
              matrix.Subspace.__dict__["from_columns"], cli.make_parallel_map)
    tr = tracer.Tracer()
    tr.install()
    assert complexes.rank is matrix.rank is not before[0]
    assert cli.make_parallel_map is not before[5]
    tr.remove()
    after = (matrix.rank, complexes.rank, cli.main, matrix.Matrix.__dict__["__mul__"],
             matrix.Subspace.__dict__["from_columns"], cli.make_parallel_map)
    assert all(a is b for a, b in zip(before, after))


def traced_and_untraced(wl, specs):
    """Outcomes of the same jobs untraced, then traced; and the traced metrics."""
    plain = [wl.run(spec) for spec in specs]
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = []
        for i, spec in enumerate(specs):
            with tr.job_span(i):
                traced.append(wl.run(spec))
    finally:
        tr.remove()
    return plain, traced, tracer.per_layer_metrics(tr, len(specs))


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        resolve = workloads.ResolveQ(2)
        hh = workloads.HochschildFp(2)
        corpus = workloads.Corpus(2, str(tmp_path_factory.mktemp("corpus")))
        return {
            "resolve_q": traced_and_untraced(resolve, [first(resolve, regular_pair)]),
            "hochschild_fp": traced_and_untraced(hh, [first(hh, small_hh)]),
            "corpus": traced_and_untraced(corpus, corpus.round()),
        }
    finally:
        os.chdir(cwd)


def test_traced_reports_are_byte_identical(traced_runs):
    for name, (plain, traced, _) in traced_runs.items():
        assert plain == traced, name
        assert run.digest(plain) == run.digest(traced)


def test_no_per_module_metric_is_dead(traced_runs):
    """Every traced name is called on some workload, so no metric is always 0."""
    for label in tracer.LABELS + ["parallel.map"]:
        key = label + (".items" if label == "parallel.map" else ".calls")
        assert any(m[key][0] > 0 for _, _, m in traced_runs.values()), label
    for _, _, m in traced_runs.values():
        names = set(m)
        assert {l + ".calls" for l in tracer.LABELS} <= names
        assert {l + ".self_s" for l in tracer.LABELS} <= names
        assert {mod + ".self_s" for mod in tracer.MODULES} <= names


def test_workloads_pull_layers_apart(traced_runs):
    hh = traced_runs["hochschild_fp"][2]
    resolve = traced_runs["resolve_q"][2]
    assert hh["complexes.ChainComplex.homology_cell.calls"][0] == 0
    assert hh["parallel.map.items"][0] == 0
    assert resolve["complexes.contracting_homotopy.calls"][0] == 0
    assert resolve["parallel.map.items"][0] > 0
    assert resolve["matrix.elim.entries"][0] > 0


def test_self_times_fit_inside_single_threaded_jobs(traced_runs):
    """Without worker threads, the module self times cannot exceed the job time."""
    for name in ("hochschild_fp", "corpus"):
        m = traced_runs[name][2]
        total = sum(m[mod + ".self_s"][0] for mod in tracer.MODULES)
        assert 0 < total <= m["trace.job_s"][0] * 1.0001, name


def test_benchmark_json_lists_every_emitted_metric(traced_runs):
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    tally = run.Tally()
    tally.attempted, tally.times = 1, [0.5]
    tally.host.probe()
    tally.refs = [0.01]
    e2e, _ = run.end_to_end(tally, 0.1)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}
    _, _, per_layer = traced_runs["corpus"]
    emitted = {k: unit for k, (_, unit) in per_layer.items()}
    emitted["trace.overhead"] = "ratio"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == emitted
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
