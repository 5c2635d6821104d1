"""koszulcat benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload resolve_q --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
job costs in units of a reference kernel timed next to every job (see
HostSpeed); with --trace 1 the run first measures untraced for half the
time, then replays the same jobs with spans installed and reports
per-module metrics.  Lines before it give the sample counts, the tail
percentile, the error rate, the job times in seconds and the machine.  See
perfbench/README.md.
"""

import argparse
import gc
import hashlib
import random
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from oracle import fraction_rank

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("resolve_q", "hochschild_fp", "corpus")
SETUP_PROBES = 7
TAIL_BEYOND = 10
REF_EVERY = 0.025  # seconds of job time per sample of the reference kernel
REF_MAX = 10  # samples per probe


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def check_checkout():
    """The program under test must be the checkout's own source tree."""
    missing = [p for p in (os.path.join(SRC, "koszulcat", "__init__.py"),
                           os.path.join(ROOT, "problems", "poly_xy.kz"))
               if not os.path.isfile(p)]
    if missing:
        sys.exit("perfbench: not a koszulcat checkout, missing %s" % ", ".join(missing))
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    # the thread count of library jobs is fixed by the workload, not the caller
    os.environ.pop("KOSZULCAT_THREADS", None)


def scratch_dir():
    path = os.path.join(ROOT, ".perfbench", "run-%d" % os.getpid())
    os.makedirs(path, exist_ok=True)
    return path


# -- provenance -----------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return None


def provenance(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
    }


# -- set-up ---------------------------------------------------------------------


def setup_probe(args):
    """Child side of a set-up measurement: set up, announce, exit."""
    import workloads

    scratch = scratch_dir()
    try:
        wl = workloads.make(args.workload, args.seed, scratch)
        wl.round()
        print("ready", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_setup(args):
    """Median wall time from process spawn to the end of set-up, over fresh processes.

    Import, input generation and the shared monoid can only be paid once per
    process, so each sample is a new interpreter running the same set-up.
    """
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError("set-up probe failed with exit code %d" % code)
        samples.append(ready - start)
    return statistics.median(samples), samples


# -- host speed -------------------------------------------------------------------


def _reference_matrix(rows, cols, lo, hi):
    rng = random.Random(rows * 1000 + cols)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


REF_Q = _reference_matrix(7, 9, -5, 5)
REF_FP = _reference_matrix(16, 18, 0, 100)


def _rank_mod(rows, p):
    work = [list(r) for r in rows]
    rank = 0
    for col in range(len(work[0])):
        piv = next((i for i in range(rank, len(work)) if work[i][col] % p), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [v * inv % p for v in work[rank]]
        for i in range(len(work)):
            f = work[i][col] % p
            if i != rank and f:
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def reference_kernel():
    """Fixed work in the program's idiom, timed to gauge the host's current speed.

    Exact elimination of a fixed integer matrix over Q (Fraction) and over
    F_101, as koszulcat's own scalar kernels do.  It uses only the standard
    library, so no change to koszulcat can move it.
    """
    return fraction_rank(REF_Q), _rank_mod(REF_FP, 101)


class HostSpeed:
    """Times the reference kernel next to every job, to divide the job's time by.

    The host is shared, and its speed swings by tens of percent within
    seconds; every job slows with it, and so does the reference kernel run
    right before and right after the job.  A job's time over the mean of
    those two reference times stays put while the host's speed moves, so a
    metric in `ref` units compares across runs made at different moments.
    A probe takes one sample, plus one per REF_EVERY of the job just run, at
    most REF_MAX, and reports their median.
    """

    def __init__(self):
        self.samples = []

    def probe(self, job_s=0.0):
        taken = []
        for _ in range(1 + min(int(job_s / REF_EVERY), REF_MAX - 1)):
            start = time.perf_counter()
            reference_kernel()
            taken.append(time.perf_counter() - start)
        self.samples.extend(taken)
        return statistics.median(taken)


# -- the measured loop -------------------------------------------------------------


def digest(outcome) -> str:
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


class Tally:
    """Outcome of every job of one phase, in order."""

    def __init__(self):
        self.times = []
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.refs = []  # reference time around each job, in step with times
        self.host = HostSpeed()

    @property
    def correct(self):
        return self.attempted - self.failed

    def fail(self, spec, why):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append({"spec": spec, "problem": why})


def run_job(wl, check, spec, tally, expected_digest=None, job_span=None):
    """Run, time and check one job; any disagreement counts it as failed."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        if job_span is None:
            outcome = wl.run(spec)
        else:
            with job_span:
                outcome = wl.run(spec)
    except Exception:
        tally.times.append(time.perf_counter() - start)
        tally.digests.append(None)
        tally.fail(spec, "raised: " + traceback.format_exc(limit=4))
        return None
    tally.times.append(time.perf_counter() - start)
    dg = digest(outcome)
    tally.digests.append(dg)
    try:
        problems = check(wl.name, spec, outcome)
    except Exception:
        problems = ["oracle could not read the output: " + traceback.format_exc(limit=2)]
    if expected_digest is not None and dg != expected_digest:
        problems = problems + ["output differs from an earlier run of the same job"]
    if problems:
        tally.fail(spec, problems)
    return outcome


def warm_up(wl, check):
    """One untimed round: first-call costs and lazy imports are paid before timing.

    What exists after it (imports, the shared set-up) is moved out of the
    collector's sight, so collecting between jobs costs little.
    """
    tally = Tally()
    for spec in wl.round():
        run_job(wl, check, spec, tally)
    reference_kernel()
    gc.collect()
    gc.freeze()
    return tally


def measure(wl, check, seconds, rounds_out):
    """Run whole rounds until the time is up; record the rounds for a replay.

    Between jobs, outside their timing, the garbage collector runs, so no
    job pays for the garbage of earlier ones (a fresh CLI process has
    none); then the reference kernel runs, and each job is paired with the
    mean of the probes just before and just after it.
    """
    tally = Tally()
    first_seen = {}  # corpus repeats commands: the same argv must print the same bytes
    before = tally.host.probe()
    start = time.perf_counter()
    while True:
        specs = wl.round()
        rounds_out.append(specs)
        for spec in specs:
            key = json.dumps(spec.get("argv")) if "argv" in spec else None
            run_job(wl, check, spec, tally, first_seen.get(key))
            if key is not None and key not in first_seen and tally.digests[-1]:
                first_seen[key] = tally.digests[-1]
            gc.collect()
            after = tally.host.probe(tally.times[-1])
            tally.refs.append((before + after) / 2.0)
            before = after
        if time.perf_counter() - start >= seconds:
            return tally


def replay_traced(wl, check, rounds, reference, tracer):
    """Run the recorded jobs again with spans on; outputs must match byte for byte."""
    tally = Tally()
    tracer.install()
    try:
        i = 0
        for specs in rounds:
            for spec in specs:
                run_job(wl, check, spec, tally, reference.digests[i], tracer.job_span(i))
                gc.collect()
                i += 1
    finally:
        tracer.remove()
    return tally


# -- metrics ------------------------------------------------------------------------


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    idx = n - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / n, TAIL_BEYOND


def certs_per_s(tally):
    return tally.correct / sum(tally.times) if tally.times else 0.0


def end_to_end(tally, setup_s):
    """Job metrics in reference units (see HostSpeed); set-up and memory raw."""
    value, pct, beyond = tail(tally.times)
    p50 = statistics.median(tally.times)
    cost = [t / r for t, r in zip(tally.times, tally.refs)]
    metrics = {
        "certs_per_kref": (1000.0 * tally.correct / sum(cost), "1/kref"),
        "job_ref.p50": (statistics.median(cost), "ref"),
        "job_ref.tail": (tail(cost)[0], "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "samples": len(tally.times),
        "tail_percentile": round(pct, 2),
        "tail_samples_beyond": beyond,
        "error_rate": tally.failed / tally.attempted if tally.attempted else 0.0,
        "ref_s": statistics.median(tally.host.samples),
        "ref_samples": len(tally.host.samples),
        "certs_per_s": certs_per_s(tally),
        "job_s.p50": p50,
        "job_s.tail": value,
    }
    return metrics, notes


def emit(tally_list, metrics, notes, prov):
    attempted = sum(t.attempted for t in tally_list)
    failed = sum(t.failed for t in tally_list)
    problems = [p for t in tally_list for p in t.problems]
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for p in problems:
        print("problem " + json.dumps(p, sort_keys=True, default=str), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    check_checkout()
    if args.setup_probe:
        setup_probe(args)
        return 0

    import oracle
    import workloads

    prov = provenance(args)
    scratch = scratch_dir()
    try:
        wl = workloads.make(args.workload, args.seed, scratch)
        setup_s, samples = measure_setup(args)
        warm = warm_up(wl, oracle.check)
        rounds = []
        if not args.trace:
            tally = measure(wl, oracle.check, args.seconds, rounds)
            metrics, notes = end_to_end(tally, setup_s)
            notes["setup_samples"] = samples
            emit([warm, tally], metrics, notes, prov)
            return 0

        import tracer as tracer_mod

        untraced = measure(wl, oracle.check, args.seconds / 2.0, rounds)
        tr = tracer_mod.Tracer()
        traced = replay_traced(wl, oracle.check, rounds, untraced, tr)
        metrics = tracer_mod.per_layer_metrics(tr, traced.attempted)
        untraced_rate = certs_per_s(untraced)
        metrics["trace.overhead"] = (
            certs_per_s(traced) / untraced_rate if untraced_rate else 0.0, "ratio")
        notes = {"jobs": traced.attempted, "untraced_certs_per_s": untraced_rate,
                 "traced_certs_per_s": certs_per_s(traced), "spans": tr.span_count}
        trace_path = os.path.join(ROOT, ".perfbench",
                                  "trace-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
        tr.write(trace_path, {"provenance": prov, "metrics": metrics})
        notes["trace_file"] = os.path.relpath(trace_path, ROOT)
        emit([warm, untraced, traced], metrics, notes, prov)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
