"""Outside-in span tracer for koszulcat's public functions.

The tracer needs no hook inside the package: `install()` rebinds each traced
name to a timing wrapper in every loaded `koszulcat.*` module that holds it
(a `from .matrix import rank` copies the binding, so patching `matrix` alone
would miss those calls), and patches methods on their class.  `remove()`
restores every original binding.

A span is (id, label, start, end, parent id, job id).  Spans stay in memory,
packed in per-thread arrays (a traced run records hundreds of thousands),
until the run ends; `aggregate()` then turns them into per-function call
counts and self times.  A span's self time is its duration minus the union
of the intervals its child spans cover, so children that ran side by side on
worker threads are not subtracted twice.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

# (module, attribute path, metric label) of every traced callable.  The label
# drops dunder spelling: `Matrix.__mul__` reports as `matrix.Matrix.mul`.
TRACED = [
    ("matrix", "rank", "rank"),
    ("matrix", "rref", "rref"),
    ("matrix", "kernel_basis", "kernel_basis"),
    ("matrix", "kernel", "kernel"),
    ("matrix", "solve_matrix", "solve_matrix"),
    ("matrix", "quotient", "quotient"),
    ("matrix", "Subspace.from_columns", "Subspace.from_columns"),
    ("matrix", "Subspace.contains", "Subspace.contains"),
    ("matrix", "Matrix.__mul__", "Matrix.mul"),
    ("monoid", "quotient_module", "quotient_module"),
    ("monoid", "generated_submodule", "generated_submodule"),
    ("monoid", "is_central", "is_central"),
    ("monoid", "is_regular", "is_regular"),
    ("monoid", "is_regular_sequence", "is_regular_sequence"),
    ("monoid", "mult_operator", "mult_operator"),
    ("monoid", "commutant", "commutant"),
    ("poly", "polynomial_monoid", "polynomial_monoid"),
    ("poly", "variable_element", "variable_element"),
    ("poly", "merge_variables", "merge_variables"),
    ("complexes", "ChainComplex.dd_certificate", "ChainComplex.dd_certificate"),
    ("complexes", "ChainComplex.homology_cell", "ChainComplex.homology_cell"),
    ("complexes", "contracting_homotopy", "contracting_homotopy"),
    ("complexes", "GradedMap.compose", "GradedMap.compose"),
    ("koszul", "build_koszul", "build_koszul"),
    ("koszul", "check_resolution", "check_resolution"),
    ("koszul", "pascal_split", "pascal_split"),
    ("hochschild", "certify_tensor_idempotent", "certify_tensor_idempotent"),
    ("hochschild", "build_enveloping", "build_enveloping"),
    ("hochschild", "change_of_variables_certificate", "change_of_variables_certificate"),
    ("hochschild", "koszul_bimodule_resolution", "koszul_bimodule_resolution"),
    ("hochschild", "hochschild_cohomology", "hochschild_cohomology"),
    ("tensor", "tensor_over_monoid", "tensor_over_monoid"),
    ("tensor", "build_syzygy_resolution", "build_syzygy_resolution"),
    ("category", "validate_presentation", "validate_presentation"),
    ("category", "day_tensor", "day_tensor"),
    ("gtensor", "GradedTensor.__init__", "GradedTensor.init"),
    ("gtensor", "GradedTensor.induced_map_cells", "GradedTensor.induced_map_cells"),
    ("problemfile", "parse_problem_file", "parse_problem_file"),
    ("problemfile", "ProblemFile.build_monoid", "ProblemFile.build_monoid"),
    ("report", "GradedReport.to_json_str", "GradedReport.to_json_str"),
    ("report", "GradedReport.to_text", "GradedReport.to_text"),
    ("cli", "main", "main"),
]

MODULES = sorted({mod for mod, _, _ in TRACED})
LABELS = ["%s.%s" % (mod, label) for mod, _, label in TRACED]
JOB_LABEL = "job"
ALL_LABELS = LABELS + [JOB_LABEL]
JOB_INDEX = len(LABELS)
NO_JOB = -1


def _rows_input(field, rows, ncols):
    return len(rows) * ncols, sum(len(r) for r in rows)


def _matrix_input(m):
    return m.nrows * m.ncols, m.nnz()


def _solve_input(m, b):
    return m.nrows * (m.ncols + b.ncols), m.nnz() + b.nnz()


# Eliminations, with the size of their input.  Only the outermost of nested
# eliminations is counted (`kernel_basis` runs `rref` inside), so each input
# matrix counts once whichever entry point reached it.
ELIMINATIONS = {
    "matrix.rank": _matrix_input,
    "matrix.rref": _rows_input,
    "matrix.kernel_basis": _matrix_input,
    "matrix.solve_matrix": _solve_input,
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "koszulcat" or name.startswith("koszulcat."))]


class _ThreadState:
    """What one thread records: its open spans, counters and finished spans."""

    __slots__ = ("stack", "elim_depth", "counters", "ints", "times")

    def __init__(self):
        self.stack = []
        self.elim_depth = 0
        self.counters = Counter()
        self.ints = array("q")   # id, label, parent, job of each span
        self.times = array("d")  # start, end of each span


class Tracer:
    """Spans and counters for one run; install, run jobs, remove, summarise."""

    def __init__(self):
        self.job_id = NO_JOB
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads = []
        self._undo = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            self._threads.append(st)
        return st

    @property
    def counters(self) -> Counter:
        total = Counter()
        for st in self._threads:
            total.update(st.counters)
        return total

    @property
    def span_count(self) -> int:
        return sum(len(st.times) // 2 for st in self._threads)

    def spans(self):
        """Every recorded span as (id, label index, start, end, parent, job)."""
        for st in self._threads:
            ints, times = st.ints, st.times
            for k in range(len(times) // 2):
                sid, idx, parent, job = ints[4 * k:4 * k + 4]
                yield sid, idx, times[2 * k], times[2 * k + 1], parent, job

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, label):
        label_idx = LABELS.index(label)
        elim_size = ELIMINATIONS.get(label)
        is_contains = label == "matrix.Subspace.contains"
        clock = time.perf_counter
        ids = self._ids
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            if elim_size is not None:
                if st.elim_depth == 0:
                    entries, nnz = elim_size(*args, **kwargs)
                    st.counters["matrix.elim.entries"] += entries
                    st.counters["matrix.elim.nnz"] += nnz
                st.elim_depth += 1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if elim_size is not None:
                    st.elim_depth -= 1
                st.ints.extend((sid, label_idx, parent, tracer.job_id))
                st.times.extend((start, end))
            if is_contains:
                st.counters["matrix.Subspace.contains.true"] += bool(result)
            return result

        return traced

    @contextmanager
    def job_span(self, job_id):
        """The root span of one benchmark job; spans inside it carry its id."""
        st = self._state()
        sid = next(self._ids)
        self.job_id = job_id
        st.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            st.stack.pop()
            st.ints.extend((sid, JOB_INDEX, 0, job_id))
            st.times.extend((start, end))
            self.job_id = NO_JOB

    def _wrap_parallel_factory(self, factory):
        tracer = self

        @wraps(factory)
        def make_parallel_map(*args, **kwargs):
            pmap = factory(*args, **kwargs)

            def counted(fn, items):
                items = list(items)
                st = tracer._state()
                st.counters["parallel.map.calls"] += 1
                st.counters["parallel.map.items"] += len(items)
                parent = st.stack[-1] if st.stack else 0

                def run(item):
                    # worker threads start with an empty stack; give them the
                    # caller's span as parent
                    wst = tracer._state()
                    wst.stack.append(parent)
                    try:
                        return fn(item)
                    finally:
                        wst.stack.pop()

                return pmap(run, items)

            return counted

        return make_parallel_map

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every traced name to its wrapper; `remove()` undoes it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod_name in MODULES + ["parallel"]:
            importlib.import_module("koszulcat." + mod_name)
        package = _package_modules()
        for mod_name, path, label in TRACED:
            mod = sys.modules["koszulcat." + mod_name]
            full = "%s.%s" % (mod_name, label)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, full))
                else:
                    new = self._wrap(raw, full)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
            else:
                self._rebind(package, getattr(mod, path), self._wrap(getattr(mod, path), full))
        factory = sys.modules["koszulcat.parallel"].make_parallel_map
        self._rebind(package, factory, self._wrap_parallel_factory(factory))

    def _rebind(self, modules, original, replacement):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, replacement)

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    # -- results ------------------------------------------------------------

    def aggregate(self):
        """Per-label calls, self and inclusive seconds, plus job totals."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans():
            if parent:
                children[parent].append((start, end))
        calls = Counter()
        self_s = Counter()
        incl_s = Counter()
        for sid, idx, start, end, _, _ in self.spans():
            label = ALL_LABELS[idx]
            covered = _covered(start, end, children.get(sid, ()))
            calls[label] += 1
            self_s[label] += (end - start) - covered
            incl_s[label] += end - start
        return calls, self_s, incl_s

    def write(self, path, header):
        """Write the spans as gzipped JSON lines after a header line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, labels=ALL_LABELS,
                                     fields=["id", "label", "start", "end",
                                             "parent", "job"])) + "\n")
            for span in self.spans():
                fh.write("[%d,%d,%.9f,%.9f,%d,%d]\n" % span)


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def per_layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """The per-module metrics of a traced phase, averaged per job."""
    calls, self_s, incl_s = tracer.aggregate()
    counters = tracer.counters
    jobs = max(jobs, 1)
    out = {}
    module_self = Counter()
    for label in LABELS:
        out[label + ".calls"] = (calls[label] / jobs, "1/job")
        out[label + ".self_s"] = (self_s[label] / jobs, "s/job")
        module_self[label.split(".", 1)[0]] += self_s[label]
    for mod in MODULES:
        out[mod + ".self_s"] = (module_self[mod] / jobs, "s/job")
    out["matrix.elim.entries"] = (counters["matrix.elim.entries"] / jobs, "1/job")
    out["matrix.elim.nnz"] = (counters["matrix.elim.nnz"] / jobs, "1/job")
    probes = calls["matrix.Subspace.contains"]
    out["matrix.Subspace.contains.true_ratio"] = (
        counters["matrix.Subspace.contains.true"] / probes if probes else 0.0, "ratio")
    out["parallel.map.calls"] = (counters["parallel.map.calls"] / jobs, "1/job")
    out["parallel.map.items"] = (counters["parallel.map.items"] / jobs, "1/job")
    out["monoid.quotient_module.incl_s"] = (incl_s["monoid.quotient_module"] / jobs, "s/job")
    out["trace.job_s"] = (incl_s[JOB_LABEL] / jobs, "s/job")
    return out
