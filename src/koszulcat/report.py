"""Reports and certificates: the output currency of every computation.

A `ValidationReport` lists violated axiom instances (an empty list is a
certificate).  A `GradedReport` carries per-(homological degree, object,
internal degree) dimension entries plus named pass/fail certificates with
replayable witnesses.  Serialization is canonical: JSON with sorted keys,
entries sorted by (homological degree, object, internal degree),
certificates in the order they are added, and nothing read in hash order,
so a report is byte-identical across runs and hash seeds
(`tests/test_hash_seed_determinism.py` runs the CLI under two seeds and
under `python -O`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Optional


@dataclass
class Violation:
    axiom: str
    instance: str

    def __str__(self):
        return "%s at %s" % (self.axiom, self.instance)


@dataclass
class ValidationReport:
    subject: str
    checked: int = 0
    violations: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, axiom: str, instance: str):
        self.violations.append(Violation(axiom, instance))

    def to_text(self) -> str:
        lines = ["validation of %s: %s (%d axiom instances checked)"
                 % (self.subject, "PASS" if self.ok else "FAIL", self.checked)]
        for v in self.violations:
            lines.append("  violated: %s" % v)
        return "\n".join(lines)


@dataclass
class Certificate:
    name: str
    passed: bool
    detail: str = ""
    witness: Optional[dict] = None

    def to_jsonable(self):
        out = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    @staticmethod
    def from_jsonable(d):
        return Certificate(d["name"], d["passed"], d.get("detail", ""), d.get("witness"))


@dataclass
class ReportEntry:
    p: Optional[int]  # homological degree, None for plain dimension tables
    obj: str
    degree: int
    dim: int
    certified: bool = True

    def sort_key(self):
        return (self.p if self.p is not None else -1, self.obj, self.degree)

    def to_jsonable(self):
        return {"p": self.p, "obj": self.obj, "degree": self.degree,
                "dim": self.dim, "certified": self.certified}

    @staticmethod
    def from_jsonable(d):
        return ReportEntry(d["p"], d["obj"], d["degree"], d["dim"], d["certified"])


@dataclass
class GradedReport:
    task: dict
    field: str
    window: dict
    entries: list = dc_field(default_factory=list)
    certificates: list = dc_field(default_factory=list)

    def add_entry(self, p, obj, degree, dim):
        self.entries.append(ReportEntry(p, obj, degree, dim))

    def add_certificate(self, name, passed, detail="", witness=None):
        self.certificates.append(Certificate(name, passed, detail, witness))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.certificates)

    def failed_certificates(self):
        return [c for c in self.certificates if not c.passed]

    def to_jsonable(self):
        return {
            "task": self.task,
            "field": self.field,
            "window": self.window,
            "entries": [e.to_jsonable() for e in sorted(self.entries, key=ReportEntry.sort_key)],
            "certificates": [c.to_jsonable() for c in self.certificates],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "GradedReport":
        d = json.loads(text)
        return GradedReport(
            task=d["task"],
            field=d["field"],
            window=d["window"],
            entries=[ReportEntry.from_jsonable(e) for e in d["entries"]],
            certificates=[Certificate.from_jsonable(c) for c in d["certificates"]],
        )

    def to_text(self) -> str:
        lines = []
        task = " ".join("%s=%s" % (k, v) for k, v in sorted(self.task.items()))
        lines.append("task: %s" % task)
        lines.append("field: %s" % self.field)
        win = " ".join("%s=%s" % (k, v) for k, v in sorted(self.window.items()))
        lines.append("window: %s" % win)
        if self.entries:
            lines.append("")
            header = "%-4s %-8s %-7s %-6s %s" % ("p", "object", "degree", "dim", "certified")
            lines.append(header)
            lines.append("-" * len(header))
            for e in sorted(self.entries, key=ReportEntry.sort_key):
                lines.append("%-4s %-8s %-7d %-6d %s"
                             % ("-" if e.p is None else e.p, e.obj, e.degree, e.dim,
                                "yes" if e.certified else "no"))
        if self.certificates:
            lines.append("")
            for c in self.certificates:
                status = "PASS" if c.passed else "FAIL"
                entry = "certificate %-28s %s" % (c.name + ":", status)
                if c.detail:
                    entry += "  (%s)" % c.detail
                lines.append(entry)
                if c.witness is not None and not c.passed:
                    lines.append("  witness: %s" % json.dumps(c.witness, sort_keys=True))
        return "\n".join(lines)
