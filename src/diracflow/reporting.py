"""Check records and report emission (CSV, JSON, gnuplot data).

Emitted files are byte-stable across runs with identical configuration:
all numbers are formatted with a fixed rule and the wall-time column is
written as 0.000 unless timings are explicitly requested (measured times
stay available on the in-memory records).
"""

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .errors import InvalidInput

__all__ = ["CheckRecord", "RunReport", "check_formats", "digest_of", "emit",
           "format_value"]

FORMATS = ("csv", "json", "gnuplot")

CSV_COLUMNS = ("check_name", "paper_anchor", "lhs", "rhs", "pass",
               "residual", "seconds")


@dataclass
class CheckRecord:
    """One verified claim: what was checked, the two sides, and how far
    apart they were.  ``passed`` is None for precondition skips."""

    name: str
    anchor: str
    lhs: object
    rhs: object
    passed: Optional[bool]
    residual: float = 0.0
    seconds: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def outcome(self) -> str:
        if self.passed is None:
            return "skip"
        return "true" if self.passed else "false"


@dataclass
class RunReport:
    records: list
    inputs_digest: str
    branch_data: Optional[dict] = None   # {"t": [...], "branches": [[...], ...]}

    def n_failed(self) -> int:
        return sum(1 for r in self.records if r.passed is False)

    def n_skipped(self) -> int:
        return sum(1 for r in self.records if r.passed is None)


def digest_of(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return "(" + " ".join(format_value(x) for x in v) + ")"
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _record_row(rec: CheckRecord, emit_timings: bool):
    seconds = rec.seconds if emit_timings else 0.0
    return {
        "check_name": rec.name,
        "paper_anchor": rec.anchor,
        "lhs": format_value(rec.lhs),
        "rhs": format_value(rec.rhs),
        "pass": rec.outcome,
        "residual": "%.12g" % rec.residual,
        "seconds": "%.3f" % seconds,
    }


def check_formats(formats) -> tuple:
    """The report formats as a tuple; InvalidInput names the first one that
    is not in FORMATS."""
    formats = tuple(formats)
    for fmt in formats:
        if fmt not in FORMATS:
            raise InvalidInput(f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}")
    return formats


def emit(report: RunReport, out_dir, formats=("csv", "json"),
         emit_timings: bool = False):
    """Write the requested formats into ``out_dir`` as report.csv,
    report.json and report.dat, after checking them all (`check_formats`),
    so an unknown one writes nothing; returns the paths."""
    formats = check_formats(formats)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    rows = [_record_row(r, emit_timings) for r in report.records]
    for fmt in formats:
        if fmt == "csv":
            path = os.path.join(out_dir, "report.csv")
            lines = [",".join(CSV_COLUMNS)]
            for row in rows:
                lines.append(",".join(
                    '"%s"' % row[c].replace('"', '""') if ("," in row[c] or '"' in row[c])
                    else row[c] for c in CSV_COLUMNS))
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        elif fmt == "json":
            path = os.path.join(out_dir, "report.json")
            payload = [dict(row, inputs_digest=report.inputs_digest)
                       for row in rows]
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
        else:
            path = os.path.join(out_dir, "report.dat")
            with open(path, "w") as fh:
                if report.branch_data:
                    ts = report.branch_data["t"]
                    branches = report.branch_data["branches"]
                    fh.write("# t " + " ".join(
                        f"lambda_{i + 1}" for i in range(len(branches))) + "\n")
                    for j, t in enumerate(ts):
                        fh.write(" ".join(["%.12g" % t] +
                                          ["%.12g" % b[j] for b in branches]) + "\n")
                else:
                    fh.write("# t\n")
        written.append(path)
    return written
