"""Behaviour oracle: every check of the `all` scenario keeps its name,
outcome and integer sides.

tests/data/all_checks.json holds, per check, [name, outcome, lhs, rhs] with
each side reduced to its integer content (None where it holds a float:
floats move with BLAS call order and are not compared).  Re-record it with

    PYTHONPATH=src python tests/test_oracle_all.py

only on a commit whose checks are known to be right.
"""

import json
import sys
from pathlib import Path

import numpy as np

from diracflow import cli

DATA = Path(__file__).resolve().parent / "data" / "all_checks.json"


def integers(value):
    """The integer content of a check side, or None if it holds a float."""
    if isinstance(value, (bool, np.bool_)):
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (tuple, list)):
        items = [integers(v) for v in value]
        return None if any(i is None for i in items) else items
    return None


def checks_of_all():
    report = cli.run(cli.parse_config('{"scenario": "all"}'))
    return [[rec.name, rec.outcome, integers(rec.lhs), integers(rec.rhs)]
            for rec in report.records]


def test_all_scenario_matches_recording():
    expected = json.loads(DATA.read_text())
    got = checks_of_all()
    assert [c[0] for c in got] == [c[0] for c in expected]
    for g, e in zip(got, expected):
        assert g == e


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    checks = checks_of_all()
    bad = [c for c in checks if c[1] != "true"]
    if bad:
        sys.exit(f"not recorded, checks do not pass: {bad}")
    DATA.write_text("[\n" + ",\n".join(" " + json.dumps(c) for c in checks) + "\n]\n")
