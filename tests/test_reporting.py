"""Report emission: CSV quoting, value formatting, the timing column, the
gnuplot data file and the inputs digest."""

import csv
import json

import pytest

from diracflow.reporting import CheckRecord, RunReport, digest_of, emit, format_value


def report(*records, branch_data=None):
    return RunReport(records=list(records), inputs_digest="0123456789abcdef",
                     branch_data=branch_data)


def record(**kwargs):
    fields = dict(name="check", anchor="an anchor", lhs=1, rhs=1, passed=True)
    fields.update(kwargs)
    return CheckRecord(**fields)


class TestCsv:
    def test_anchor_with_comma_or_quote_is_quoted(self, tmp_path):
        anchors = ['index, kernel and cokernel', 'the "doubled" square', "plain"]
        emit(report(*(record(anchor=a) for a in anchors)), tmp_path, ("csv",))
        text = (tmp_path / "report.csv").read_text()
        lines = text.splitlines()
        assert lines[1].startswith('check,"index, kernel and cokernel",')
        assert lines[2].startswith('check,"the ""doubled"" square",')
        assert lines[3].startswith("check,plain,")
        rows = list(csv.DictReader(text.splitlines()))
        assert [r["paper_anchor"] for r in rows] == anchors

    def test_header_and_outcomes(self, tmp_path):
        emit(report(record(passed=True), record(passed=False),
                    record(passed=None, lhs="skipped", rhs="HypothesisUnmet")),
             tmp_path, ("csv",))
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "check_name,paper_anchor,lhs,rhs,pass,residual,seconds"
        assert [ln.split(",")[4] for ln in lines[1:]] == ["true", "false", "skip"]


class TestFormatValue:
    @pytest.mark.parametrize("value, text", [
        (True, "true"),
        (False, "false"),
        ((1, (2, -3), [True, 0.5]), "(1 (2 -3) (true 0.5))"),
        (1.0 / 3.0, "0.333333333333"),
        (1e-300, "1e-300"),
        (2.0, "2"),
        (7, "7"),
        ("skipped", "skipped"),
    ])
    def test_rule(self, value, text):
        assert format_value(value) == text

    def test_float_keeps_twelve_significant_digits(self):
        assert format_value(123456.7890123456) == "%.12g" % 123456.7890123456 == "123456.789012"


class TestSeconds:
    @pytest.mark.parametrize("emit_timings, written", [(False, "0.000"), (True, "1.235")])
    def test_seconds_column(self, tmp_path, emit_timings, written):
        rec = record(residual=0.25)
        rec.seconds = 1.23456
        emit(report(rec), tmp_path, ("csv", "json"), emit_timings=emit_timings)
        row = (tmp_path / "report.csv").read_text().splitlines()[1].split(",")
        assert row[5:] == ["0.25", written]
        (payload,) = json.loads((tmp_path / "report.json").read_text())
        assert payload["seconds"] == written
        assert payload["inputs_digest"] == "0123456789abcdef"
        # the measured time stays on the record
        assert rec.seconds == 1.23456


class TestGnuplot:
    def test_with_branch_data(self, tmp_path):
        data = {"t": [0.0, 0.5, 1.0], "branches": [[-1.0, 0.0, 1.0], [2.0, 1.0 / 3.0, 2.0]]}
        (path,) = emit(report(record(), branch_data=data), tmp_path, ("gnuplot",))
        assert path.endswith("report.dat")
        assert (tmp_path / "report.dat").read_text() == (
            "# t lambda_1 lambda_2\n"
            "0 -1 2\n"
            "0.5 0 0.333333333333\n"
            "1 1 2\n")

    def test_without_branch_data(self, tmp_path):
        emit(report(record()), tmp_path, ("gnuplot",))
        assert (tmp_path / "report.dat").read_text() == "# t\n"


class TestDigest:
    def test_key_order_does_not_matter(self):
        a = {"config": {"scenario": "sf", "params": {"k": 2, "n_samples": 8}}, "seeds": [1, 2]}
        b = {"seeds": [1, 2], "config": {"params": {"n_samples": 8, "k": 2}, "scenario": "sf"}}
        assert digest_of(a) == digest_of(b)
        assert len(digest_of(a)) == 16

    def test_values_do_matter(self):
        assert digest_of({"seeds": [1, 2]}) != digest_of({"seeds": [2, 1]})
