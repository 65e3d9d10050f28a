"""Batch entry point: exit codes, byte-stable reports, and check records
that keep their name and anchor when a check is skipped or fails."""

import json
import math
import warnings

import pytest

from diracflow import cli, relindex, reporting
from diracflow.errors import ConfigError, HypothesisUnmet, InvalidInput, TheoremViolation
from diracflow.reporting import CheckRecord

SMALL = {"scenario": "relind", "seeds": [1], "params": {"trials": 4, "dim": 4}}
# floats in lhs/rhs/residual, so byte stability is not trivial
WITH_FLOATS = {"scenario": "appendix", "seeds": [2],
               "params": {"trials": 3, "a4_eps": [0.1], "quad_nodes": 64}}


def run_main(tmp_path, config, out="out"):
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    return cli.main(["run", "--config", str(path), "--out", str(tmp_path / out)])


def records_of(config):
    return cli.run(cli.parse_config(json.dumps(config))).records


# Configs that parse_config must reject, each with the field its
# ConfigError names, by test id.  The ids are explicit, so deleting a row
# renames no other case; the rows here keep the positional ids that pytest
# gave them before.
MALFORMED = {
    "config0-seeds": (dict(SMALL, seeds=["a"]), "seeds"),
    "config1-seeds": (dict(SMALL, seeds=[]), "seeds"),
    "config2-seeds.base": (dict(SMALL, seeds={"base": 1.5}), "seeds.base"),
    "config3-seeds.count": (dict(SMALL, seeds={"base": 0, "count": "x"}), "seeds.count"),
    # the thresholds are module constants, not configuration
    "config4-tolerances": (dict(SMALL, tolerances={"eig_tol": 1e-10}), "tolerances"),
    "config5-params.trials": (dict(SMALL, params={"trials": "x"}), "params.trials"),
    "config6-potential.k": (dict(SMALL, potential={"kind": "tanh", "k": "two"}), "potential.k"),
    "config7-params.dims": ({"scenario": "tower", "params": {"dims": 16}}, "params.dims"),
    "config8-params.dims": ({"scenario": "tower", "params": {"dims": [16, 32.5]}}, "params.dims"),
    "config9-params.lams":
        ({"scenario": "index1d", "params": {"lams": [1.0, "a"]}},
         "params.lams"),
    "config10-potential.path": (dict(SMALL, potential={"kind": "file"}), "potential.path"),
    "config11-potential.kind": (dict(SMALL, potential={"kind": ["tanh"]}), "potential.kind"),
    "config12-scenario": (dict(SMALL, scenario=["relind"]), "scenario"),
    # valid types out of range
    "config13-params.dims": ({"scenario": "tower", "params": {"dims": []}}, "params.dims"),
    "config14-potential.k":
        ({"scenario": "sf", "potential": {"kind": "tanh", "k": 0}},
         "potential.k"),
    "config15-potential.entries":
        ({"scenario": "sf", "potential": {"kind": "diag-list", "entries": [0]}},
         "potential.entries"),
    "config16-params.trials":
        ({"scenario": "relind", "params": {"trials": -1, "dim": 0}},
         "params.trials"),
    "config17-params.bumps": ({"scenario": "index1d", "params": {"bumps": -2}}, "params.bumps"),
    # a float key that must be positive
    "config18-potential.scale":
        ({"scenario": "sf", "potential": {"kind": "tanh", "scale": 0}},
         "potential.scale"),
    "config19-potential.scale":
        ({"scenario": "sf", "potential": {"kind": "tanh", "scale": -1}},
         "potential.scale"),
    "config20-params.lams": ({"scenario": "index1d", "params": {"lams": [0]}}, "params.lams"),
    "config21-params.a4_eps":
        ({"scenario": "appendix", "params": {"a4_eps": [0]}},
         "params.a4_eps"),
    # seeds below numpy's range, NaN and Infinity (which Python's json
    # reads), and output values of the wrong type
    "config22-seeds": ({"scenario": "sf", "seeds": [-1]}, "seeds"),
    "config23-seeds.base": ({"scenario": "sf", "seeds": {"base": -5, "count": 1}}, "seeds.base"),
    "config24-potential.seed":
        ({"scenario": "sf", "potential": {"kind": "seeded-random", "seed": -1}},
         "potential.seed"),
    "config25-coupling": (dict(SMALL, coupling=math.nan), "coupling"),
    "config26-potential.scale":
        ({"scenario": "sf", "potential": {"kind": "tanh", "scale": math.nan}},
         "potential.scale"),
    "config27-coupling": (dict(SMALL, coupling=math.inf), "coupling"),
    "config28-output.emit_timings":
        (dict(SMALL, output={"emit_timings": "false"}),
         "output.emit_timings"),
    "config29-output.dir": (dict(SMALL, output={"dir": ["x"]}), "output.dir"),
    # a pair or case count above the seed count (8 by default)
    "config30-params.pairs": ({"scenario": "cutpaste", "params": {"pairs": 12}}, "params.pairs"),
    "config31-params.cases": ({"scenario": "callias", "params": {"cases": 10}}, "params.cases"),
    "config32-params.cases":
        ({"scenario": "all", "seeds": [0, 1], "params": {"cases": 3}},
         "params.cases"),
    # tower dims that show no decay: fewer than two, or not increasing
    "config33-params.dims": ({"scenario": "all", "params": {"dims": [32, 16]}}, "params.dims"),
    "config34-params.dims": ({"scenario": "tower", "params": {"dims": [16]}}, "params.dims"),
    "config35-params.dims":
        ({"scenario": "appendix", "params": {"dims": [16, 16]}},
         "params.dims"),
}


class TestExitCodes:
    def test_passing_config_exits_0(self, tmp_path):
        assert run_main(tmp_path, SMALL) == 0
        assert (tmp_path / "out" / "report.csv").is_file()
        assert (tmp_path / "out" / "report.json").is_file()

    @pytest.mark.parametrize("text", [
        '{"scenario": "relind",',
        '["relind"]',
        '{"scenario": "relind", "colour": "blue"}',
        '{"scenario": "relind", "params": {"trials": 4, "depth": 2}}',
        '{"scenario": "nope"}',
    ])
    def test_invalid_config_exits_2(self, tmp_path, text, capsys):
        assert run_main(tmp_path, text) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", ["auto", {"length": 8.0, "n_cells": 160}],
                             ids=["auto", "grid1"])
    def test_grid_key_is_unknown(self, tmp_path, grid, capsys):
        config = dict(SMALL, grid=grid)
        with pytest.raises(ConfigError) as info:
            cli.parse_config(json.dumps(config))
        assert info.value.field == "grid"
        assert run_main(tmp_path, config) == 2
        assert "(field: grid)" in capsys.readouterr().err

    @pytest.mark.parametrize("config, field", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_value_names_its_field(self, tmp_path, config, field, capsys):
        with pytest.raises(ConfigError) as info:
            cli.parse_config(json.dumps(config))
        assert info.value.field == field
        assert run_main(tmp_path, config) == 2
        assert f"(field: {field})" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_option_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SMALL))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--seed", "-1"]) == 2
        assert "(field: --seed)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_table_of_fiber_dimension_0_exits_2(self, tmp_path, capsys):
        # the header "0 3": three samples of 0 x 0 matrices
        (tmp_path / "zero.tab").write_text("0 3\n-1.0\n0.0\n1.0\n")
        config = {"scenario": "sf", "seeds": [0],
                  "potential": {"kind": "file", "path": str(tmp_path / "zero.tab")}}
        with pytest.raises(InvalidInput, match="fiber dimension"):
            cli.build_potential(cli.parse_config(json.dumps(config)))
        assert run_main(tmp_path, config) == 2
        assert "error: fiber dimension must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_table_with_extra_samples_exits_2(self, tmp_path, capsys):
        # the header "1 3" and five sample lines
        (tmp_path / "long.tab").write_text(
            "1 3\n" + "".join(f"{t:.1f} {t:.1f},0\n" for t in (-1.0, -0.5, 0.0, 0.5, 1.0)))
        config = {"scenario": "sf", "seeds": [0],
                  "potential": {"kind": "file", "path": str(tmp_path / "long.tab")}}
        with pytest.raises(InvalidInput, match="expected 3 samples, found 5"):
            cli.build_potential(cli.parse_config(json.dumps(config)))
        assert run_main(tmp_path, config) == 2
        assert "expected 3 samples, found 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_table_without_samples_exits_2(self, tmp_path, capsys):
        # the header "1 0" and no sample line
        (tmp_path / "empty.tab").write_text("1 0\n")
        config = {"scenario": "sf", "seeds": [0],
                  "potential": {"kind": "file", "path": str(tmp_path / "empty.tab")}}
        with pytest.raises(InvalidInput, match="corrupted potential table .*: no samples"):
            cli.build_potential(cli.parse_config(json.dumps(config)))
        assert run_main(tmp_path, config) == 2
        assert "no samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_table_with_a_non_finite_entry_exits_2_before_any_check(
            self, tmp_path, capsys, monkeypatch):
        # the header "1 3"; the sample at t = 0 is NaN, and interpolation
        # would carry it to t = -1
        (tmp_path / "nan.tab").write_text("1 3\n-1.0 1.0,0\n0.0 nan,0\n1.0 -1.0,0\n")
        called = []
        monkeypatch.setattr(cli, "_RUNNERS", {
            name: (lambda cfg, name=name: called.append(name) or []) for name in cli._RUNNERS})
        config = {"scenario": "all",
                  "potential": {"kind": "file", "path": str(tmp_path / "nan.tab")}}
        assert run_main(tmp_path, config) == 2
        assert "path sample at t=0 has non-finite entries" in capsys.readouterr().err
        assert called == []
        assert not (tmp_path / "out").exists()

    def test_table_with_an_infinite_t_exits_2_naming_the_grid(
            self, tmp_path, capsys, monkeypatch):
        # the header "1 3"; every matrix is finite, the last t is not
        (tmp_path / "inf.tab").write_text("1 3\n0.0 1.0,0\n1.0 -1.0,0\ninf -1.0,0\n")
        called = []
        monkeypatch.setattr(cli, "_RUNNERS", {
            name: (lambda cfg, name=name: called.append(name) or []) for name in cli._RUNNERS})
        config = {"scenario": "all",
                  "potential": {"kind": "file", "path": str(tmp_path / "inf.tab")}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_main(tmp_path, config) == 2
        assert "error: grid must be finite, got t=inf" in capsys.readouterr().err
        assert called == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("formats", ["xml", "csv,xml"])
    def test_unknown_format_exits_2_and_writes_nothing(self, tmp_path, formats, capsys,
                                                       monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: ran.append(args))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SMALL))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--format", formats]) == 2
        assert "error: unknown format 'xml'" in capsys.readouterr().err
        assert not ran and not (tmp_path / "out").exists()

    def test_emit_checks_every_format_first(self, tmp_path):
        report = cli.run(cli.parse_config(json.dumps(SMALL)))
        with pytest.raises(InvalidInput, match="unknown format 'xml'"):
            reporting.emit(report, tmp_path / "out", ("csv", "xml"))
        assert not (tmp_path / "out").exists()

    def test_failing_record_exits_1(self, tmp_path, monkeypatch):
        failing = CheckRecord(name="forced", anchor="a failing record",
                              lhs=1, rhs=2, passed=False)
        monkeypatch.setitem(cli._RUNNERS, "relind", lambda cfg: [failing])
        assert run_main(tmp_path, SMALL) == 1
        assert '"pass": "false"' in (tmp_path / "out" / "report.json").read_text()


def test_params_reach_the_runners_typed():
    cfg = cli.parse_config(json.dumps(
        {"scenario": "all", "params": {"trials": 3, "lams": [2, 3.5], "dims": [8, 16]},
         "potential": {"kind": "diag-list", "entries": [1, -2]}}))
    assert cfg.params == {"trials": 3, "lams": (2.0, 3.5), "dims": (8, 16)}
    assert cfg.potential == {"kind": "diag-list", "entries": (1.0, -2.0)}
    assert all(type(x) is float for x in cfg.params["lams"] + cfg.potential["entries"])
    # the digest reads the configuration as written
    assert cfg.raw["params"]["lams"] == [2, 3.5]


def test_small_tower_dims_pass_every_check(tmp_path):
    # the dims that test_params_reach_the_runners_typed parses: every tower
    # consumer judges tail decay, not a bound the top dimension must reach
    config = {"scenario": "all", "params": {"dims": [8, 16], "trials": 5}}
    assert run_main(tmp_path, config) == 0
    checks = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(checks) == 44
    assert {check["pass"] for check in checks} == {"true"}


def test_cutpaste_pair_across_an_avoided_crossing_passes():
    # collar_pair(1718458259, 5): the grid match of collar-0 and of its
    # cut-paste product pairs eigenvalues across an avoided crossing
    records = records_of({"scenario": "cutpaste",
                          "seeds": {"base": 1718458259, "count": 1},
                          "params": {"pairs": 1, "k_max": 5}})
    assert [rec.outcome for rec in records] == ["true"] * len(records) and records


def test_rerun_is_byte_identical(tmp_path):
    assert run_main(tmp_path, WITH_FLOATS, out="first") == 0
    assert run_main(tmp_path, WITH_FLOATS, out="second") == 0
    for name in ("report.csv", "report.json"):
        first = (tmp_path / "first" / name).read_bytes()
        assert first == (tmp_path / "second" / name).read_bytes()
    assert b"quadrature[64]" in first


@pytest.mark.parametrize("exc, outcome", [(HypothesisUnmet, "skip"),
                                          (TheoremViolation, "false")])
def test_skip_and_fail_keep_name_and_anchor(monkeypatch, exc, outcome):
    passing = records_of(SMALL)

    def broken(*args, **kwargs):
        raise exc("forced")

    for name in ("check_additivity", "homotopy_constancy", "rel_index_restricted"):
        monkeypatch.setattr(relindex, name, broken)
    guarded = records_of(SMALL)
    assert [r.outcome for r in passing] == ["true"] * 3
    assert [r.outcome for r in guarded] == [outcome] * 3
    assert [(r.name, r.anchor) for r in guarded] == \
        [(r.name, r.anchor) for r in passing]
    assert passing[0].name == "additivity[4]"
