"""Byte oracle for refactors: write the reports of a fixed set of configs.

    PYTHONPATH=src python tests/report_oracle.py OUT

runs each config below through `cli.parse_config` -> `cli.run` ->
`reporting.emit` and writes OUT/<name>/report.csv, report.json and the
gnuplot branch table report.dat (which is where the `potential` of an sf
config shows).  Run it once on the parent commit and once on the change,
each from its own checkout, then compare the two trees with

    diff -r OUT_PARENT OUT_CHANGE

A refactor that claims byte-identical reports leaves that diff empty.  The
comparison is made by hand: the script is not a test module (pytest does
not collect it).  CI runs it twice, into two directories, and compares
the two trees with `diff -r`: every config keeps running to its reports,
and the reports are byte-stable from run to run, as `cli` promises.  A
full run takes about 12 s on a 2-vCPU host.

The `file` potential reads a table that the script writes first into
OUT/sf-file/potential.tab, from a fixed formula and seed, with every
number in repr form so the table is the same on every run.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np

from diracflow import cli
from diracflow.reporting import emit

CONFIGS = {
    "all": {"scenario": "all"},
    "all-base3": {"scenario": "all", "seeds": {"base": 3, "count": 8}},
    "all-base57-bumps30": {"scenario": "all", "seeds": {"base": 57, "count": 8},
                           "params": {"bumps": 30}},
    "all-dims-8-16": {"scenario": "all", "params": {"dims": [8, 16], "trials": 20}},
    "callias-24": {"scenario": "callias", "seeds": {"base": 0, "count": 24}},
    "cutpaste-12-k5": {"scenario": "cutpaste", "seeds": {"base": 0, "count": 12},
                       "params": {"pairs": 12, "k_max": 5}},
    "index1d-bumps40-auto": {"scenario": "index1d", "coupling": "auto-lambda0",
                             "params": {"bumps": 40}},
    "tower-seed5": {"scenario": "tower", "seeds": {"base": 5, "count": 1}},
    "appendix-300": {"scenario": "appendix", "params": {"trials": 300}},
    "sf-30": {"scenario": "sf", "seeds": {"base": 0, "count": 30}},
    "sf-diag-list": {"scenario": "sf", "seeds": {"base": 0, "count": 2},
                     "potential": {"kind": "diag-list", "entries": [1.0, -0.5, 2.0],
                                   "n_samples": 121}},
    "sf-file": {"scenario": "sf", "seeds": {"base": 0, "count": 2},
                "potential": {"kind": "file"}},
}


def write_table(path: Path, k=3, n=41):
    """A tabulated potential on [-1, 1] from diag(2, 1, 3) to diag(-2, -1, 3),
    with a seeded Hermitian coupling that vanishes at both ends."""
    rng = np.random.default_rng(11)
    c = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    c = (c + c.conj().T) / 4.0
    lines = [f"{k} {n}"]
    for t in np.linspace(-1.0, 1.0, n):
        m = np.diag([-2.0 * t, 1.0 - 2.0 * (t > 0) * t, 3.0]) + np.sin(np.pi * t) ** 2 * c
        lines.append(" ".join([repr(float(t))] + [f"{float(z.real)!r},{float(z.imag)!r}"
                                                  for z in m.reshape(-1)]))
    path.write_text("\n".join(lines) + "\n")


def main(out):
    out = Path(out).resolve()
    for name, config in CONFIGS.items():
        target = out / name
        target.mkdir(parents=True, exist_ok=True)
        if config.get("potential", {}).get("kind") == "file":
            # a relative path, so the config (and its digest in report.json)
            # does not depend on OUT
            write_table(target / "potential.tab")
            config = dict(config, potential={"kind": "file", "path": "potential.tab"})
        cwd = os.getcwd()
        os.chdir(target)
        try:
            report = cli.run(cli.parse_config(json.dumps(config)))
        finally:
            os.chdir(cwd)
        emit(report, target, ("csv", "json", "gnuplot"))
        print(f"{name}: {len(report.records)} checks, {report.n_failed()} failed, "
              f"{report.n_skipped()} skipped")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: report_oracle.py OUT")
    main(sys.argv[1])
