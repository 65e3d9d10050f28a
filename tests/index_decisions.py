"""Index-decision gate for refactors of the index layer: log every decision.

    PYTHONPATH=src python tests/index_decisions.py OUT [--seeds A B ...]

replays the `all` config and, for each benchmark pool seed (all of
`bench/workloads.POOL` by default, or the listed ones), the configs of
every benchmark workload through `cli.parse_config` -> `cli.run`.  Every
call of `dirac1d._index_dims` (the choice between the certified transfer
route and the dense SVD) writes one tab-separated line to OUT:

    config  path-name  rows x cols  lam  dim_ker  dim_coker  route

where route is "transfer", "svd", or "raise:<exception>" when the call
raised.  The last line counts the decisions and the dense ones.  Run it
once on the parent commit and once on the change, each from its own
checkout, then compare with

    diff OUT_PARENT OUT_CHANGE

A change that claims identical index decisions leaves that diff empty.
The script is not a test module (pytest does not collect it), and it only
reads `bench/workloads.py`.  The full pool takes about a minute on a
2-vCPU host.
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import POOL, WORKLOADS, configs  # noqa: E402

from diracflow import cli, dirac1d  # noqa: E402


def replay(out, seeds):
    index_dims = dirac1d._index_dims
    lines, routes = [], Counter()
    label = ""

    def logged(op):
        rows, cols = op.shape
        head = f"{label}\t{op.path.name}\t{rows}x{cols}\t{op.lam!r}"
        try:
            dims = index_dims(op)
        except Exception as exc:
            lines.append(f"{head}\t-\t-\traise:{type(exc).__name__}")
            routes["raise"] += 1
            raise
        lines.append(f"{head}\t{dims[0]}\t{dims[1]}\t{dims[-1]}")
        routes[dims[-1]] += 1
        return dims

    runs = [("all", '{"scenario": "all"}')]
    for seed in seeds:
        for workload in WORKLOADS:
            for text in configs(workload, seed):
                runs.append((f"{workload}@{seed}:{json.loads(text)['scenario']}", text))
    dirac1d._index_dims = logged
    try:
        for label, text in runs:
            cli.run(cli.parse_config(text))
    finally:
        dirac1d._index_dims = index_dims
    lines.append(f"# {len(lines)} decisions, {routes['svd']} dense, "
                 f"{routes['raise']} raised")
    Path(out).write_text("\n".join(lines) + "\n")
    print(lines[-1])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(POOL))
    args = parser.parse_args()
    replay(args.out, args.seeds)
