"""Bitwise gate for the per-sample linear algebra: digest its every result.

    PYTHONPATH=src python tests/linalg_digest.py OUT [--seeds A B ...]

replays the `all` config and, for each benchmark pool seed (all of
`bench/workloads.POOL` by default, or the listed ones), the configs of
every benchmark workload through `cli.parse_config` -> `cli.run`.  Every
grid pass (`specflow.PotentialPath._grid_pass`) and every Cayley transfer
(`dirac1d._transfer_kernel`) writes one tab-separated line to OUT:

    config  layer  path-name  k  n  sha256

where layer is "grid" (n grid samples; the digest covers the spectra,
vectors and steps) or "transfer" (n cells; the digest covers dim ker and
the gap ratio), and the digest is "raise:<exception>" when the call
raised.  The last line counts the lines of each layer.  Run it once on the
parent commit and once on the change, each from its own checkout, then
compare with

    diff OUT_PARENT OUT_CHANGE

A change that claims bitwise-equal results in these layers leaves that
diff empty.  The script is not a test module (pytest does not collect it),
and it only reads `bench/workloads.py`.  One seed takes about 10 s on a
2-vCPU host.
"""

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import POOL, WORKLOADS, configs  # noqa: E402

from diracflow import cli, dirac1d, specflow  # noqa: E402


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def replay(out, seeds):
    grid_pass = specflow.PotentialPath._grid_pass
    transfer_kernel = dirac1d._transfer_kernel
    lines, layers = [], Counter()
    label = ""

    def logged(layer, path, n, call, arrays):
        head = f"{label}\t{layer}\t{path.name}\t{path.k}\t{n}"
        layers[layer] += 1
        try:
            result = call()
        except Exception as exc:
            lines.append(f"{head}\traise:{type(exc).__name__}")
            raise
        lines.append(f"{head}\t{_digest(arrays(result))}")
        return result

    def grid(path):
        return logged("grid", path, path.grid.size, lambda: grid_pass(path),
                      lambda result: result)

    def transfer(op):
        return logged("transfer", op.path, op.grid.n_cells, lambda: transfer_kernel(op),
                      lambda result: [np.array(result, dtype=float)])

    runs = [("all", '{"scenario": "all"}')]
    for seed in seeds:
        for workload in WORKLOADS:
            for text in configs(workload, seed):
                runs.append((f"{workload}@{seed}:{json.loads(text)['scenario']}", text))
    specflow.PotentialPath._grid_pass = grid
    dirac1d._transfer_kernel = transfer
    try:
        for label, text in runs:
            cli.run(cli.parse_config(text))
    finally:
        specflow.PotentialPath._grid_pass = grid_pass
        dirac1d._transfer_kernel = transfer_kernel
    lines.append(f"# {layers['grid']} grid passes, {layers['transfer']} transfer kernels")
    Path(out).write_text("\n".join(lines) + "\n")
    print(lines[-1])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(POOL))
    args = parser.parse_args()
    replay(args.out, args.seeds)
