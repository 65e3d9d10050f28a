"""Bitwise gate for the per-sample linear algebra: digest its every result.

    PYTHONPATH=src python tests/linalg_digest.py OUT [--seeds A B ...]

replays the `all` config and, for each benchmark pool seed (all of
`bench/workloads.POOL` by default, or the listed ones), the configs of
every benchmark workload through `cli.parse_config` -> `cli.run`.  Every
grid pass (`specflow.PotentialPath._grid_pass`), every Cayley transfer
(`dirac1d._transfer_kernel`), every Sturm count (`dirac1d._sturm_counts`)
and every lower-bound check (`dirac1d.fredholm_bounds`) writes one
tab-separated line to OUT:

    config  layer  path-name  k  n  result

where layer is "grid" (n grid samples; the result is the SHA-256 of the
spectra, vectors and steps), "transfer" (n cells; the SHA-256 of dim ker
and the gap ratio), "sturm" (n blocks of DD*, k x k each, for the path
of the transfer before it; the result is the counts at the two levels,
space-separated) or "lower" (n is the shape m x m of the Dirichlet
matrix; the result is min_eig and epsilon at %.12g, space-separated), and
the result is "raise:<exception>" when the call raised.  The last line
counts the lines of each layer.  Run it once on the parent commit and once
on the change, each from its own checkout, then compare with

    diff OUT_PARENT OUT_CHANGE

A change that claims bitwise-equal results in these layers (the lower
bounds to 12 digits) leaves that diff empty.  The script is not a test
module (pytest does not collect it), and it only reads
`bench/workloads.py`.  One seed takes about 10 s on a 2-vCPU host.
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
    sturm_counts = dirac1d._sturm_counts
    fredholm_bounds = dirac1d.fredholm_bounds
    lines, layers = [], Counter()
    label = ""
    # _transfer_dims runs the transfer kernel of a path before its counts
    last = {"path": None}

    def logged(layer, name, k, n, call, text):
        head = f"{label}\t{layer}\t{name}\t{k}\t{n}"
        layers[layer] += 1
        try:
            result = call()
        except Exception as exc:
            lines.append(f"{head}\traise:{type(exc).__name__}")
            raise
        lines.append(f"{head}\t{text(result)}")
        return result

    def grid(path):
        return logged("grid", path.name, path.k, path.grid.size, lambda: grid_pass(path),
                      _digest)

    def transfer(op):
        last["path"] = op.path
        return logged("transfer", op.path.name, op.path.k, op.grid.n_cells,
                      lambda: transfer_kernel(op),
                      lambda result: _digest([np.array(result, dtype=float)]))

    def sturm(gram, coupling, levels, scale):
        return logged("sturm", last["path"].name, gram.shape[1], gram.shape[0],
                      lambda: sturm_counts(gram, coupling, levels, scale),
                      lambda counts: " ".join(map(str, counts.tolist())))

    def lower(path, lam, grid=None, k_hat=None):
        # the grid pass that resolves an automatic grid is cached on the path
        m = (dirac1d._resolve_grid(grid, path).n_cells - 1) * path.k
        return logged("lower", path.name, path.k, f"{m}x{m}",
                      lambda: fredholm_bounds(path, lam, grid, k_hat),
                      lambda rep: f"{rep.min_eig:.12g} {rep.epsilon:.12g}")

    runs = [("all", '{"scenario": "all"}')]
    for seed in seeds:
        for workload in WORKLOADS:
            for text in configs(workload, seed):
                runs.append((f"{workload}@{seed}:{json.loads(text)['scenario']}", text))
    specflow.PotentialPath._grid_pass = grid
    dirac1d._transfer_kernel = transfer
    dirac1d._sturm_counts = sturm
    dirac1d.fredholm_bounds = lower
    try:
        for label, text in runs:
            cli.run(cli.parse_config(text))
    finally:
        specflow.PotentialPath._grid_pass = grid_pass
        dirac1d._transfer_kernel = transfer_kernel
        dirac1d._sturm_counts = sturm_counts
        dirac1d.fredholm_bounds = fredholm_bounds
    lines.append(f"# {layers['grid']} grid passes, {layers['transfer']} transfer kernels, "
                 f"{layers['sturm']} Sturm counts, {layers['lower']} lower bounds")
    Path(out).write_text("\n".join(lines) + "\n")
    print(lines[-1])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(POOL))
    args = parser.parse_args()
    replay(args.out, args.seeds)
