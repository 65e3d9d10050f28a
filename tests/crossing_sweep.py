"""Crossing gate for changes to branch tracking: log every path's flow.

    PYTHONPATH=src python tests/crossing_sweep.py OUT

runs `specflow.endpoint_identity` on 1200 seeded paths:

    sf       random_smooth_path(s, 1 + (s + 4) % 8, n_samples=64), s < 300
             (the sf scenario's paths at its default k = 4)
    collar   collar_pair(s, 1 + s % 5): m1, m2 and both `surgery.cut_paste`
             products, s < 200
    chain    chain_path(s, 6, n_intervals=3), s < 100

and writes one tab-separated line per path to OUT:

    path  crossings partition rel_index  n_crossings  n_samples  crossings

where crossings lists the (t, branch, slope_sign, depth) of each
`Crossing`, or one line `path  raise:<exception>` when the identity
raised.  The last line counts the paths and the off-grid
`specflow._decompose` calls, the refined samples that branch tracking
takes between grid points.  Run it once on the parent commit and once on
the change, each from its own checkout, then check the gate with

    PYTHONPATH=src python tests/crossing_sweep.py --compare OUT_PARENT OUT_CHANGE

A change to the tracker keeps the three integers and the crossing count of
every path and adds no `raise:` line; `--compare` fails (exit 1) naming
each path that breaks this, names each path that raised on the parent
only, and prints how many paths' sample counts or crossing tuples moved,
which `diff OUT_PARENT OUT_CHANGE` shows in full.
The script is not a test module (pytest does not collect it).  A full run
takes about 10 s on a 2-vCPU host.
"""

import argparse
import sys
from pathlib import Path

from diracflow import scenarios, specflow, surgery


def paths():
    """(label, path) for every path of the sweep, in a fixed order."""
    for s in range(300):
        k = 1 + (s + 4) % 8
        yield f"sf({s}, k={k})", specflow.random_smooth_path(s, k, n_samples=64)
    for s in range(200):
        m1, m2, t_cut = scenarios.collar_pair(s, 1 + s % 5)
        m3, m4 = surgery.cut_paste(m1, m2, t_cut)
        for name, p in (("m1", m1), ("m2", m2), ("m3", m3), ("m4", m4)):
            yield f"collar({s}).{name}", p
    for s in range(100):
        yield f"chain({s})", scenarios.chain_path(s, 6, n_intervals=3)


def sweep(out):
    decompose = specflow._decompose
    off_grid = 0

    def counted(a):
        nonlocal off_grid
        # the grid pass decomposes stacks; a refined sample is one matrix
        off_grid += a.ndim == 2
        return decompose(a)

    lines = []
    specflow._decompose = counted
    try:
        for label, path in paths():
            try:
                r = specflow.endpoint_identity(path)
            except Exception as exc:
                lines.append(f"{label}\traise:{type(exc).__name__}")
                continue
            ticks = [(c.t, c.branch, c.slope_sign, c.depth) for c in r.crossings.crossings]
            lines.append(f"{label}\t{r.sf_by_crossings} {r.sf_by_partition} "
                         f"{r.endpoint_rel_index}\t{len(ticks)}\t"
                         f"{r.crossings.n_samples}\t{ticks!r}")
    finally:
        specflow._decompose = decompose
    lines.append(f"# {len(lines)} paths, {off_grid} off-grid decompositions")
    Path(out).write_text("\n".join(lines) + "\n")
    print(lines[-1])


def read(out):
    """({label: fields after the label}, summary line) of a sweep's OUT."""
    *lines, summary = Path(out).read_text().splitlines()
    return dict(line.split("\t", 1) for line in lines), summary


def compare(parent_out, change_out) -> int:
    """Check the gate on two sweeps' OUT files; 0 when it holds, else 1."""
    (parent, parent_summary), (change, change_summary) = read(parent_out), read(change_out)
    broken = [f"path set differs: {len(parent)} paths against {len(change)}"] \
        if parent.keys() != change.keys() else []
    fixed, moved = [], 0
    for label in parent.keys() & change.keys():
        old, new = parent[label].split("\t"), change[label].split("\t")
        if old[:2] == new[:2]:
            moved += old[2:] != new[2:]
        elif old[0].startswith("raise:") and not new[0].startswith("raise:"):
            fixed.append(f"{label}: {' '.join(new[:2])} (parent: {old[0]})")
        else:
            broken.append(f"{label}: {' '.join(new[:2])} (parent: {' '.join(old[:2])})")
    print(f"parent {parent_summary}\nchange {change_summary}\n"
          f"{moved} paths whose samples or crossing tuples moved")
    for tag, lines in (("FIXED", fixed), ("BROKEN", broken)):
        for line in sorted(lines):
            print(f"{tag} {line}")
    return 1 if broken else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_OUT", "CHANGE_OUT"))
    args = parser.parse_args()
    if (args.out is None) == (args.compare is None):
        parser.error("give OUT or --compare PARENT_OUT CHANGE_OUT")
    if args.compare:
        sys.exit(compare(*args.compare))
    sweep(args.out)
