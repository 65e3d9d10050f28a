"""Record bench/reference.json: each check's name, outcome and integer-valued
lhs/rhs for every workload at every workload seed in workloads.POOL.

    python3 bench/record_reference.py

Run it only on a commit whose checks are known to be right; run.py then
counts every departure from the recording as a failed check.  It writes
nothing if any check at any pool seed does not pass.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, OUT, Session, WORKLOADS
from workloads import POOL


def dump(reference):
    """JSON with one check per line."""
    out = ["{"]
    for i, (workload, by_seed) in enumerate(reference.items()):
        out.append(f" {json.dumps(workload)}: {{")
        for j, (seed, checks) in enumerate(by_seed.items()):
            out.append(f"  {json.dumps(str(seed))}: [")
            out += [f"   {json.dumps(c)}" + ("," if k < len(checks) - 1 else "")
                    for k, c in enumerate(checks)]
            out.append("  ]" + ("," if j < len(by_seed) - 1 else ""))
        out.append(" }" + ("," if i < len(reference) - 1 else ""))
    out.append("}")
    return "\n".join(out) + "\n"


def main():
    OUT.mkdir(exist_ok=True)
    reference, bad = {}, []
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in POOL:
            scratch = tempfile.mkdtemp(prefix="reference-", dir=OUT)
            try:
                checks = Session(workload, seed, Path(scratch)).spawn("run")["checks"]
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            bad += [(workload, seed, c) for c in checks if c[1] != "true"]
            reference[workload][seed] = checks
            print(f"{workload} seed {seed}: {len(checks)} checks", flush=True)
    if bad:
        for workload, seed, check in bad:
            print(f"error: {workload} seed {seed}: {check}", file=sys.stderr)
        return 1
    with open(BENCH / "reference.json", "w") as fh:
        fh.write(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
