"""Self-test of the benchmark.

    python3 bench/selftest.py

1. The correctness gate counts a changed outcome, a changed integer and a
   missing check as failures.
2. Span wrapping sees every call: once the tracer is installed, no
   diracflow module still holds an original function object, and the
   numpy.linalg kernels are wrapped.
3. For each workload at the default seed, the traced run (run.py --trace 1)
   gives every check the outcome and integers of the untraced run, reports
   trace.unattributed_frac, and publishes exactly the per-layer metrics
   that BENCHMARK.json lists.

It also reports, without failing on it, whether the known defect that keeps
workloads.POOL finite still shows.

Exits 0 when every part holds, 1 otherwise.
"""

import json
import subprocess
import sys
import types

from run import BENCH, END_TO_END_UNITS, ROOT, WORKLOADS, grade

sys.path.insert(0, str(ROOT / "src"))


def check_grade():
    ok = ["tower", "true", [0, -1], [0, -1]]
    cases = [
        ([ok], [ok], 0),
        ([["tower", "skip", None, None]], [ok], 1),
        ([["tower", "true", [0, 1], [0, 1]]], [ok], 1),
        ([], [ok], 1),
    ]
    return [f"grade({got}, {want}) = {grade(got, want)[1]} failures, expected {n}"
            for got, want, n in cases if grade(got, want)[1] != n]


def check_wrapping():
    import numpy as np

    import diracflow.cli  # noqa: F401
    from tracing import KERNELS, Tracer

    originals = {id(f) for f in Tracer().install()}
    errors = [f"{name}.{attr} still holds the unwrapped function"
              for name, mod in sys.modules.items()
              if isinstance(mod, types.ModuleType) and name.startswith("diracflow")
              for attr, obj in vars(mod).items() if id(obj) in originals]
    errors += [f"numpy.linalg.{k} is not wrapped" for k in KERNELS + ("norm",)
               if not hasattr(getattr(np.linalg, k), "__wrapped__")]
    return errors


def check_traced_runs():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    errors = []
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if want_e2e != END_TO_END_UNITS:
        errors.append(f"end_to_end metrics {want_e2e} != run.py's {END_TO_END_UNITS}")
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"),
                               "--workload", workload, "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            errors.append(f"{workload}: run.py exited {proc.returncode}: "
                          f"{proc.stderr[-2000:]}")
            continue
        lines = proc.stdout.splitlines()
        info, result = json.loads(lines[0]), json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if info["trace_mismatches"]:
            errors.append(f"{workload}: tracing changed {info['trace_mismatches']} checks")
        if not result["correct"]:
            errors.append(f"{workload}: {result['failed']} of "
                          f"{result['attempted']} checks failed")
        frac = result["metrics"].get("trace.unattributed_frac", {}).get("value")
        if frac is None or not 0.0 <= frac <= 1.0:
            errors.append(f"{workload}: trace.unattributed_frac is {frac}")
        if got != want:
            errors.append(f"{workload}: published per-layer metrics differ from "
                          f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    return errors


def known_defect():
    """Whether the cutpaste input named in workloads.py still raises."""
    from diracflow import cli
    from diracflow.errors import DegeneratePath

    cfg = cli.parse_config(json.dumps({
        "scenario": "cutpaste", "seeds": {"base": 1718458259, "count": 1},
        "params": {"pairs": 1, "k_max": 5}}))
    try:
        cli.run(cfg, jobs=1)
    except DegeneratePath as exc:
        return f"still shows: cutpaste seed 1718458259 raises DegeneratePath ({exc})"
    return "no longer shows: widen workloads.POOL and re-record reference.json"


def main():
    print(f"known_defect: {known_defect()}")
    errors = []
    for part in (check_grade, check_wrapping, check_traced_runs):
        found = part()
        print(f"{part.__name__}: {'ok' if not found else 'FAILED'}")
        errors += found
    for e in errors:
        print(f"  {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
