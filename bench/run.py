"""Benchmark of the diracflow scenario pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load: a closed loop with one client.  Each repetition is a fresh process
(bench/worker.py) that runs the workload's scenario configurations back to
back through cli.parse_config -> cli.run -> reporting.emit with --jobs 1
and the BLAS thread count left at its default.

--trace 0 measures the end-to-end metrics for about S seconds and reports
medians over the repetitions:
  setup_s      fresh process start until the first check begins (import,
               parse_config, config building); extra set-up-only processes
               add samples
  run_s        first check start until the last report is written
  peak_rss_mb  peak resident memory of the workload process
  pass_frac    checks that passed over checks attempted
--trace 1 runs the workload once untraced and once with every layer wrapped
in spans (bench/tracing.py), plus the index-extraction sweep, and reports
the per-layer metrics.  The traced spans are written under .bench_out/.

Inputs: --seed selects one of the workload seeds in workloads.POOL (see
there why the pool is finite); the same --seed gives the same inputs.

Correctness: every check must PASS; a FAIL, SKIP or raised error counts as
failed.  Each check's name, outcome and integer-valued lhs/rhs must also
equal bench/reference.json, which holds them for every workload seed in the
pool, and in a traced run they must equal the untraced run's.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give the environment
record and every metric by name, with its unit.
"""

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS, workload_seed  # noqa: E402

TIME_LIMIT_S = 170.0      # whole invocation, workers included
SETUP_PROBES = 6          # set-up-only processes per measured run

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "ratio"}

# Per-layer metrics in the result line, besides every sweep.* metric.  The
# times of functions that one workload never calls (the inequality checks,
# surgery, the tower, the closed-form oracle, ...) would read 0 s on every
# run of it, so they are printed above the result line with every other
# metric but left out of it.
LAYER_METRICS = (
    "cli.parse_config.s", "cli.check_s.p50", "cli.check_s.max",
    "scenarios.generate.s", "reporting.emit.s",
    "opcore.eigh.calls", "opcore.eigh.s", "opcore.eigh.overhead_ratio",
    "opcore.positive_projection.calls", "opcore.positive_projection.s",
    "opcore.null_space.calls", "opcore.null_space.s", "opcore.null_space.incl_s",
    "opcore.null_space.max_cols", "opcore.spectral_gap.calls",
    "opcore.spectral_gap.s", "opcore.spectral_norm.calls", "opcore.spectral_norm.s",
    "opcore.HermitianOperator.init_s", "opcore.Projection.init_s",
    "linalg.svd.calls", "linalg.svd.s", "linalg.svd.flops_computed",
    "linalg.norm2.calls", "linalg.norm2.s", "linalg.eigh.calls", "linalg.eigh.s",
    "linalg.eigvalsh.calls", "linalg.eigvalsh.s", "linalg.solve.calls",
    "linalg.solve.s", "specflow.sf_crossings.calls", "specflow.sf_crossings.s",
    "specflow.sf_crossings.eigh_calls", "specflow.sf_partition.calls",
    "specflow.sf_partition.s", "relindex.rel_index.calls", "relindex.rel_index.s",
    "dirac1d.assemble.calls", "dirac1d.assemble.s", "dirac1d.index_report.calls",
    "dirac1d.index_report.s", "callias.callias_check.s", "inequalities.check.calls",
    "process.cpu_s", "trace.overhead_frac", "trace.unattributed_frac",
)


class WorkerFailed(RuntimeError):
    pass


class Session:
    """Starts worker processes for one workload and seed, and holds the
    deadline the whole invocation must meet."""

    def __init__(self, workload, seed, scratch):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self._n = 0

    def spawn(self, mode):
        self._n += 1
        out = self.scratch / f"{mode}-{self._n}"
        cmd = [sys.executable, str(BENCH / "worker.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(out)]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode} worker passed the {TIME_LIMIT_S:g} s limit")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise WorkerFailed(f"{mode} worker exited with {proc.returncode}:\n"
                               f"{proc.stderr[-4000:]}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if "setup_end" in result:
            result["setup_s"] = result["setup_end"] - t_spawn
        if "end" in result:
            result["run_s"] = result["end"] - result["setup_end"]
        shutil.rmtree(out, ignore_errors=True)
        return result


def load_reference(workload, seed):
    """The recorded checks of ``workload`` at workload seed ``seed``."""
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)[workload][str(seed)]


def grade(checks, expected=None):
    """(attempted, failed): a check fails unless it PASSes and, when
    ``expected`` is given, equals its entry there; an expected check that
    did not run counts as attempted and failed."""
    want = {c[0]: c for c in expected} if expected is not None else None
    failed = sum(1 for c in checks
                 if c[1] != "true" or (want is not None and want.get(c[0]) != c))
    missing = len(want.keys() - {c[0] for c in checks}) if want is not None else 0
    return len(checks) + missing, failed + missing


def zero_integer_checks(checks):
    """Checks whose integers are all zero: they cannot catch a sign error."""
    def flat(v):
        return [x for item in v for x in flat(item)] if isinstance(v, list) else [v]
    n = 0
    for _, _, lhs, rhs in checks:
        ints = [x for x in flat(lhs) + flat(rhs) if x is not None]
        n += bool(ints) and not any(ints)
    return n


def measure(session, seconds, reference):
    """--trace 0: end-to-end metrics over repeated fresh-process runs."""
    session.spawn("setup")          # byte-compiles the package; not counted
    t_start = time.monotonic()
    setups = [session.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        reps.append(session.spawn("run"))
        t_next = statistics.median(r["setup_s"] + r["run_s"] for r in reps)
        if time.monotonic() + t_next > t_start + seconds:
            break
    setups += [r["setup_s"] for r in reps]
    attempted = failed = 0
    for r in reps:
        a, f = grade(r["checks"], reference)
        attempted, failed = attempted + a, failed + f
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "pass_frac": (attempted - failed) / attempted,
    }
    info = {"env": reps[0]["env"], "repetitions": len(reps),
            "setup_samples": len(setups),
            "run_s_samples": [round(r["run_s"], 4) for r in reps],
            "zero_integer_checks": zero_integer_checks(reps[0]["checks"])}
    return attempted, failed, metrics, info


def traced(session, reference):
    """--trace 1: per-layer metrics from one traced run, against one
    untraced run of the same workload, plus the index-extraction sweep."""
    session.spawn("setup")
    base = session.spawn("run")
    trace = session.spawn("trace")
    sweep = session.spawn("sweep")
    attempted, failed = grade(base["checks"], reference)
    # tracing must not change any outcome or integer
    a, mismatches = grade(trace["checks"], base["checks"])
    attempted, failed = attempted + a, failed + mismatches
    a, f = grade(sweep["checks"])
    attempted, failed = attempted + a, failed + f

    metrics = dict(trace["layers"])
    check_s = base["check_s"]
    metrics["cli.check_s.p50"] = statistics.median(check_s)
    metrics["cli.check_s.max"] = max(check_s)
    metrics["process.cpu_s"] = base["cpu_s"]
    metrics["trace.overhead_frac"] = trace["run_s"] / base["run_s"] - 1.0
    metrics.update(sweep["metrics"])
    top = sorted(trace["table"].items(), key=lambda kv: -kv[1][1])
    info = {"env": base["env"], "trace_mismatches": mismatches,
            "untraced_run_s": base["run_s"],
            "traced_run_s": trace["run_s"], "spans": trace["spans"],
            "sweep_note": sweep["note"],
            "sweep_points": [dict(zip(("n_cells", "k", "rows", "cols", "index_s"), p))
                             for p in sweep["points"]],
            "self_time_by_label": {k: {"calls": v[0], "self_s": round(v[1], 6),
                                       "incl_s": round(v[2], 6)} for k, v in top}}
    return attempted, failed, metrics, info


def layer_unit(name):
    if name.endswith(("_s", ".s", ".p50", ".max")) or ".index_s." in name:
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if "flops" in name:
        return "flop"
    if "bytes" in name:
        return "B"
    if ".exponent." in name:
        return "1"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELDOUT_SEED} is held out for claims)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "diracflow" / "cli.py").is_file():
        print(f"error: no diracflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    seed = workload_seed(args.seed)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    session = Session(args.workload, seed, scratch)
    reference = load_reference(args.workload, seed)
    try:
        if args.trace:
            attempted, failed, metrics, info = traced(session, reference)
            units = {name: layer_unit(name) for name in metrics}
        else:
            attempted, failed, metrics, info = measure(session, args.seconds, reference)
            units = END_TO_END_UNITS
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "bench_seed": args.seed,
                      "failed_frac": failed / attempted, **info}))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                    if not args.trace or name in LAYER_METRICS
                    or name.startswith("sweep.")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
