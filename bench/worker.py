"""One fresh-process repetition of a benchmark workload.

    python3 bench/worker.py {setup|run|trace|sweep} --workload W --seed N --out DIR

``setup`` stops where the first check would begin; ``run`` runs the whole
workload; ``trace`` runs it with every layer wrapped in spans; ``sweep``
times index extraction over a grid of sizes.  The worker prints one JSON
object as its last line of output.  Times are CLOCK_MONOTONIC readings, so
the parent can measure set-up from the moment it started this process.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from workloads import JOBS, configs  # noqa: E402

# Index-extraction sweep: tanh_path(k) on [-8, 8], n_cells x k.  The full
# grid would reach n_cells = 800 at k = 16, a 12800-row complex SVD whose
# matrix alone is ~2.6 GB; the sweep stops at 1600 rows (~41 MB) so that it
# fits next to other work on a machine with a few GB of memory.
SWEEP_CELLS = (50, 100, 200, 400, 800)
SWEEP_K = (1, 4, 16)
SWEEP_MAX_ROWS = 1600
SWEEP_LENGTH = 8.0


def integers(value):
    """The integer content of a check side, or None for anything that holds
    a float (those move with BLAS call order and are not compared)."""
    if isinstance(value, (bool, np.bool_)):
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (tuple, list)):
        items = [integers(v) for v in value]
        return None if any(i is None for i in items) else items
    return None


def run_workload(workload, seed, out_dir, setup_only=False, tracer=None):
    from diracflow import cli, reporting

    cfgs = [cli.parse_config(text) for text in configs(workload, seed)]
    result = {"setup_end": time.monotonic()}
    if setup_only:
        return result
    checks, check_s, emitted = [], [], []
    for cfg in cfgs:
        if tracer is not None:
            tracer.request_id = cfg.scenario
        out = os.path.join(out_dir, cfg.scenario)
        try:
            report = cli.run(cfg, jobs=JOBS)
            reporting.emit(report, out, ("csv", "json"))
        except Exception:
            # a raised error ends the scenario; it counts as one failed check
            traceback.print_exc()
            checks.append([cfg.scenario, "error", None, None])
            continue
        emitted.append((out, [[rec.name, rec.outcome] for rec in report.records]))
        for rec in report.records:
            checks.append([rec.name, rec.outcome,
                           integers(rec.lhs), integers(rec.rhs)])
            check_s.append(rec.seconds)
    result["end"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    # the emitted report must carry the in-memory records' outcomes
    for out, outcomes in emitted:
        with open(os.path.join(out, "report.json")) as fh:
            rows = [[r["check_name"], r["pass"]] for r in json.load(fh)]
        if rows != outcomes:
            checks.append([os.path.basename(out) + "/report.json", "false", None, None])
    result["checks"] = checks
    result["check_s"] = check_s
    return result


def sweep():
    from diracflow import dirac1d, specflow
    from tracing import svd_flops

    metrics, checks, points = {}, [], []
    for k in SWEEP_K:
        path = specflow.tanh_path(k=k)
        cells, secs = [], []
        for n in SWEEP_CELLS:
            if n * k > SWEEP_MAX_ROWS:
                continue
            grid = dirac1d.GridSpec(SWEEP_LENGTH, n)
            times = []
            for _ in range(3 if n * k <= 800 else 1):
                t0 = time.perf_counter()
                op = dirac1d.assemble(path, grid, "aps")
                rep = dirac1d.index_report(op, refine_check=False)
                times.append(time.perf_counter() - t0)
            t = sorted(times)[len(times) // 2]
            ok = rep.index == k and rep.structural_agrees
            checks.append([f"sweep[n={n},k={k}]", "true" if ok else "false",
                           rep.index, k])
            rows, cols = op.matrix.shape
            tag = f"n{n}.k{k}"
            metrics[f"sweep.index_s.{tag}"] = t
            metrics[f"sweep.matrix_bytes_computed.{tag}"] = op.matrix.nbytes
            metrics[f"sweep.svd_flops_computed.{tag}"] = svd_flops(
                rows, cols, compute_uv=False)
            points.append((n, k, rows, cols, t))
            cells.append(n)
            secs.append(t)
        metrics[f"sweep.index.exponent.k{k}"] = loglog_exponent(cells, secs)
    return {"metrics": metrics, "checks": checks, "points": points,
            "note": f"n_cells x k capped at {SWEEP_MAX_ROWS} rows: a "
                    f"12800-row complex SVD needs ~2.6 GB for the matrix alone"}


def loglog_exponent(sizes, seconds):
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def blas_threads():
    """OpenBLAS's thread count, read from the loaded library (None when the
    BLAS is not OpenBLAS or the symbol is not found)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    import platform

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "jobs": JOBS,
        "seed": seed,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace", "sweep"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    if args.mode == "sweep":
        result = sweep()
    elif args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        import diracflow.cli  # noqa: F401  (load every layer before wrapping)
        tracer.install()
        result = run_workload(args.workload, args.seed, args.out, tracer=tracer)
        layers, table = tracer.summarize(result["end"] - result["setup_end"])
        result["layers"] = layers
        result["table"] = table
        result["spans"] = str(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(result["spans"])
    else:
        result = run_workload(args.workload, args.seed, args.out,
                              setup_only=args.mode == "setup")
        if args.mode == "run":
            result["env"] = environment(args.seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
