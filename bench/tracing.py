"""Span tracing for the benchmark's traced run.

The tracer wraps, from outside the program, the public functions of every
diracflow layer module, the constructors of the two validated operator
types, and the ``numpy.linalg`` kernels the layers call.  Each call records
a span: its label, start, end, parent span and request id (the scenario
name).  Spans stay in memory until the run ends.

The modules bind kernels by name (``from .opcore import eigh`` puts
``eigh`` into specflow, dirac1d, relindex, ...), so installing a wrapper
rebinds the name in every diracflow module that holds the original.
"""

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "scenarios", "reporting", "opcore", "specflow", "relindex",
          "dirac1d", "callias", "surgery", "inequalities")

# Pure coercions and scalar rules evaluated once per grid sample: a span
# per call would cost more than the work it measures.
UNTRACED = {"opcore.as_matrix", "opcore.as_hermitian", "surgery.smoothstep",
            "dirac1d.quintic_plateau", "reporting.format_value", "cli.main"}

KERNELS = ("svd", "eigh", "eigvalsh", "solve")

ROOT_LABEL = "cli.run"


def svd_flops(rows: int, cols: int, compute_uv=True, full_matrices=True) -> float:
    """Operation count of a dense complex SVD, as computed from its shape.

    Golub and Van Loan's counts for the Golub-Reinsch SVD of an m x n real
    matrix (m >= n), times 4 for complex arithmetic.  LAPACK's divide and
    conquer driver does a different amount of work; the figure is a
    size measure, not a measurement.
    """
    m, n = max(rows, cols), min(rows, cols)
    if not compute_uv:
        real = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    elif full_matrices:
        real = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
    else:
        real = 6.0 * m * n * n + 11.0 * n ** 3
    return 4.0 * real


def _svd_shape(a, full_matrices=True, compute_uv=True, hermitian=False):
    rows, cols = np.shape(a)[-2:]
    return rows, cols, bool(compute_uv), bool(full_matrices)


def _columns(m, *args, **kwargs):
    return np.shape(m)[-1]


class Tracer:
    """In-memory span recorder; ``install`` makes it see every call."""

    def __init__(self):
        self.label = []
        self.start = []
        self.end = []
        self.parent = []
        self.request = []
        self.probe = {}              # span index -> value from a probe
        self.request_id = "setup"
        self._stack = [-1]

    def wrap(self, label, fn, probe=None):
        labels, starts, ends, parents = self.label, self.start, self.end, self.parent
        requests, probes, stack = self.request, self.probe, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            labels.append(label)
            parents.append(stack[-1])
            requests.append(self.request_id)
            ends.append(0.0)
            if probe is not None:
                probes[i] = probe(*args, **kwargs)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every layer's public functions and the linalg kernels.

        Returns the original function objects, so a caller can check that
        no module still holds one.
        """
        from diracflow import opcore

        package = {name: mod for name, mod in sys.modules.items()
                   if name == "diracflow" or name.startswith("diracflow.")}
        swap = {}
        for layer in LAYERS:
            mod = package[f"diracflow.{layer}"]
            for attr, obj in vars(mod).items():
                label = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and label not in UNTRACED):
                    probe = _columns if label == "opcore.null_space" else None
                    swap[id(obj)] = (obj, self.wrap(label, obj, probe))
        for mod in package.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swap and swap[id(obj)][0] is obj:
                    setattr(mod, attr, swap[id(obj)][1])
        for cls in (opcore.HermitianOperator, opcore.Projection):
            cls.__init__ = self.wrap(f"opcore.{cls.__name__}.init", cls.__init__)
        for name in KERNELS:
            probe = _svd_shape if name == "svd" else None
            setattr(np.linalg, name,
                    self.wrap(f"linalg.{name}", getattr(np.linalg, name), probe))
        norm = np.linalg.norm
        norm2 = self.wrap("linalg.norm2", norm)

        @functools.wraps(norm)
        def norm_dispatch(x, ord=None, *args, **kwargs):
            # only the spectral norm of a matrix is a full SVD worth a span
            if (not args and not kwargs and not isinstance(ord, str)
                    and ord == 2 and np.ndim(x) == 2):
                return norm2(x, ord)
            return norm(x, ord, *args, **kwargs)

        np.linalg.norm = norm_dispatch
        return [orig for orig, _ in swap.values()]

    def write(self, path):
        """Write the spans as gzipped JSON columns."""
        names = sorted(set(self.label))
        code = {n: i for i, n in enumerate(names)}
        payload = {"labels": names,
                   "label": [code[n] for n in self.label],
                   "start": self.start, "end": self.end,
                   "parent": self.parent, "request": self.request}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)

    def summarize(self, run_s):
        """Per-label call counts, self and inclusive seconds, plus the
        derived layer metrics the benchmark reports.  ``run_s`` is the
        traced run's duration, set-up excluded."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        eigh_in_crossings = 0
        eigh_kernel_s = 0.0
        refine_s = 0.0
        max_cols = 0
        flops = 0.0
        setup_s = 0.0
        for i in range(n):
            label = self.label[i]
            if self.request[i] == "setup":
                setup_s += dur[i] - covered[i]
            calls[label] += 1
            self_s[label] += dur[i] - covered[i]
            ancestors = []
            p = self.parent[i]
            while p >= 0:
                ancestors.append(self.label[p])
                p = self.parent[p]
            if label not in ancestors:
                incl_s[label] += dur[i]
            if label == "opcore.eigh" and "specflow.sf_crossings" in ancestors:
                eigh_in_crossings += 1
            elif label == "linalg.eigh" and ancestors[:1] == ["opcore.eigh"]:
                eigh_kernel_s += dur[i]
            elif label == "dirac1d.assemble" and ancestors[:1] == ["dirac1d.index_report"]:
                # index_report's only assemble call is the h/2 refinement rerun
                refine_s += self.end[self.parent[i]] - self.start[i]
            elif label == "opcore.null_space":
                max_cols = max(max_cols, self.probe[i])
            elif label == "linalg.svd":
                flops += svd_flops(*self.probe[i])

        def total(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        # the root span's own time is runner glue and untraced helpers
        attributed = sum(self_s.values()) - self_s[ROOT_LABEL] - setup_s
        m = {
            "cli.parse_config.s": self_s["cli.parse_config"],
            "scenarios.generate.s": total("scenarios.", self_s),
            "reporting.emit.s": self_s["reporting.emit"],
            "opcore.eigh.overhead_ratio": (incl_s["opcore.eigh"] / eigh_kernel_s
                                           if eigh_kernel_s else 0.0),
            "opcore.null_space.incl_s": incl_s["opcore.null_space"],
            "opcore.null_space.max_cols": max_cols,
            "opcore.apply_function.s": self_s["opcore.apply_function"],
            "opcore.HermitianOperator.init_s": incl_s["opcore.HermitianOperator.init"],
            "opcore.Projection.init_s": incl_s["opcore.Projection.init"],
            "linalg.svd.flops_computed": flops,
            "specflow.sf_crossings.eigh_calls": eigh_in_crossings,
            "specflow.branch_curves.s": self_s["specflow.branch_curves"],
            "relindex.rel_index_restricted.s": self_s["relindex.rel_index_restricted"],
            "dirac1d.index_report.refine_incl_s": refine_s,
            "dirac1d.kernel_oracle_diagonal.s": self_s["dirac1d.kernel_oracle_diagonal"],
            "dirac1d.fredholm_bounds.s": self_s["dirac1d.fredholm_bounds"],
            "callias.callias_check.s": self_s["callias.callias_check"],
            "callias.four_way_identity.s": self_s["callias.four_way_identity"],
            "callias.tower_callias.s": self_s["callias.tower_callias"],
            "surgery.verify_additivity.s": self_s["surgery.verify_additivity"],
            "surgery.cut_paste.s": self_s["surgery.cut_paste"],
            "inequalities.check.calls": total("inequalities.check_", calls),
            "inequalities.check.s": total("inequalities.check_", self_s),
            "trace.unattributed_frac": 1.0 - attributed / run_s,
        }
        for label in ("opcore.eigh", "opcore.positive_projection", "opcore.null_space",
                      "opcore.spectral_gap", "opcore.spectral_norm", "linalg.svd",
                      "linalg.norm2", "linalg.eigh", "linalg.eigvalsh", "linalg.solve",
                      "specflow.sf_crossings", "specflow.sf_partition",
                      "relindex.rel_index", "dirac1d.assemble", "dirac1d.index_report"):
            m[f"{label}.calls"] = calls[label]
            m[f"{label}.s"] = self_s[label]
        table = {label: (calls[label], self_s[label], incl_s[label]) for label in calls}
        return m, table

