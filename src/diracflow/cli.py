"""Batch entry point: scenario configuration, execution, report emission.

Configuration is a single JSON file (flat objects, strings, numbers,
arrays); unknown keys are rejected with the offending field named.  Runs
are deterministic for a fixed configuration, and the emitted CSV/JSON
files are byte-identical across repeated runs.

Exit codes: 0 = all checks passed or were precondition-skipped,
1 = at least one identity violated, 2 = invalid input or configuration.
"""

import argparse
import concurrent.futures
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import callias, dirac1d, inequalities, relindex, scenarios, specflow, surgery
from .errors import (
    AmbiguousRank,
    ConfigError,
    DiracflowError,
    HypothesisUnmet,
    InvalidInput,
    NotInvertible,
    NotRelativelyCompact,
    TheoremViolation,
    TowerTooShallow,
)
from .opcore import (
    TruncationTower,
    alternating_diag_template,
    bounded_transform,
    decaying_rank_template,
    exp_decay_template,
    inv_sqrt_via_quadrature,
    rank_one_template,
    spectral_norm,
)
from .reporting import CheckRecord, RunReport, check_formats, digest_of, emit
from .specflow import PotentialPath

SCENARIOS = {
    "sf": "spectral flow: crossing counting vs partition vs endpoint relative index",
    "relind": "relative index of projections: additivity, homotopy, antisymmetry",
    "index1d": "1-D operator index: closed-form oracles, coupling sweep, lower bound",
    "cutpaste": "cut-and-paste additivity of seeded collar-compatible pairs",
    "callias": "hypersurface pairing vs assembled index, reference independence",
    "tower": "hypersurface pairing along a truncation tower",
    "appendix": "operator-inequality suites on seeded matrices and towers",
    "all": "every scenario above, in order",
}

_PARAM_KEYS = {
    "sf": {"k", "n_samples"},
    "relind": {"trials", "dim"},
    "index1d": {"lams", "bumps"},
    "cutpaste": {"pairs", "k_max"},
    "callias": {"cases"},
    "tower": {"dims", "fibers"},
    "appendix": {"trials", "a4_eps", "dims", "quad_nodes"},
}
_PARAM_KEYS["all"] = set().union(*_PARAM_KEYS.values())

_POTENTIAL_KEYS = {
    "tanh": {"kind", "k", "scale"},
    "linear": {"kind", "n_samples"},
    "diag-list": {"kind", "entries", "n_samples"},
    "seeded-random": {"kind", "k", "n_samples", "seed"},
    "file": {"kind", "path"},
}

# The type of every params, potential and output key, with the value it
# must exceed (None: any).  The type is int, float (any finite number),
# str, bool, or a one-element list for a non-empty list of that type, whose
# elements the bound applies to.  A count below 1 would make its check
# vacuous; a zero tanh scale, coupling or perturbation size a degenerate or
# vacuous one.  A seed (also each of "seeds") is a non-negative integer, as
# numpy's generators take.
_KEY_TYPES = {
    "k": (int, 0), "n_samples": (int, 1), "trials": (int, 0), "dim": (int, 0),
    "bumps": (int, 0), "pairs": (int, 0), "k_max": (int, 0), "cases": (int, 0),
    "fibers": (int, 0), "quad_nodes": (int, 0), "seed": (int, -1),
    "scale": (float, 0.0), "kind": (str, None), "path": (str, None),
    "lams": ([float], 0.0), "a4_eps": ([float], 0.0), "entries": ([float], None),
    "dims": ([int], 0), "dir": (str, None), "emit_timings": (bool, None),
}


@dataclass
class ScenarioConfig:
    scenario: str
    seeds: list
    potential: dict
    coupling: object              # float or "auto-lambda0"
    out_dir: str
    emit_timings: bool
    params: dict
    raw: dict = field(repr=False, default_factory=dict)

    def coupling_for(self, path) -> float:
        if isinstance(self.coupling, str):
            c, dh, dk, lam0 = dirac1d.bound_constants(path)
            return max(1.0, 1.25 * lam0)
        return float(self.coupling)


def _reject_unknown(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object", field=where)
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key in {where}", field=key)


def _number(value, field, integer=False):
    """A JSON integer, or with ``integer`` off any finite JSON number as a
    float; ConfigError naming ``field`` for anything else, NaN and
    Infinity included."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)) \
            or not (integer or abs(value) <= sys.float_info.max):
        raise ConfigError(f"expected {'an integer' if integer else 'a finite number'}, "
                          f"got {value!r}", field=field)
    return value if integer else float(value)


def _bounded(value, low, field):
    if low is not None and value <= low:
        raise ConfigError(f"expected more than {low}, got {value!r}", field=field)
    return value


def _seed(value, field):
    """A seed as `_typed` checks the "seed" key; ConfigError naming
    ``field`` otherwise."""
    return _bounded(_number(value, field, integer=True), _KEY_TYPES["seed"][1], field)


def _typed(mapping, where):
    """A copy of ``mapping`` with each value checked against its type and
    bound in _KEY_TYPES (numbers as `_number` returns them, lists as
    tuples); ConfigError naming ``where.key`` otherwise."""
    out = {}
    for key, value in mapping.items():
        (kind, low), name = _KEY_TYPES[key], f"{where}.{key}"
        if kind in (str, bool):
            if not isinstance(value, kind):
                raise ConfigError(f"expected {'a string' if kind is str else 'true or false'}, "
                                  f"got {value!r}", field=name)
            out[key] = value
        elif isinstance(kind, list):
            if not (isinstance(value, list) and value):
                raise ConfigError(f"expected a non-empty list, got {value!r}", field=name)
            out[key] = tuple(_bounded(_number(v, name, integer=kind[0] is int), low, name)
                             for v in value)
        else:
            out[key] = _bounded(_number(value, name, integer=kind is int), low, name)
    return out


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a JSON scenario configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc.msg} at line {exc.lineno}")
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    allowed = {"scenario", "seeds", "potential", "coupling", "output", "params"}
    _reject_unknown(raw, allowed, "configuration")
    scenario = raw.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(
            f"scenario must be one of {sorted(SCENARIOS)}", field="scenario")

    seeds_raw = raw.get("seeds", {"base": 0, "count": 8})
    if isinstance(seeds_raw, list):
        if not seeds_raw:
            raise ConfigError("seeds must not be empty", field="seeds")
        seeds = [_seed(s, "seeds") for s in seeds_raw]
    elif isinstance(seeds_raw, dict):
        _reject_unknown(seeds_raw, {"base", "count"}, "seeds")
        base = _seed(seeds_raw.get("base", 0), "seeds.base")
        count = _number(seeds_raw.get("count", 8), "seeds.count", integer=True)
        if count <= 0:
            raise ConfigError("seed count must be positive", field="seeds.count")
        seeds = list(range(base, base + count))
    else:
        raise ConfigError("seeds must be a list or {base, count}", field="seeds")

    potential = raw.get("potential", {"kind": "tanh"})
    if not isinstance(potential, dict) or "kind" not in potential:
        raise ConfigError("potential must be an object with a kind",
                          field="potential")
    kind = potential["kind"]
    if not isinstance(kind, str) or kind not in _POTENTIAL_KEYS:
        raise ConfigError(
            f"potential kind must be one of {sorted(_POTENTIAL_KEYS)}",
            field="potential.kind")
    _reject_unknown(potential, _POTENTIAL_KEYS[kind], f"potential({kind})")
    if kind == "file" and "path" not in potential:
        raise ConfigError("potential(file) needs a path", field="potential.path")
    potential = _typed(potential, "potential")
    if kind == "diag-list" and not any(potential.get("entries", (1.0,))):
        raise ConfigError("diag-list entries need a non-zero entry",
                          field="potential.entries")

    coupling = raw.get("coupling", 1.0)
    if isinstance(coupling, str):
        if coupling not in ("auto-lambda0", "auto-λ₀"):
            raise ConfigError("coupling must be a positive number or "
                              "\"auto-lambda0\"", field="coupling")
        coupling = "auto-lambda0"
    else:
        coupling = _bounded(_number(coupling, "coupling"), 0.0, "coupling")

    output = raw.get("output", {})
    _reject_unknown(output, {"dir", "emit_timings"}, "output")
    output = _typed(output, "output")
    out_dir = output.get("dir", "out")
    emit_timings = output.get("emit_timings", False)

    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object", field="params")
    _reject_unknown(params, _PARAM_KEYS[scenario], f"params({scenario})")
    params = _typed(params, "params")
    # each pair or case takes its own seed, so a larger count would run
    # fewer checks than it names
    for key in ("pairs", "cases"):
        if params.get(key, 0) > len(seeds):
            raise ConfigError(f"{key} {params[key]} exceeds the {len(seeds)} seeds",
                              field=f"params.{key}")
    # a tower needs two dims for its tails to show decay
    dims = params.get("dims")
    if dims and (len(dims) < 2 or any(b <= a for a, b in zip(dims, dims[1:]))):
        raise ConfigError(f"dims need at least two strictly increasing entries, "
                          f"got {list(dims)}", field="params.dims")

    return ScenarioConfig(scenario=scenario, seeds=seeds, potential=potential,
                          coupling=coupling,
                          out_dir=out_dir, emit_timings=emit_timings,
                          params=params, raw=raw)


# ---------------------------------------------------------------------------
# Tabulated potential files: first line "k n_samples", then one line per
# sample: t followed by k^2 complex entries as re,im pairs, row-major.

def load_potential_table(filename: str) -> PotentialPath:
    try:
        with open(filename) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        head = lines[0].split()
        k, n = int(head[0]), int(head[1])
        grid, mats = [], []
        for ln in lines[1:]:
            tokens = ln.split()
            if len(tokens) != 1 + k * k:
                raise ValueError(f"expected {1 + k * k} tokens, got {len(tokens)}")
            grid.append(float(tokens[0]))
            entries = []
            for tok in tokens[1:]:
                re_s, im_s = tok.split(",")
                entries.append(complex(float(re_s), float(im_s)))
            mats.append(np.array(entries, dtype=np.complex128).reshape(k, k))
        if len(grid) != n:
            raise ValueError(f"expected {n} samples, found {len(grid)}")
        if not grid:
            raise ValueError("no samples")
    except (OSError, ValueError, IndexError) as exc:
        raise InvalidInput(f"corrupted potential table {filename!r}: {exc}")
    span = (grid[0], grid[-1])
    return specflow.path_from_samples(grid, mats, support=(span,),
                                      name=f"table({filename})")


def build_potential(cfg: ScenarioConfig) -> PotentialPath:
    spec = cfg.potential
    kind = spec["kind"]
    if kind == "tanh":
        return specflow.tanh_path(k=spec.get("k", 1), scale=spec.get("scale", 1.0))
    if kind == "linear":
        return specflow.linear_scalar_path(spec.get("n_samples", 33))
    if kind == "diag-list":
        entries = spec.get("entries", (1.0, -1.0))
        body = float(np.arctanh(0.9)) / min(abs(c) for c in entries if c != 0.0)
        funcs = [(lambda t, c=c: c * math.tanh(t)) for c in entries]
        return specflow.diagonal_path(funcs, (-10.0, 10.0),
                                      spec.get("n_samples", 161),
                                      support=((-body, body),),
                                      name="diag-list")
    if kind == "seeded-random":
        return specflow.random_smooth_path(spec.get("seed", 0), spec.get("k", 2),
                                           n_samples=spec.get("n_samples", 64))
    if kind == "file":
        return load_potential_table(spec["path"])
    raise ConfigError(f"unhandled potential kind {kind!r}", field="potential.kind")


# ---------------------------------------------------------------------------
# Scenario runners.  Each returns a list of CheckRecord.

def _guarded(name, anchor, fn):
    """Run one check and record it under ``name`` and ``anchor``.

    ``fn`` returns the remaining CheckRecord fields (lhs, rhs, passed, and
    optionally residual and details).  A precondition failure becomes a
    skip record and an identity violation a failing record, under the same
    name and anchor."""
    t0 = time.perf_counter()
    try:
        rec = CheckRecord(name=name, anchor=anchor, **fn())
    except (HypothesisUnmet, NotInvertible, NotRelativelyCompact,
            AmbiguousRank, TowerTooShallow) as exc:
        rec = CheckRecord(name=name, anchor=anchor, lhs="skipped",
                          rhs=type(exc).__name__, passed=None,
                          details={"reason": str(exc)})
    except TheoremViolation as exc:
        rec = CheckRecord(name=name, anchor=anchor, lhs="violation",
                          rhs=str(exc), passed=False)
    rec.seconds = time.perf_counter() - t0
    return rec


def _run_sf(cfg: ScenarioConfig):
    records = []
    k = cfg.params.get("k", 4)
    n_samples = cfg.params.get("n_samples", 64)
    for seed in cfg.seeds:
        def check(seed=seed):
            path = specflow.random_smooth_path(seed, 1 + (seed + k) % 8, n_samples=n_samples)
            r = specflow.endpoint_identity(path)
            return dict(lhs=(r.sf_by_crossings, r.sf_by_partition),
                        rhs=r.endpoint_rel_index, passed=r.passed)
        records.append(_guarded(f"endpoint-identity[seed={seed}]",
                                "index = spectral flow = endpoint relative index",
                                check))

    def reversal():
        path = specflow.random_smooth_path(cfg.seeds[0], 3, n_samples=n_samples)
        fwd, _ = specflow.sf_crossings(path)
        rev, _ = specflow.sf_crossings(specflow.reversed_path(path))
        return dict(lhs=fwd, rhs=-rev, passed=fwd == -rev)
    records.append(_guarded("reversal-antisymmetry",
                            "spectral flow reverses sign with the path",
                            reversal))
    return records


def _run_relind(cfg: ScenarioConfig):
    trials = cfg.params.get("trials", 100)
    dim = cfg.params.get("dim", 8)
    rng = np.random.default_rng(cfg.seeds[0])
    records = []

    def additivity():
        good = 0
        for _ in range(trials):
            u = inequalities.random_unitary(rng, dim)
            ranks = sorted(rng.integers(0, dim + 1, size=3))
            projs = []
            for r in ranks:
                w = np.zeros(dim)
                w[:r] = 1.0
                projs.append((u * w) @ u.conj().T)
            rep = relindex.check_additivity(*projs)
            good += rep.passed
        return dict(lhs=good, rhs=trials, passed=good == trials)
    records.append(_guarded(f"additivity[{trials}]",
                            "relative index is additive over a middle projection",
                            additivity))

    def rotation():
        thetas = np.linspace(0.0, np.pi / 2, 32)
        p_path = [np.outer([np.cos(a), np.sin(a)], [np.cos(a), np.sin(a)])
                  for a in thetas]
        q_path = [p_path[0]] * len(p_path)
        rep = relindex.homotopy_constancy(p_path, q_path)
        return dict(lhs=rep.values[0], rhs=rep.values[-1], passed=rep.passed)
    records.append(_guarded("homotopy-rotation",
                            "relative index is constant along norm-continuous paths",
                            rotation))

    def cross_check():
        good = 0
        for _ in range(trials):
            u = inequalities.random_unitary(rng, dim)
            r1, r2 = rng.integers(0, dim + 1, size=2)
            w1, w2 = np.zeros(dim), np.zeros(dim)
            w1[:r1] = 1.0
            w2[:r2] = 1.0
            p = (u * w1) @ u.conj().T
            q = (u * w2) @ u.conj().T
            good += relindex.rel_index(p, q) == relindex.rel_index_restricted(p, q)
        return dict(lhs=good, rhs=trials, passed=good == trials)
    records.append(_guarded(f"trace-vs-restricted[{trials}]",
                            "trace formula equals the restricted-operator index",
                            cross_check))
    return records


def _run_index1d(cfg: ScenarioConfig):
    records = []
    grid = dirac1d.GridSpec(8.0, 320)

    oracle_cases = [
        ("tanh", specflow.tanh_path(), (1, 1, 0)),
        ("neg-tanh", specflow.diagonal_path(
            [lambda t: -math.tanh(t)], (-10, 10), 161,
            support=((-1.5, 1.5),), name="neg-tanh"), (-1, 0, 1)),
        ("diag-pair", specflow.diagonal_path(
            [math.tanh, lambda t: -math.tanh(t)], (-10, 10), 161,
            support=((-1.5, 1.5),), name="diag-pair"), (0, 1, 1)),
    ]
    for label, path, expected in oracle_cases:
        def check(path=path, expected=expected):
            rep = dirac1d.index_report(dirac1d.assemble(path, grid, "aps", 1.0))
            got = (rep.index, rep.dim_ker, rep.dim_coker)
            oracle = dirac1d.kernel_oracle_diagonal(path)
            ok = got == expected == (oracle.index, oracle.dim_ker, oracle.dim_coker)
            return dict(lhs=got, rhs=expected, passed=ok and rep.refined_agrees)
        records.append(_guarded(f"oracle[{label}]",
                                "index, kernel and cokernel match the closed form",
                                check))

    def index(path, lam):
        return dirac1d.path_index_report(path, grid, lam).index

    def sweep():
        path = specflow.tanh_path()
        lam0 = cfg.coupling_for(path)
        lams = cfg.params.get("lams") or [lam0, 2 * lam0, 5 * lam0]
        indices = tuple(index(path, float(lam)) for lam in lams)
        return dict(lhs=indices, rhs=indices[0], passed=len(set(indices)) == 1)
    records.append(_guarded("coupling-sweep",
                            "index is constant for all couplings above threshold",
                            sweep))

    def bound():
        path = specflow.tanh_path()
        rep = dirac1d.fredholm_bounds(path, 3.0, grid=dirac1d.GridSpec(8.0, 200))
        return dict(lhs=rep.min_eig, rhs=rep.epsilon * (1 - rep.disc_slack),
                    passed=rep.passed,
                    residual=max(0.0, rep.epsilon - rep.min_eig))
    records.append(_guarded("lower-bound",
                            "doubled square plus cutoff dominates the epsilon bound",
                            bound))

    n_bumps = cfg.params.get("bumps", 10)

    def bumps():
        path = specflow.tanh_path()
        base = index(path, 1.0)
        good = 0
        for seed in range(n_bumps):
            bump, direction = scenarios.bump_perturbation(seed, path)
            good += index(specflow.perturbed_path(path, bump, direction), 1.0) == base
        return dict(lhs=good, rhs=n_bumps, passed=good == n_bumps)
    records.append(_guarded(f"bump-invariance[{n_bumps}]",
                            "compactly supported perturbations preserve the index",
                            bumps))
    return records


def _run_cutpaste(cfg: ScenarioConfig):
    pairs = cfg.params.get("pairs", 6)
    k_max = cfg.params.get("k_max", 3)
    records = []
    grid = dirac1d.GridSpec(12.0, 192)
    for seed in cfg.seeds[:pairs]:
        def check(seed=seed):
            m1, m2, t_cut = scenarios.collar_pair(seed, 1 + seed % k_max)
            rep = surgery.verify_additivity(m1, m2, t_cut, grid=grid)
            return dict(lhs=rep.ind_1 + rep.ind_2, rhs=rep.ind_3 + rep.ind_4,
                        passed=rep.passed,
                        details={"indices": (rep.ind_1, rep.ind_2, rep.ind_3, rep.ind_4)})
        records.append(_guarded(f"cutpaste[seed={seed}]",
                                "recombined problems preserve the index sum", check))
    return records


def _run_callias(cfg: ScenarioConfig):
    cases = cfg.params.get("cases", len(cfg.seeds))
    records = []
    for seed in cfg.seeds[:cases]:
        def check(seed=seed):
            paths, lam, ref, ref2 = scenarios.callias_case(seed)
            rep = callias.callias_check(paths, lam=lam, reference=ref,
                                        reference_alt=ref2)
            # a one-fiber case reports its integers bare: 0, not (0,)
            lhs, rhs, rhs_alt = (v[0] if len(paths) == 1 else v
                                 for v in (rep.lhs, rep.rhs, rep.rhs_alt))
            return dict(lhs=lhs, rhs=rhs, passed=True, details={"rhs_alt": rhs_alt})
        records.append(_guarded(
            f"pairing[seed={seed}]",
            "index equals the signed boundary pairing, independent of the reference",
            check))

    def four_way():
        good = 0
        for seed in cfg.seeds:
            rep = callias.four_way_identity(
                specflow.random_smooth_path(seed, 1 + seed % 8))
            good += rep.passed
        return dict(lhs=good, rhs=len(cfg.seeds), passed=good == len(cfg.seeds))
    records.append(_guarded(f"four-way[{len(cfg.seeds)}]",
                            "crossings = partition = endpoint relative index = pairing",
                            four_way))

    def rank_pairing():
        path = scenarios.chain_path(cfg.seeds[0], 2)
        val = callias.ran_projection_pairing(path)
        rhs = callias.rhs_pairing(path, reference=-1.0)
        return dict(lhs=val, rhs=rhs, passed=val == rhs)
    records.append(_guarded("rank-pairing",
                            "signed rank sum realizes the pairing against -1",
                            rank_pairing))
    return records


def _run_tower(cfg: ScenarioConfig):
    dims = cfg.params.get("dims", (16, 32, 64))
    fibers = cfg.params.get("fibers", 2)

    def check():
        tower = callias.tower_scenario(cfg.seeds[0], dims, fibers)
        rep = callias.tower_callias(tower)
        return dict(lhs=rep.integers[-1], rhs=rep.integers[-2],
                    passed=rep.passed, details={"tails": rep.tail_norms})
    return [_guarded(f"tower{dims}",
                     "pairing integers stabilize and projection tails decay",
                     check)]


def _run_appendix(cfg: ScenarioConfig):
    trials = cfg.params.get("trials", 200)
    dims = cfg.params.get("dims", (16, 32, 64))
    a4_eps = cfg.params.get("a4_eps", (0.01, 0.1, 0.4))
    quad_nodes = cfg.params.get("quad_nodes", 128)
    base_seed = cfg.seeds[0]
    records = []

    def draw(idx, offset, dim, envelope):
        """The stack of trial i's random Hermitian (seed base + i + offset)
        for the trial numbers ``idx``."""
        return inequalities.random_hermitian_stack(
            [base_seed + int(i) + offset for i in idx], dim, envelope)

    def trial_suites(period, prepare, checks):
        """Trial suites that share their per-dim work, trial i at dim
        4 + i % period, run one stack per dim and one dim at a time, so
        that only one dim's arrays are alive: ``prepare(dim, idx)`` makes
        the shared arrays of the trial numbers ``idx`` and each
        ``check(shared, dim, idx)`` one suite's stacked report.

        Returns ``record(k)``: suite k's passed trials against trials, with
        its weakest trial (least margin) in details, or the error that
        ended the suite, raised for `_guarded` to judge."""
        passed = np.zeros((len(checks), trials), dtype=bool)
        margin = np.zeros((len(checks), trials))
        errors = [None] * len(checks)
        for dim in range(4, 4 + min(period, trials)):
            idx = np.arange(dim - 4, trials, period)
            try:
                shared = prepare(dim, idx)
            except DiracflowError as exc:
                errors = [err or exc for err in errors]
                break
            for k, check in enumerate(checks):
                if errors[k] is None:
                    try:
                        rep = check(shared, dim, idx)
                    except DiracflowError as exc:
                        errors[k] = exc
                        continue
                    passed[k, idx] = rep.passed
                    margin[k, idx] = rep.margin

        def record(k):
            if errors[k] is not None:
                raise errors[k]
            good = int(np.count_nonzero(passed[k]))
            out = dict(lhs=good, rhs=trials, passed=good == trials)
            if trials:
                i = int(np.argmin(margin[k]))
                out["details"] = {"weakest_trial": i, "seed": base_seed + i,
                                  "dim": 4 + i % period, "margin": float(margin[k, i])}
            return out
        return record

    # interpolation and conjugation draw the same T and decompose it once
    conjugated_norms = functools.cache(lambda: trial_suites(
        9,
        lambda dim, idx: inequalities.positive_decomposition(
            draw(idx, 0, dim, (0.05, 3.0)), idx),
        [lambda pos, dim, idx: inequalities.check_interpolation_stack(
            pos, draw(idx, 10 ** 6, dim, (-2.0, 2.0))),
         lambda pos, dim, idx: inequalities.check_conjugation_stack(
            pos, draw(idx, 2 * 10 ** 6, dim, (-1.0, 1.0)))]))
    records.append(_guarded(
        f"interpolation[{trials}]",
        "half-power conjugated norm is dominated by the full-power one",
        lambda: conjugated_norms()(0)))
    records.append(_guarded(f"conjugation[{trials}]",
                            "operator norm bounded by the conjugated norm",
                            lambda: conjugated_norms()(1)))

    def stability_base(dim, idx):
        """T, raw R, (T + i)^(-1) and F_T, taken once for every eps."""
        t = draw(idx, 0, dim, (-6.0, 6.0))
        return (t, draw(idx, 3 * 10 ** 6, dim, (-1.0, 1.0)),
                inequalities.resolvent_at_i(t), bounded_transform(t))

    def stability(eps):
        def check(base, dim, idx):
            t, raw, res, f_t = base
            r = inequalities.scale_perturbation_stack(t, raw, eps, res)
            return inequalities.check_stability_stack(
                t, t + r, eps, res, f_t, idx)
        return check

    stabilities = functools.cache(lambda: trial_suites(
        12, stability_base, [stability(eps) for eps in a4_eps]))
    for k, eps in enumerate(a4_eps):
        records.append(_guarded(f"transform-stability[eps={eps:g}]",
                                "bounded transform moves at most four epsilon",
                                lambda k=k: stabilities()(k)))

    def schedule():
        tower = TruncationTower(dims, alternating_diag_template,
                                (rank_one_template,))
        rep = inequalities.check_relative_bound_schedule(
            tower, (0.5, 0.1, 0.02), seed=base_seed)
        worst = max(w for (_, _, _, w) in rep.entries)
        return dict(lhs=worst, rhs=0.0, passed=rep.passed, residual=max(0.0, worst))
    records.append(_guarded("relative-bound-schedule",
                            "relative bound with constant epsilon times shift",
                            schedule))

    def tails():
        raw = decaying_rank_template(2, 1.2, seed=base_seed)
        scale = 3.0 / spectral_norm(raw(dims[0]))
        tower = TruncationTower(dims, alternating_diag_template,
                                (lambda n: scale * raw(n),))
        rep = inequalities.check_functional_calculus_tails(tower)
        step = rep.tail_norms["step"]
        return dict(lhs=step[-1], rhs=step[-2], passed=rep.passed,
                    residual=rep.resolvent_residual)
    records.append(_guarded(
        "functional-calculus-tails",
        "transform, resolvent and step differences have decaying tails", tails))

    def compact():
        rep = inequalities.check_compact_strong_convergence(
            dims, exp_decay_template(0.5))
        return dict(lhs=rep.right_norms[-1], rhs=rep.right_norms[-2], passed=True)
    records.append(_guarded(
        "compact-composition",
        "compact templates turn strong convergence into norm convergence", compact))

    def quadrature():
        h = inequalities.random_hermitian_stack([base_seed], 6, (-4.0, 4.0))[0]
        rep = inv_sqrt_via_quadrature(h, quad_nodes)
        return dict(lhs=rep.error, rhs=1e-8, passed=rep.error <= 1e-8,
                    residual=rep.error)
    records.append(_guarded(f"quadrature[{quad_nodes}]",
                            "resolvent quadrature reproduces the inverse square root",
                            quadrature))
    return records


_RUNNERS = {
    "sf": _run_sf,
    "relind": _run_relind,
    "index1d": _run_index1d,
    "cutpaste": _run_cutpaste,
    "callias": _run_callias,
    "tower": _run_tower,
    "appendix": _run_appendix,
}


def run(cfg: ScenarioConfig, jobs: int = 1) -> RunReport:
    """Execute the configured scenario(s) deterministically."""
    names = list(_RUNNERS) if cfg.scenario == "all" else [cfg.scenario]
    # the configured potential, for the gnuplot emitter's branch table: built
    # first, so that a bad potential fails before any check runs
    path = build_potential(cfg) if "sf" in names else None
    if jobs > 1 and len(names) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_RUNNERS[n], cfg) for n in names]
            outputs = [f.result() for f in futures]
    else:
        outputs = [_RUNNERS[n](cfg) for n in names]
    records = [rec for recs in outputs for rec in recs]
    branch_data = None
    if path is not None:
        times, branches = specflow.branch_curves(path)
        branch_data = {"t": times, "branches": branches}
    digest = digest_of({"config": cfg.raw, "seeds": cfg.seeds})
    return RunReport(records=records, inputs_digest=digest,
                     branch_data=branch_data)


def _print_summary(report: RunReport):
    for rec in report.records:
        status = {None: "SKIP"}.get(rec.passed, "PASS" if rec.passed else "FAIL")
        print(f"[{status}] {rec.name}: {rec.anchor} "
              f"(lhs={rec.lhs} rhs={rec.rhs} {rec.seconds:.2f}s)")
    print(f"-- {len(report.records)} checks, {report.n_failed()} failed, "
          f"{report.n_skipped()} skipped")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diracflow",
        description="Numerical index-theory checks for 1-D Dirac-Schrodinger "
                    "operators on finite-dimensional fibers.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a configured scenario")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--format", default="csv,json")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--jobs", type=int, default=1)
    sub.add_parser("list-scenarios", help="list scenario names")
    desc_p = sub.add_parser("describe", help="describe one scenario")
    desc_p.add_argument("scenario")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name, blurb in SCENARIOS.items():
            print(f"{name:10s} {blurb}")
        return 0
    if args.command == "describe":
        if args.scenario not in SCENARIOS:
            print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
            return 2
        print(f"{args.scenario}: {SCENARIOS[args.scenario]}")
        return 0

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        if args.seed is not None:
            _seed(args.seed, "--seed")
            cfg.seeds = list(range(args.seed, args.seed + len(cfg.seeds)))
            cfg.raw = dict(cfg.raw, seeds={"base": args.seed,
                                           "count": len(cfg.seeds)})
        formats = check_formats(f.strip() for f in args.format.split(",") if f.strip())
        report = run(cfg, jobs=max(1, args.jobs))
    except (DiracflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else cfg.out_dir
    emit(report, out_dir, formats, emit_timings=cfg.emit_timings)
    _print_summary(report)
    return 1 if report.n_failed() else 0


if __name__ == "__main__":
    sys.exit(main())
