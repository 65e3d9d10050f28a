"""Branch matching by eigenvector overlap, the refinement that localises
crossings, and the samples and decompositions that branch tracking, the
endpoint identity and the invertibility declaration take of a path."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracflow import scenarios, specflow, surgery
from diracflow.dirac1d import GridSpec, assemble, path_index_report
from diracflow.inequalities import random_unitary
from diracflow.specflow import (
    PotentialPath,
    _match_columns,
    _tracked_branches,
    branch_curves,
    endpoint_identity,
    random_smooth_path,
    sf_crossings,
    tanh_path,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def argmax_reference(va, vb, margin=0.1):
    """Plain row-argmax matching: each row picks its first largest overlap;
    refuse when that overlap is within ``margin`` of another in its row, or
    when two rows pick the same column."""
    o = np.abs(va.conj().T @ vb)
    kk = o.shape[0]
    perm = []
    for i in range(kk):
        j = max(range(kk), key=lambda jj: (float(o[i, jj]), -jj))
        alts = [float(o[i, jj]) for jj in range(kk) if jj != j]
        if alts and float(o[i, j]) - max(alts) < margin:
            return None
        perm.append(j)
    return perm if len(set(perm)) == kk else None


def greedy_reference(va, vb, margin=0.1):
    """Plain greedy matching: visit all (overlap, row, column) triples by
    decreasing overlap, then row, then column; refuse when the chosen
    overlap is within ``margin`` of another unmatched column in its row."""
    o = np.abs(va.conj().T @ vb)
    kk = o.shape[0]
    order = sorted(((float(o[i, j]), i, j) for i in range(kk) for j in range(kk)),
                   key=lambda x: (-x[0], x[1], x[2]))
    perm, used_rows, used_cols = [-1] * kk, set(), set()
    for val, i, j in order:
        if i in used_rows or j in used_cols:
            continue
        alts = [float(o[i, jj]) for jj in range(kk) if jj != j and jj not in used_cols]
        if alts and val - max(alts) < margin:
            return None
        perm[i] = j
        used_rows.add(i)
        used_cols.add(j)
    return perm


# a few levels, so that ties and near-ties are common
LEVELS = st.sampled_from([0.0, 0.05, 0.1, 0.15, 0.3, 0.5, 0.55, 0.9, 1.0])


@st.composite
def overlap_matrices(draw):
    k = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(LEVELS, min_size=k, max_size=k), min_size=k, max_size=k))
    return np.array(rows, dtype=np.complex128)


@SETTINGS
@given(overlap_matrices())
def test_matches_greedy_reference_on_tied_overlaps(m):
    eye = np.eye(m.shape[0], dtype=np.complex128)
    perm = _match_columns(eye, m)
    assert perm == argmax_reference(eye, m)
    # the rule refines greedy elimination: where it matches, greedy agrees
    if perm is not None:
        assert greedy_reference(eye, m) == perm


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 24), st.floats(0.0, 0.6))
def test_matches_greedy_reference_on_nearby_bases(seed, k, spread):
    rng = np.random.default_rng(seed)
    va = random_unitary(rng, k)
    kick = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    vb = np.linalg.qr(va + spread * kick)[0][:, rng.permutation(k)]
    perm = _match_columns(va, vb)
    assert perm == argmax_reference(va, vb)
    if perm is not None:
        assert greedy_reference(va, vb) == perm


def recorder(rule):
    """(recorded, sampled, calls): a stacked rule that forwards to ``rule``,
    the count of each t it was asked for, and the size of each call."""
    sampled, calls = Counter(), []

    def recorded(ts):
        sampled.update(ts.tolist())
        calls.append(ts.size)
        return rule(ts)

    return recorded, sampled, calls


def recording_path(sampler, grid, support):
    recorded, sampled, _ = recorder(sampler)
    return PotentialPath(1, grid, recorded, support=support), sampled


def test_crossing_refinement_starts_from_the_tracked_samples():
    # one crossing of t -> t - 0.3 inside the window [0.25, 0.375]
    grid = np.linspace(0.0, 1.0, 9)
    path, calls = recording_path(lambda ts: (ts - 0.3)[:, None, None], grid, ((0.0, 1.0),))
    flow, report = sf_crossings(path)
    assert flow == 1 and len(report.crossings) == 1
    # each interior grid sample is evaluated once, by branch tracking
    assert all(calls[float(t)] == 1 for t in grid[1:-1])


def test_least_gap_is_measured_once_per_path():
    path = tanh_path()
    path.sampler, sampled, calls = recorder(path.sampler)
    GridSpec.auto(path)
    # one pass over the grid, inside K too
    assert sampled == Counter(float(t) for t in path.grid)
    sampled.clear()
    calls.clear()
    for lam in (1.0, 2.0):
        path_index_report(path, GridSpec(8.0, 64), lam)
    assemble(path, GridSpec(8.0, 64), "dirichlet")
    # only the APS endpoint nodes and midpoints, no second pass over the grid
    assert sum(sampled.values()) == 2 * (64 + 2)
    # one rule call per APS assembly for all its midpoints and both end nodes
    assert calls == [64 + 2, 64 + 2]


def test_grid_pass_calls_the_rule_once_per_chunk(monkeypatch):
    # three 2 x 2 samples per chunk: 11 samples in chunks of 3, 3, 3 and 2
    monkeypatch.setattr(specflow, "_CHUNK_BYTES", 3 * 16 * 2 * 2)
    path = random_smooth_path(4, 2, n_samples=11)
    path.sampler, sampled, calls = recorder(path.sampler)
    path._grid_pass()
    assert calls == [3, 3, 3, 2]
    assert sampled == Counter(float(t) for t in path.grid)


def test_endpoint_identity_takes_one_pass_per_path(monkeypatch):
    path = random_smooth_path(17, 5)
    recorded, sampled, _ = recorder(path.sampler)

    def forbidden(*args, **kwargs):
        raise AssertionError("the grid pass already holds this decomposition")

    stacked, single = [], []
    real_eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        (stacked if np.ndim(a) == 3 else single).append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    path.sampler = recorded
    # specflow no longer imports these; set them anyway, so a call that
    # comes back through either name still fails
    monkeypatch.setattr(specflow, "positive_projection", forbidden, raising=False)
    monkeypatch.setattr(specflow, "spectral_gap", forbidden, raising=False)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    rep = endpoint_identity(path)
    assert rep.passed and rep.crossings.crossings
    grid = {float(t) for t in path.grid}
    assert all(sampled[t] == 1 for t in grid)
    # 64 samples of 5 x 5 fill one chunk
    assert stacked == [(64, 5, 5)]
    # every other eigh is a refined sample, one per sample taken off the
    # grid
    assert len(single) == sum(n for t, n in sampled.items() if t not in grid) > 0


def collar_paths(seed, k):
    """m1 of ``collar_pair(seed, k)`` and its cut-paste product m3."""
    m1, m2, t_cut = scenarios.collar_pair(seed, k)
    return m1, surgery.cut_paste(m1, m2, t_cut)[0]


# Paths whose grid match pairs a negative with a positive eigenvalue across
# an avoided crossing, with decisive overlaps: the refinement re-tracks the
# step instead of looking for a zero that the adiabatic branches never reach.
@pytest.mark.parametrize("make, expected", [
    (lambda: collar_paths(1718458259, 5)[0], 1),
    (lambda: collar_paths(1718458259, 5)[1], 1),
    (lambda: collar_paths(134, 5)[0], 0),
    (lambda: collar_paths(134, 5)[1], 0),
    (lambda: scenarios.chain_path(41, 6, n_intervals=3), 0),
    (lambda: scenarios.chain_path(83, 6, n_intervals=3), -1),
], ids=["collar-1718458259-m1", "collar-1718458259-m3", "collar-134-m1",
        "collar-134-m3", "chain-41", "chain-83"])
def test_step_paired_across_an_avoided_crossing_is_retracked(make, expected):
    rep = endpoint_identity(make())
    assert (rep.sf_by_crossings, rep.sf_by_partition, rep.endpoint_rel_index) == \
        (expected,) * 3


def avoided_crossing_path(gap, n_samples, t0, mu, c):
    """[[t - t0 + mu, gap], [gap, t0 - t + mu]] (+) (t - c) on [-1, 1].  The
    2 x 2 block has the eigenvalues mu +- sqrt((t - t0)^2 + gap^2): its
    branches avoid each other at t0 around mu, within gap of zero, and never
    cross zero; the last entry crosses it once, upward, at c."""
    def sampler(ts):
        out = np.zeros((ts.size, 3, 3), dtype=np.complex128)
        out[:, 0, 0] = ts - t0 + mu
        out[:, 1, 1] = t0 - ts + mu
        out[:, 0, 1] = out[:, 1, 0] = gap
        out[:, 2, 2] = ts - c
        return out

    return PotentialPath(3, np.linspace(-1.0, 1.0, n_samples), sampler,
                         support=((-1.0, 1.0),), name="avoided-crossing")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(-7.0, -3.0), st.integers(3, 40), st.floats(-0.5, 0.5),
       st.floats(-0.9, 0.9), st.floats(-0.5, 0.5))
def test_avoided_crossing_near_zero_on_a_coarse_grid(log_gap, n_samples, t0, frac, c):
    gap = 10.0 ** log_gap
    path = avoided_crossing_path(gap, n_samples, t0, frac * gap, c)
    # no grid sample inside the avoided crossing: the grid match pairs the
    # diabatic states across it, a negative eigenvalue with a positive one
    assume(np.min(np.abs(path.grid - t0)) > 10.0 * gap)
    assume(np.min(np.abs(path.grid - c)) > 1e-6)
    rep = endpoint_identity(path)
    assert (rep.sf_by_crossings, rep.sf_by_partition, rep.endpoint_rel_index) == (1, 1, 1)
    # the only crossing is the decoupled entry's, within _CROSSING_TOL of zero
    (crossing,) = rep.crossings.crossings
    assert crossing.slope_sign == 1 and abs(crossing.t - c) <= 1e-8


def test_refined_samples_per_crossing_on_the_sf_scenario(monkeypatch):
    single = []
    real_eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        if np.ndim(a) == 2:
            single.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    # the paths of the sf scenario's default config (seeds 0..7, k = 4)
    n_crossings = sum(
        len(endpoint_identity(random_smooth_path(seed, 1 + (seed + 4) % 8)).crossings.crossings)
        for seed in range(8))
    # every eigh off the grid pass is one refined sample: 4.75 per crossing,
    # as the regula-falsi split may land within 1/256 of either end of a step
    assert (n_crossings, len(single)) == (12, 57)


def rotation_loop(n_modes):
    """S(t) = D (x) 1_2 + 1/2 + u(t) (1 (x) -iJ) on [-3, 3], 121 samples,
    with D = diag(-N..N) the truncated circle Dirac operator and u a cubic
    smoothstep from 0 at t = -1 to 1 at t = 1.  Up to t = -1 every
    eigenvalue m + 1/2 is doubly degenerate, at least 1/2 from zero, and
    `eigh` returns an arbitrary basis of each pair; the ramp splits the
    pairs into m + 1/2 -+ u.  Two branches cross zero at t = 0, one each
    way."""
    k = 2 * (2 * n_modes + 1)
    d = np.kron(np.diag(np.arange(-n_modes, n_modes + 1.0)), np.eye(2)) + 0.5 * np.eye(k)
    rot = np.kron(np.eye(2 * n_modes + 1), np.array([[0.0, -1j], [1j, 0.0]]))

    def sampler(ts):
        x = np.clip((ts + 1.0) / 2.0, 0.0, 1.0)
        return d + (x * x * (3.0 - 2.0 * x))[:, None, None] * rot

    return PotentialPath(k, np.linspace(-3.0, 3.0, 121), sampler,
                         support=((-1.0, 1.0),), name="rotation-loop")


def test_degenerate_pairs_far_from_zero_are_not_matched():
    # the pairs split at t = -1 lie outside every step's Weyl window, so no
    # overlap of their arbitrary bases is taken
    rep = endpoint_identity(rotation_loop(2))
    assert (rep.sf_by_crossings, rep.sf_by_partition, rep.endpoint_rel_index) == (0, 0, 0)
    assert sorted(c.slope_sign for c in rep.crossings.crossings) == [-1, 1]


def test_branch_curves_on_the_rotation_loop():
    # the doubly degenerate start, which an all-columns match cannot follow;
    # both crossings lie on the grid sample t = 0
    path = rotation_loop(2)
    times, values = branch_curves(path)
    assert times == path.grid.tolist()
    assert len(values) == path.k and all(len(v) == path.grid.size for v in values)


def test_branch_curves_are_the_crossing_routes_branches():
    # an sf scenario path (seed 1 of the default config) with crossings
    # between grid samples
    path = random_smooth_path(1, 6)
    times, values = branch_curves(path)
    ts, _, vals = _tracked_branches(path, *path._grid_pass())
    assert times == ts.tolist() and values == vals.tolist()
    crossings = sf_crossings(path)[1].crossings
    assert any(c.depth for c in crossings)
    for c in crossings:
        assert abs(values[c.branch][times.index(c.t)]) <= specflow._CROSSING_TOL
