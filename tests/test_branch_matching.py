"""Branch matching by eigenvector overlap, and the samples and
decompositions that branch tracking, the endpoint identity and the
invertibility declaration take of a path."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diracflow import specflow
from diracflow.dirac1d import GridSpec, assemble, lambda_sweep
from diracflow.inequalities import random_unitary
from diracflow.specflow import (
    PotentialPath,
    _match_columns,
    endpoint_identity,
    random_smooth_path,
    sf_crossings,
    tanh_path,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


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
    assert _match_columns(eye, m) == greedy_reference(eye, m)


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 24), st.floats(0.0, 0.6))
def test_matches_greedy_reference_on_nearby_bases(seed, k, spread):
    rng = np.random.default_rng(seed)
    va = random_unitary(rng, k)
    kick = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    vb = np.linalg.qr(va + spread * kick)[0][:, rng.permutation(k)]
    assert _match_columns(va, vb) == greedy_reference(va, vb)


def recording_path(sampler, grid, support):
    calls = Counter()

    def recorded(t):
        calls[t] += 1
        return sampler(t)

    return PotentialPath(1, grid, recorded, support=support), calls


def test_bisection_starts_from_the_tracked_sample():
    # one crossing of t -> t - 0.3 inside the window [0.25, 0.375]
    grid = np.linspace(0.0, 1.0, 9)
    path, calls = recording_path(lambda t: np.array([[t - 0.3]]), grid, ((0.0, 1.0),))
    flow, report = sf_crossings(path)
    assert flow == 1 and len(report.crossings) == 1
    # each interior grid sample is evaluated once, by branch tracking
    assert all(calls[float(t)] == 1 for t in grid[1:-1])


def test_least_gap_is_measured_once_per_path():
    path = tanh_path()
    sampled = Counter()
    sampler = path.sampler

    def recorded(t):
        sampled[t] += 1
        return sampler(t)

    path.sampler = recorded
    GridSpec.auto(path)
    # one pass over the grid, inside K too
    assert sampled == Counter(float(t) for t in path.grid)
    sampled.clear()
    lambda_sweep(path, [1.0, 2.0], GridSpec(8.0, 64))
    assemble(path, GridSpec(8.0, 64), "dirichlet")
    # only the APS endpoint nodes and midpoints, no second pass over the grid
    assert sum(sampled.values()) == 2 * (64 + 2)


def test_endpoint_identity_takes_one_pass_per_path(monkeypatch):
    path = random_smooth_path(17, 5)
    sampled = Counter()
    sampler = path.sampler

    def recorded(t):
        sampled[t] += 1
        return sampler(t)

    def forbidden(*args, **kwargs):
        raise AssertionError("the grid pass already holds this decomposition")

    stacked, single = [], []
    real_eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        (stacked if np.ndim(a) == 3 else single).append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    path.sampler = recorded
    monkeypatch.setattr(specflow, "positive_projection", forbidden)
    monkeypatch.setattr(specflow, "spectral_gap", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    rep = endpoint_identity(path)
    assert rep.passed and rep.crossings.crossings
    grid = {float(t) for t in path.grid}
    assert all(sampled[t] == 1 for t in grid)
    # 64 samples of 5 x 5 fill one chunk
    assert stacked == [(64, 5, 5)]
    # every other eigh is a refinement midpoint or a bisection step, one
    # per sample taken off the grid
    assert len(single) == sum(n for t, n in sampled.items() if t not in grid) > 0
