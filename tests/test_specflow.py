import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diracflow import opcore, scenarios, specflow
from diracflow.callias import tower_family, tower_scenario
from diracflow.errors import (
    InvalidInput,
    NotInvertible,
    RefineGrid,
)
from diracflow.opcore import (
    eigh,
    positive_projection,
    spectral_gap,
)
from diracflow.relindex import rel_index
from diracflow.specflow import (
    PotentialPath,
    concat_paths,
    constant_path,
    conjugated_path,
    diagonal_path,
    endpoint_identity,
    linear_scalar_path,
    path_from_samples,
    perturbed_path,
    random_smooth_path,
    reversed_path,
    sf_crossings,
    sf_partition,
)


def gap_level_loop(eigs, min_width):
    """`specflow._gap_level` one gap at a time: the first gap with the
    highest positive score wins."""
    vals = np.sort(eigs)
    best, best_score = None, 0.0
    for lo, hi in zip(vals, vals[1:]):
        width = hi - lo
        if width < min_width:
            continue
        mid = 0.5 * (lo + hi)
        score = float(width / (1.0 + mid * mid))
        if score > best_score:
            best, best_score = float(mid), score
    return best, best_score


def tower_fiber(k):
    """Fiber 0 of the seed-3 tower family at dimension k: 41 grid samples,
    constant for t <= -1 and for t >= 1."""
    return tower_family(tower_scenario(3, (k,)), k)[0]


def grid_pass_loop(p):
    """`PotentialPath._grid_pass` one sample at a time, repeats included:
    (spectra, vectors, steps)."""
    samples = [p.sample(t) for t in p.grid]
    pairs = [eigh(s) for s in samples]
    steps = [np.abs(np.linalg.eigvalsh(b - a)).max() for a, b in zip(samples, samples[1:])]
    return (np.array([w for w, _ in pairs]), np.array([v for _, v in pairs]),
            np.array(steps))


def count_rows(monkeypatch):
    """Count the matrices that the grid pass hands to `_decompose` and to
    `np.linalg.eigvalsh`."""
    rows = {"decompose": 0, "eigvalsh": 0}
    decompose, eigvalsh = specflow._decompose, np.linalg.eigvalsh

    def counted_decompose(a):
        rows["decompose"] += a.shape[0]
        return decompose(a)

    def counted_eigvalsh(a, *args, **kwargs):
        rows["eigvalsh"] += a.shape[0]
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(specflow, "_decompose", counted_decompose)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return rows


class TestPotentialPath:
    def test_constant_extension_beyond_grid(self):
        p = linear_scalar_path()
        assert p.sample(5.0) == pytest.approx(p.sample(1.0))
        assert p.sample(-5.0) == pytest.approx(p.sample(0.0))

    def test_least_gap_outside_matches_per_sample_gaps(self):
        p = random_smooth_path(8, 4)
        p = PotentialPath(4, p.grid, p.sampler, support=((0.3, 0.6),))
        reference = min((spectral_gap(p.sample(t)), float(t)) for t in p.grid
                        if not p.in_support(t))
        t, gap = p.least_gap_outside()
        assert t == reference[1] and gap == pytest.approx(reference[0], rel=1e-12)

    def test_least_gap_outside_rejects_non_finite_sample(self):
        p = PotentialPath(1, np.linspace(0, 1, 5),
                          lambda ts: np.where(ts == 0.75, np.nan, 1.0)[:, None, None])
        with pytest.raises(InvalidInput, match="t=0.75"):
            p.least_gap_outside()

    def test_least_gap_outside_empty_when_all_in_support(self):
        p = PotentialPath(1, np.linspace(0, 1, 5), lambda ts: ts[:, None, None],
                          support=((0.0, 1.0),))
        assert p.least_gap_outside() == (None, float("inf"))

    def test_support_normalization(self):
        p = PotentialPath(1, [0, 1], lambda ts: np.ones((ts.size, 1, 1)),
                          support=(0.2, 0.4))
        assert p.support == ((0.2, 0.4),)
        assert p.hull() == (0.2, 0.4)


class TestGridPass:
    @pytest.mark.parametrize("k", [1, 5, 64])
    def test_matches_per_sample_eigh_across_chunk_seams(self, k, monkeypatch):
        # three samples per chunk: the 11 samples cross three seams and end
        # on a partial chunk
        monkeypatch.setattr(specflow, "_CHUNK_BYTES", 3 * 16 * k * k)
        p = random_smooth_path(k, k, n_samples=11)
        spectra, vectors, steps = p._grid_pass()
        samples = [p.sample(t) for t in p.grid]
        for s, w, v in zip(samples, spectra, vectors):
            w_ref, v_ref = eigh(s)
            np.testing.assert_array_equal(w, w_ref)
            np.testing.assert_array_equal(v, v_ref)
        # the stacked step formula: in-place differences, last first
        stacked = np.array(samples)
        for j in range(stacked.shape[0] - 1, 0, -1):
            stacked[j] -= stacked[j - 1]
        np.testing.assert_array_equal(
            steps, np.abs(np.linalg.eigvalsh(stacked[1:])).max(axis=1))
        cached = p._grid_spectra()
        assert cached[0] is spectra and cached[1] is steps

    def test_tiny_eig_tol_names_the_worst_sample(self, monkeypatch):
        monkeypatch.setattr(specflow, "_CHUNK_BYTES", 2 * 16 * 16 ** 2)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        dense = a + a.conj().T
        mostly_diagonal = np.diag(np.arange(1.0, 17.0)).astype(np.complex128)
        mostly_diagonal[:2, :2] = dense[:2, :2]
        # diagonal samples decompose exactly; the 2 x 2 block at t = 0.25 (in
        # the second chunk) leaves a defect about 12 times smaller than the
        # dense sample at t = 0.625 (in the third)
        p = PotentialPath(16, np.linspace(0, 1, 9),
                          lambda ts: np.stack([{0.25: mostly_diagonal, 0.625: dense}.get(
                              t, np.diag(np.arange(1.0, 17.0) + t)) for t in ts.tolist()]))
        p._grid_pass()
        monkeypatch.setattr(opcore, "_EIG_TOL", 1e-300)
        with pytest.raises(InvalidInput, match=r"at t=0\.625 exceed eig_tol"):
            p._grid_pass()

    def test_non_finite_sample_in_second_chunk_is_named(self, monkeypatch):
        monkeypatch.setattr(specflow, "_CHUNK_BYTES", 4 * 16 * 4)
        p = PotentialPath(2, np.linspace(0, 1, 9),
                          lambda ts: np.stack([np.diag([np.nan if t == 0.75 else 1.0, -1.0])
                                             for t in ts.tolist()]))
        with pytest.raises(InvalidInput, match=r"t=0\.75 has non-finite"):
            p._grid_pass()

    @pytest.mark.parametrize("make", [
        lambda: tower_fiber(32),     # four samples per chunk
        lambda: tower_fiber(64),     # one sample per chunk: every repeat is on a seam
        lambda: random_smooth_path(4, 6, n_samples=41),    # no repeats
    ], ids=["tower-k32", "tower-k64", "no-repeats"])
    def test_repeats_match_a_per_sample_loop(self, make):
        p = make()
        spectra, vectors, steps = p._grid_pass()
        ref_spectra, ref_vectors, ref_steps = grid_pass_loop(p)
        np.testing.assert_array_equal(spectra, ref_spectra)
        np.testing.assert_array_equal(vectors, ref_vectors)
        np.testing.assert_array_equal(steps, ref_steps)

    def test_decompose_sees_only_the_distinct_samples(self, monkeypatch):
        # a tower fiber is constant on [-2.5, -1] and on [1, 2.5]: 13 samples
        # each, so 24 of its 41 samples repeat the one before them
        p = tower_fiber(32)
        rows = count_rows(monkeypatch)
        p._grid_pass()
        assert rows["decompose"] == 17
        # a repeat's step is 0.0 without an eigvalsh
        assert rows["eigvalsh"] == 16

    def test_a_signed_zero_is_not_a_repeat(self, monkeypatch):
        # the samples at t = 1 and t = 2 differ from the one at t = 0 only in
        # the sign of the imaginary part of entry (0, 1), which is zero (a
        # real part of -0.0 would not survive the hermitisation)
        def sampler(ts):
            s = np.tile(np.diag([1.0, 2.0]).astype(np.complex128), (ts.size, 1, 1))
            s[ts > 0.0, 0, 1] = complex(0.0, -0.0)
            return s

        p = PotentialPath(2, [0.0, 1.0, 2.0], sampler)
        s = p.samples(p.grid)
        assert np.signbit(s[1:, 0, 1].imag).all() and not np.signbit(s[0, 0, 1].imag)
        assert np.array_equal(s[0], s[1])
        np.testing.assert_array_equal(opcore._repeats(s), [False, False, True])
        rows = count_rows(monkeypatch)
        p._grid_pass()
        assert rows["decompose"] == 2

    def test_certificate_failure_on_a_repeat_names_the_first_t_of_its_run(
            self, monkeypatch):
        # two samples per chunk; the dense sample repeats on t = 0.375 ...
        # 0.75, a run that starts inside a chunk and crosses two seams, and
        # is the only sample that does not decompose exactly
        monkeypatch.setattr(specflow, "_CHUNK_BYTES", 2 * 16 * 16 ** 2)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        dense = a + a.conj().T
        p = PotentialPath(16, np.linspace(0, 1, 9), lambda ts: np.stack([
            dense if 0.375 <= t <= 0.75 else np.diag(np.arange(1.0, 17.0) + t)
            for t in ts.tolist()]))
        monkeypatch.setattr(opcore, "_EIG_TOL", 1e-300)
        with pytest.raises(InvalidInput, match=r"at t=0\.375 exceed eig_tol"):
            p._grid_pass()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 6),
           a0=st.floats(-4.0, 4.0), a1=st.floats(-4.0, 4.0))
    def test_junction_count_is_the_shifted_relative_index(self, seed, k, a0, a1):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        s = a + a.conj().T
        w = np.linalg.eigvalsh(s)
        assume(min(np.abs(w - a0).min(), np.abs(w - a1).min()) >= opcore._PROJ_GAP_TOL)
        p = constant_path(s)
        spectra, _ = p._grid_spectra()
        eye = np.eye(k)
        # ind(S, -a0*1, -a1*1) = rel-ind(P_+(S - a1), P_+(S - a0))
        expected = rel_index(positive_projection(s - a1 * eye),
                             positive_projection(s - a0 * eye))
        assert specflow._junction(p, spectra, 0, a0, a1) == expected

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(eigs=st.lists(st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0]),
                                   st.floats(-1e3, 1e3)), max_size=10),
           min_width=st.sampled_from([0.0, 1e-9, 0.1, 0.5, 1.0, 3.0]))
    def test_gap_level_equals_the_loop_over_gaps(self, eigs, min_width):
        # tied levels give equal widths and mirrored midpoints, so equal
        # scores: the first of them must win, as in the loop
        assert specflow._gap_level(np.array(eigs), min_width) == \
            gap_level_loop(np.array(eigs), min_width)

    def test_junction_inside_gap_is_not_invertible(self):
        p = constant_path(np.diag([1.0, -1.0]))
        spectra, _ = p._grid_spectra()
        # a1 is checked before a0
        with pytest.raises(NotInvertible, match=r"t=0\) - -1: eigenvalue"):
            specflow._junction(p, spectra, 0, 1.0 + 1e-9, -1.0 - 1e-9)
        with pytest.raises(NotInvertible, match=r"t=0\) - 1: eigenvalue"):
            specflow._junction(p, spectra, 0, 1.0 + 1e-9, 0.0)


class TestCrossings:
    def test_constant_invertible(self):
        p = constant_path(np.diag([1.0, -2.0]))
        n, rep = sf_crossings(p)
        assert n == 0 and rep.crossings == ()

    def test_scalar_linear(self):
        n, rep = sf_crossings(linear_scalar_path())
        assert n == 1
        assert len(rep.crossings) == 1
        c = rep.crossings[0]
        assert c.slope_sign == 1
        assert abs(c.t - 0.5) <= 1e-6

    def test_opposite_pair(self):
        p = diagonal_path([lambda t: 2 * t - 1, lambda t: 1 - 2 * t],
                          (0, 1), 33, support=((0, 1),))
        n, rep = sf_crossings(p)
        assert n == 0
        assert sorted(c.slope_sign for c in rep.crossings) == [-1, 1]

    def test_crossing_refined_below_tol(self):
        # four crossings (seed 12 had none, so its loop never ran)
        p = random_smooth_path(18, 5)
        _, rep = sf_crossings(p)
        assert len(rep.crossings) == 4
        for c in rep.crossings:
            w = np.linalg.eigvalsh(p.sample(c.t))
            assert np.abs(w).min() <= specflow._CROSSING_TOL

    def test_endpoint_not_invertible(self):
        p = PotentialPath(1, np.linspace(0, 1, 9), lambda ts: ts[:, None, None])
        with pytest.raises(NotInvertible):
            sf_crossings(p)

    def test_tangential_touch_is_no_crossing(self):
        p = PotentialPath(1, np.linspace(-1, 1, 33),
                          lambda ts: (ts * ts + 1e-12)[:, None, None],
                          support=((-1, 1),))
        n, _ = sf_crossings(p)
        assert n == 0

    def test_discontinuous_sampler_exhausts_refinement(self):
        theta = np.deg2rad(44.0)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        base = np.diag([1.0, -1.0])
        jumped = rot @ base @ rot.T

        p = PotentialPath(2, np.linspace(0, 1, 9),
                          lambda ts: np.where((ts < 0.437)[:, None, None], base, jumped),
                          support=((0, 1),))
        with pytest.raises(RefineGrid):
            sf_crossings(p)


class TestPartition:
    def test_grid_spectra_match_per_sample_reference(self):
        p = random_smooth_path(5, 4)
        spectra, steps = p._grid_spectra()
        samples = [p.sample(t) for t in p.grid]
        np.testing.assert_allclose(spectra, [np.linalg.eigvalsh(s) for s in samples],
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            steps, [np.linalg.norm(b - a, 2) for a, b in zip(samples, samples[1:])],
            rtol=1e-12)

    def test_constant(self):
        assert sf_partition(constant_path(np.diag([2.0, -1.0]))) == 0

    def test_scalar_linear(self):
        assert sf_partition(linear_scalar_path()) == 1

    def test_matches_crossings_on_random_path(self):
        p = random_smooth_path(21, 6)
        n_cross, _ = sf_crossings(p)
        assert sf_partition(p) == n_cross

    def test_refinement_invariance_explicit(self):
        p = random_smooth_path(4, 4)
        assert sf_partition(p, n_chunks=3) == sf_partition(p, n_chunks=11)


class TestEndpointIdentity:
    def test_constant(self):
        rep = endpoint_identity(constant_path(np.diag([1.0, -1.0])))
        assert rep.passed
        assert (rep.sf_by_crossings, rep.sf_by_partition,
                rep.endpoint_rel_index) == (0, 0, 0)

    def test_linear(self):
        rep = endpoint_identity(linear_scalar_path())
        assert rep.passed
        assert rep.endpoint_rel_index == 1

    def test_seeded_batch(self):
        for seed in range(40):
            rep = endpoint_identity(random_smooth_path(seed, 1 + seed % 8))
            assert rep.passed, f"seed {seed}: {rep}"


# Properties of the flow over seeded paths, drawn the same way on every run.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
SEEDED_PATHS = dict(seed=st.integers(0, 10_000), k=st.integers(1, 6))


class TestPathAlgebra:
    def test_concatenation_additivity(self):
        p1 = linear_scalar_path()
        # continue from +1 upward through another crossing of 3 - 2t... no:
        # use a path starting exactly at p1's endpoint value +1
        grid = np.linspace(0.0, 1.0, 33)
        p2 = PotentialPath(1, grid, lambda ts: (1.0 - 3.0 * ts)[:, None, None],
                           support=((0.0, 1.0),))
        n1, _ = sf_crossings(p1)
        n2, _ = sf_crossings(p2)
        n12, _ = sf_crossings(concat_paths(p1, p2))
        assert n12 == n1 + n2 == 0

    @PROPERTY
    @example(seed=17, k=5)
    @given(**SEEDED_PATHS)
    def test_reversal(self, seed, k):
        p = random_smooth_path(seed, k)
        n, _ = sf_crossings(p)
        nr, _ = sf_crossings(reversed_path(p))
        assert nr == -n
        # the explicit example has a non-zero flow, so a sign error shows
        assert n != 0 or (seed, k) != (17, 5)

    @PROPERTY
    @given(**SEEDED_PATHS)
    def test_unitary_conjugation(self, seed, k):
        p = random_smooth_path(seed, k)
        rng = np.random.default_rng(seed + 1)
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        w, v = np.linalg.eigh(a + a.conj().T)
        w *= 2.0 / np.abs(w).max()

        def unitary(ts):
            # exp(i t H) for a seeded Hermitian H of norm 2
            return (v * np.exp(1j * np.outer(ts, w))[:, None, :]) @ v.conj().T

        n, _ = sf_crossings(p)
        nc, _ = sf_crossings(conjugated_path(p, unitary))
        assert nc == n

    @PROPERTY
    @given(**SEEDED_PATHS, bump_seed=st.integers(0, 1000))
    def test_small_perturbation_keeps_flow(self, seed, k, bump_seed):
        # a seeded bump supported inside K = [0, 1], away from the endpoints
        p = random_smooth_path(seed, k)
        bump, r = scenarios.bump_perturbation(bump_seed, p)
        n, _ = sf_crossings(p)
        nq, _ = sf_crossings(perturbed_path(p, bump, r))
        assert nq == n

    def test_bump_needs_a_support(self):
        with pytest.raises(InvalidInput, match="empty support"):
            scenarios.bump_perturbation(0, constant_path(np.eye(2)))

    def test_path_from_samples_interpolates(self):
        grid = np.linspace(0, 1, 9)
        mats = [np.array([[2.0 * t - 1.0]]) for t in grid]
        p = path_from_samples(grid, mats, support=((0, 1),))
        n, _ = sf_crossings(p)
        assert n == 1
