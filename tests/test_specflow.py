from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracflow import specflow
from diracflow.errors import (
    InvalidInput,
    NotInvertible,
    RefineGrid,
    ShiftFailure,
)
from diracflow.inequalities import random_unitary
from diracflow.opcore import (
    DEFAULT_TOL,
    HermitianOperator,
    Tolerances,
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
    ind_triple,
    linear_scalar_path,
    make_trivialising_endpoint,
    make_trivialising_gapshift,
    path_from_samples,
    perturbed_path,
    random_smooth_path,
    reversed_path,
    sf_crossings,
    sf_partition,
)


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
                          lambda t: np.array([[np.nan if t == 0.75 else 1.0]]))
        with pytest.raises(InvalidInput, match="t=0.75"):
            p.least_gap_outside()

    def test_least_gap_outside_empty_when_all_in_support(self):
        p = PotentialPath(1, np.linspace(0, 1, 5), lambda t: np.array([[t]]),
                          support=((0.0, 1.0),))
        assert p.least_gap_outside() == (None, float("inf"))

    def test_support_normalization(self):
        p = PotentialPath(1, [0, 1], lambda t: np.array([[1.0]]),
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
        spectra, vectors, steps = p._grid_pass(DEFAULT_TOL)
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
                          lambda t: {0.25: mostly_diagonal, 0.625: dense}.get(
                              t, np.diag(np.arange(1.0, 17.0) + t)))
        p._grid_pass(DEFAULT_TOL)
        with pytest.raises(InvalidInput, match=r"at t=0\.625 exceed eig_tol"):
            p._grid_pass(Tolerances(eig_tol=1e-300))

    def test_non_finite_sample_in_second_chunk_is_named(self, monkeypatch):
        monkeypatch.setattr(specflow, "_CHUNK_BYTES", 4 * 16 * 4)
        p = PotentialPath(2, np.linspace(0, 1, 9),
                          lambda t: np.diag([np.nan if t == 0.75 else 1.0, -1.0]))
        with pytest.raises(InvalidInput, match=r"t=0\.75 has non-finite"):
            p._grid_pass(DEFAULT_TOL)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 6))
    def test_junctions_match_positive_projection_and_ind_triple(self, seed, k):
        path = random_smooth_path(seed, k, n_samples=24)
        real = specflow._projection_above
        calls = []

        def recorded(t, w, v, a, gap_tol):
            p = real(t, w, v, a, gap_tol)
            calls.append((t, a, p))
            return p

        with mock.patch.object(specflow, "_projection_above", recorded):
            sf_partition(path)
        # each junction term is rel_index(P_+(S - a1), P_+(S - a0)), in that order
        assert calls and len(calls) % 2 == 0
        eye = np.eye(k)
        for (t, a1, p1), (t0, a0, p0) in zip(calls[::2], calls[1::2]):
            assert t0 == t
            s = path.sample(t)
            for a, p in ((a1, p1), (a0, p0)):
                np.testing.assert_allclose(p.entries, positive_projection(s - a * eye).entries,
                                           rtol=0, atol=1e-12)
            assert rel_index(p1, p0) == ind_triple(s, -a0 * eye, -a1 * eye)

    def test_junction_inside_gap_is_not_invertible(self):
        p = constant_path(np.diag([1.0, -1.0]))
        spectra, vectors, _ = p._grid_pass(DEFAULT_TOL)
        with pytest.raises(NotInvertible, match="t=0"):
            specflow._projection_above(0.0, spectra[0], vectors[0], 1.0 + 1e-9, 1e-8)


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
        p = random_smooth_path(12, 5)
        _, rep = sf_crossings(p, crossing_tol=1e-10)
        for c in rep.crossings:
            assert abs(p.sample(c.t)[0, 0]) >= 0  # evaluable
            w = np.linalg.eigvalsh(p.sample(c.t))
            assert np.abs(w).min() <= 1e-10

    def test_endpoint_not_invertible(self):
        p = PotentialPath(1, np.linspace(0, 1, 9), lambda t: np.array([[t]]))
        with pytest.raises(NotInvertible):
            sf_crossings(p)

    def test_tangential_touch_is_no_crossing(self):
        p = PotentialPath(1, np.linspace(-1, 1, 33),
                          lambda t: np.array([[t * t + 1e-12]]),
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
                          lambda t: base if t < 0.437 else jumped,
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


class TestTrivialising:
    def test_endpoint_family_constant_path(self):
        p = constant_path(np.diag([1.0, -1.0]))
        fam = make_trivialising_endpoint(p)
        for t in p.grid:
            assert np.linalg.norm(fam.rule(t), 2) <= 1e-14

    def test_endpoint_family_linear(self):
        p = linear_scalar_path()
        fam = make_trivialising_endpoint(p)
        assert fam.rule(0.75)[0, 0] == pytest.approx(-1.5)
        for t in p.grid:
            assert (p.sample(t) + fam.rule(t))[0, 0] == pytest.approx(-1.0)

    def test_endpoint_family_gap_identity(self):
        p = random_smooth_path(3, 5)
        fam = make_trivialising_endpoint(p)
        g0 = spectral_gap(p.start())
        worst = fam.validate(p)
        assert worst == pytest.approx(g0, abs=1e-12)

    def test_gapshift_scalar(self):
        b = make_trivialising_gapshift(np.array([[0.0]]), 1.0)
        assert b.entries[0, 0] == pytest.approx(1.0)

    def test_gapshift_pushes_zero_up(self):
        b = make_trivialising_gapshift(np.diag([0.0, 3.0]), 1.0)
        w = np.linalg.eigvalsh(np.diag([0.0, 3.0]) + b.entries)
        assert np.allclose(w, [1.0, 4.0])

    def test_gapshift_posteriori_gap(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            h = (a + a.conj().T) / 2
            delta = 0.3
            try:
                b = make_trivialising_gapshift(h, delta)
            except ShiftFailure:
                continue
            assert spectral_gap(HermitianOperator(h + b.entries)) >= delta / 2

    def test_gapshift_failure(self):
        with pytest.raises(ShiftFailure):
            make_trivialising_gapshift(np.array([[-0.9]]), 1.0)


class TestIndTriple:
    def test_equal_shifts(self):
        d = np.diag([1.0, -1.0])
        b = np.eye(2) * 3.0
        assert ind_triple(d, b, b) == 0

    def test_rank_count(self):
        d = np.zeros((2, 2))
        assert ind_triple(d, np.diag([1.0, 1.0]), np.diag([1.0, -1.0])) == -1

    def test_counts_positive_eigenvalues(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            d = (a + a.T) / 2
            b0 = np.diag(rng.uniform(1, 2, 4))
            b1 = -np.diag(rng.uniform(1, 2, 4))
            n1 = int(np.sum(np.linalg.eigvalsh(d + b1) > 0))
            n0 = int(np.sum(np.linalg.eigvalsh(d + b0) > 0))
            assert ind_triple(d, b0, b1) == n1 - n0


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


class TestPathAlgebra:
    def test_concatenation_additivity(self):
        p1 = linear_scalar_path()
        # continue from +1 upward through another crossing of 3 - 2t... no:
        # use a path starting exactly at p1's endpoint value +1
        grid = np.linspace(0.0, 1.0, 33)
        p2 = PotentialPath(1, grid, lambda t: np.array([[1.0 - 3.0 * t]]),
                           support=((0.0, 1.0),))
        n1, _ = sf_crossings(p1)
        n2, _ = sf_crossings(p2)
        n12, _ = sf_crossings(concat_paths(p1, p2))
        assert n12 == n1 + n2 == 0

    def test_reversal(self):
        p = random_smooth_path(17, 5)
        n, _ = sf_crossings(p)
        nr, _ = sf_crossings(reversed_path(p))
        assert nr == -n
        assert n != 0  # the seed is chosen so the check is non-trivial

    def test_unitary_conjugation(self):
        p = random_smooth_path(17, 5)
        n, _ = sf_crossings(p)

        def unitary(t):
            c, s = np.cos(0.4 * t), np.sin(0.4 * t)
            u = np.eye(5, dtype=complex)
            u[0, 0], u[0, 1], u[1, 0], u[1, 1] = c, -s, s, c
            return u

        nc, _ = sf_crossings(conjugated_path(p, unitary))
        assert nc == n

    def test_small_perturbation_keeps_flow(self):
        p = random_smooth_path(17, 5)
        n, _ = sf_crossings(p)
        gap = min(spectral_gap(p.start()), spectral_gap(p.end()))
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        r = (a + a.conj().T) / 2
        r /= np.linalg.norm(r, 2)
        q = perturbed_path(p, lambda t: 0.4 * gap * np.sin(np.pi * t), r)
        nq, _ = sf_crossings(q)
        assert nq == n

    def test_path_from_samples_interpolates(self):
        grid = np.linspace(0, 1, 9)
        mats = [np.array([[2.0 * t - 1.0]]) for t in grid]
        p = path_from_samples(grid, mats, support=((0, 1),))
        n, _ = sf_crossings(p)
        assert n == 1
