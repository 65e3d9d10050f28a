import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracflow.errors import NonIntegerTrace, PathTooCoarse
from diracflow.inequalities import random_unitary
from diracflow.opcore import Projection, alternating_diag_template, positive_projection
from diracflow.relindex import (
    check_additivity,
    homotopy_constancy,
    rel_index,
    rel_index_restricted,
)


def aligned_projections(seed, dim, ranks):
    """Projections sharing one seeded eigenbasis, one per requested rank."""
    u = random_unitary(np.random.default_rng(seed), dim)
    out = []
    for r in ranks:
        w = np.zeros(dim)
        w[:r] = 1.0
        out.append(Projection((u * w) @ u.conj().T))
    return out


class TestRelIndex:
    def test_equal_projections(self):
        p, = aligned_projections(0, 4, [2])
        assert rel_index(p, p) == 0

    def test_rank_difference(self):
        assert rel_index(Projection(np.eye(2)), Projection(np.diag([1.0, 0.0]))) == 1

    def test_commuting_ranks(self):
        p, q = aligned_projections(3, 8, [5, 3])
        assert rel_index(p, q) == 2

    def test_antisymmetry(self):
        for seed in range(25):
            dim = 3 + seed % 8
            rng = np.random.default_rng(seed)
            p, q = aligned_projections(seed, dim, rng.integers(0, dim + 1, 2))
            assert rel_index(p, q) == -rel_index(q, p)

    def test_against_zero_projection_gives_rank(self):
        for seed in range(10):
            dim = 4 + seed % 5
            r = seed % (dim + 1)
            p, = aligned_projections(seed, dim, [r])
            assert rel_index(p, np.zeros((dim, dim))) == r

    def test_unitary_invariance(self):
        for seed in range(10):
            dim = 6
            p, q = aligned_projections(seed, dim, [4, 2])
            u = random_unitary(np.random.default_rng(seed + 1000), dim)
            pu = Projection(u @ p.entries @ u.conj().T)
            qu = Projection(u @ q.entries @ u.conj().T)
            assert rel_index(pu, qu) == rel_index(p, q)

    def test_non_integer_trace_guard(self):
        p = Projection(np.diag([1.0, 0.0]))
        q = Projection(np.diag([0.0, 0.0]))
        # simulate degraded data: nudge the trace off the integer lattice
        p.entries = p.entries + 1e-4 * np.eye(2)
        with pytest.raises(NonIntegerTrace):
            rel_index(p, q)

    def test_tower_stabilization(self):
        # P - Q has fixed rank once the perturbation's support is covered
        rng = np.random.default_rng(8)
        bump = np.zeros((32, 32))
        bump[:4, :4] = 3.0 * np.eye(4)
        values = []
        for n in (8, 16, 32):
            t_n = alternating_diag_template(n)
            p = positive_projection(t_n)
            q = positive_projection(t_n + bump[:n, :n])
            values.append(rel_index(q, p))
        assert values[0] == values[1] == values[2]


class TestRestrictedCrossCheck:
    def test_matches_trace_formula(self):
        for seed in range(30):
            dim = 3 + seed % 8
            rng = np.random.default_rng(seed + 77)
            r1, r2 = rng.integers(0, dim + 1, 2)
            p, q = aligned_projections(seed, dim, [r1, r2])
            assert rel_index_restricted(p, q) == rel_index(p, q)

    def test_generic_non_commuting_pair(self):
        # independent bases with full overlap still give the rank difference
        p, = aligned_projections(1, 6, [4])
        q, = aligned_projections(2, 6, [2])
        assert rel_index_restricted(p, q) == rel_index(p, q) == 2


class TestAdditivity:
    def test_trivial(self):
        p, = aligned_projections(0, 4, [2])
        rep = check_additivity(p, p, p)
        assert rep.passed and rep.direct == 0

    def test_rank_arithmetic(self):
        p, q, r = aligned_projections(9, 6, [4, 2, 1])
        rep = check_additivity(p, q, r)
        assert rep.passed
        assert rep.direct == 3 and rep.terms == (2, 1)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 10))
    def test_seeded_triples(self, seed, dim):
        # three projections of seeded ranks, each in its own seeded basis
        rng = np.random.default_rng(seed)
        ranks = rng.integers(0, dim + 1, 3)
        (p,), (q,), (r,) = (aligned_projections(s, dim, [rank])
                            for s, rank in zip(rng.integers(0, 2 ** 32, 3), ranks))
        rep = check_additivity(p, q, r)
        assert rep.passed
        assert rep.terms == (ranks[0] - ranks[1], ranks[1] - ranks[2])


class TestHomotopy:
    @staticmethod
    def rotating_rank_one(n_samples=32, sweep=np.pi / 2):
        out = []
        for a in np.linspace(0.0, sweep, n_samples):
            v = np.array([np.cos(a), np.sin(a)])
            out.append(Projection(np.outer(v, v)))
        return out

    def test_constant_paths(self):
        p, = aligned_projections(0, 3, [2])
        rep = homotopy_constancy([p] * 8, [p] * 8)
        assert rep.passed and set(rep.values) == {0}

    def test_rotation_against_fixed(self):
        ps = self.rotating_rank_one()
        qs = [ps[0]] * len(ps)
        rep = homotopy_constancy(ps, qs)
        assert rep.passed
        assert set(rep.values) == {0}

    def test_rank_jump_rejected(self):
        ps = [Projection(np.diag([1.0, 0.0]))] * 4 + [Projection(np.eye(2))] * 4
        qs = [ps[0]] * 8
        with pytest.raises(PathTooCoarse):
            homotopy_constancy(ps, qs)
