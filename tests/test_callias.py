"""Hypersurface pairing: the index from the boundary restriction, its
independence of the reference, the rank specialization, the four-way
identity, boundary-point errors and a deliberately wrong sign."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracflow import callias, dirac1d, scenarios, surgery
from diracflow.errors import InvalidInput, NotInvertible, TheoremViolation, TowerTooShallow
from diracflow.opcore import (
    TruncationTower,
    alternating_diag_template,
    resolvent_tails,
    tails_vanish,
    tower_instantiate,
)
from diracflow.specflow import PotentialPath, random_smooth_path


def check_case(seed):
    case, lam, ref, ref2 = scenarios.callias_case(seed)
    return callias.callias_check(case, lam=lam, reference=ref, reference_alt=ref2)


# callias_case cycles scalar, matrix fiber, two intervals, fibered family
PINNED = {
    0: ((0,), (0,), (0,), ((-1, 1),)),
    1: ((-2,), (-2,), (-2,), ((-2, 0),)),
    2: ((0,), (0,), (0,), ((-2, 2, -2, 2),)),
    3: ((1, -2), (1, -2), (1, -2), ((0, 1), (-2, 0))),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_callias_case_values(seed):
    rep = check_case(seed)
    assert (rep.lhs, rep.rhs, rep.rhs_alt, rep.per_point) == PINNED[seed]


@pytest.mark.parametrize("seed", [1, 3, 6])
def test_rank_pairing_equals_pairing_against_minus_one(seed):
    case, *_ = scenarios.callias_case(seed)
    for path in case:
        assert callias.ran_projection_pairing(path) \
            == callias.rhs_pairing(path, reference=-1)


def test_rhs_pairing_of_a_family_has_one_integer_per_fiber():
    case, _, ref, _ = scenarios.callias_case(3)
    assert tuple(callias.rhs_pairing(path, reference=ref) for path in case) \
        == PINNED[3][1] == (1, -2)


@pytest.mark.parametrize("seed, k", [(0, 1), (5, 3), (11, 4)])
def test_four_way_identity_on_sf_path(seed, k):
    rep = callias.four_way_identity(random_smooth_path(seed, k))
    assert rep.passed
    assert rep.sf_by_crossings == rep.sf_by_partition == rep.endpoint_rel_index \
        == rep.pairing


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 8))
def test_four_way_identity_over_seeded_sf_paths(seed, k):
    rep = callias.four_way_identity(random_smooth_path(seed, k))
    assert rep.passed


def singular_at_boundary():
    """S(t) = t: invertible outside K = [0, 1] on the grid, singular at the
    boundary point 0."""
    return PotentialPath(1, np.linspace(-2.0, 3.0, 41), lambda ts: ts[:, None, None],
                         support=((0.0, 1.0),), name="ramp")


def test_singular_boundary_point_is_named():
    with pytest.raises(NotInvertible, match="boundary point 0"):
        callias.callias_check((singular_at_boundary(),))
    with pytest.raises(NotInvertible, match="boundary point 0"):
        callias.rhs_pairing(singular_at_boundary())


def test_empty_family_is_invalid_input():
    with pytest.raises(InvalidInput, match="need at least one fiber path"):
        callias.callias_check(())


def test_tower_without_perturbations_is_invalid_input():
    tower = TruncationTower((16, 32), alternating_diag_template)
    with pytest.raises(InvalidInput, match="need at least one fiber path"):
        callias.tower_callias(tower)


def test_singular_reference_is_named():
    (path,), *_ = scenarios.callias_case(1)
    with pytest.raises(NotInvertible, match="reference operator"):
        callias.rhs_pairing(path, reference=0.0)


def test_pairing_report_resolves_each_reference_once(monkeypatch):
    tower = callias.tower_scenario(3, (16,), n_fibers=2)
    t_n = tower_instantiate(tower, 16)[0]
    family = callias.tower_family(tower, 16)
    boundaries = [callias._boundary(p) for p in family]
    lhs = {p.name: callias.rhs_pairing(p, t_n) for p in family}
    resolved = []
    projection = callias.positive_projection
    monkeypatch.setattr(callias, "positive_projection",
                        lambda h: resolved.append(h) or projection(h))
    rep = callias._pairing_report(family, boundaries, lambda p: lhs[p.name], t_n, -t_n)
    assert rep.rhs == rep.rhs_alt == tuple(lhs.values()) == (0, -1)
    # two fibers with two boundary points each: one projection per reference
    assert len(resolved) == 2
    assert np.array_equal(resolved[0], t_n) and np.array_equal(resolved[1], -t_n)


def test_fiber_without_boundary_resolves_no_reference():
    # the singular reference 0 is never resolved, so it raises nothing
    rep = callias._pairing_report((random_smooth_path(0, 2),), ((),), lambda p: 0, 0.0, 0.0)
    assert rep.rhs == rep.rhs_alt == (0,)


def test_flipped_sign_is_a_violation(monkeypatch):
    original = callias._boundary

    def flipped(path):
        (y, gamma, p_y), *rest = original(path)
        return ((y, -gamma, p_y), *rest)

    monkeypatch.setattr(callias, "_boundary", flipped)
    with pytest.raises(TheoremViolation, match="pairing mismatch"):
        check_case(1)


def test_assembled_index_off_the_flow_is_a_violation(monkeypatch):
    index_dims = dirac1d._index_dims

    def one_more_kernel_vector(op):
        dim_ker, *rest = index_dims(op)
        return (dim_ker + 1, *rest)

    monkeypatch.setattr(dirac1d, "_index_dims", one_more_kernel_vector)
    with pytest.raises(TheoremViolation, match="assembled index .* != spectral flow"):
        check_case(1)
    m1, m2, t_cut = scenarios.collar_pair(3, 2)
    with pytest.raises(TheoremViolation, match="assembled index .* != spectral flow"):
        surgery.verify_additivity(m1, m2, t_cut, grid=dirac1d.GridSpec(12.0, 192))


def test_tower_integers_and_tails():
    tower = callias.tower_scenario(3, (16, 32), n_fibers=2)
    rep = callias.tower_callias(tower)
    assert rep.passed
    assert rep.integers == ((0, -1), (0, -1))
    assert len(rep.tail_norms) == 2
    assert tails_vanish(rep.tail_norms)
    assert len(rep.resolvent_tails) == 2
    assert rep.resolvent_tails[1] < 0.75 * rep.resolvent_tails[0]


def circle_modes(n):
    """The Fourier modes 0, 1, -1, 2, -2, ... of the first n coordinates,
    in an order that makes every truncation nest."""
    j = np.arange(n)
    return np.where(j % 2 == 1, (j + 1) // 2, -(j // 2)).astype(float)


def circle_dirac(n):
    """-i d/dtheta - 1/2 on the circle, in its first n modes."""
    return np.diag(circle_modes(n) - 0.5).astype(np.complex128)


def circle_potential(n):
    """3 + 0.3 cos(theta), bounded and so relatively compact against the
    circle Dirac operator; cos(theta) couples mode m to m +- 1."""
    m = circle_modes(n)
    cos = 0.5 * (np.abs(m[:, None] - m[None, :]) == 1)
    return (3.0 * np.eye(n) + 0.3 * cos).astype(np.complex128)


def test_circle_dirac_tower():
    # the ramp moves diag(m - 0.5) to about diag(m + 2.5): the three modes
    # m = -2, -1, 0 change sign, at every dimension
    tower = TruncationTower((17, 33, 65), circle_dirac, (circle_potential,))
    rep = callias.tower_callias(tower)
    assert rep.passed
    assert rep.integers == ((3,), (3,), (3,))
    # the tails of a bounded perturbation fall like 1/n, not below a fixed bound
    assert rep.resolvent_tails == pytest.approx((0.659, 0.358, 0.187), abs=1e-3)


def test_circle_dirac_tower_too_shallow():
    # dim 3 keeps the modes 0, 1, -1, so two of the three sign-changing
    # modes -2, -1, 0: its integer is 2, against 3 at dim 5.  The resolvent
    # tails still decay, so the stabilisation check rejects the tower
    tower = TruncationTower((3, 5), circle_dirac, (circle_potential,))
    assert resolvent_tails(tower) == pytest.approx((2.687, 1.675), abs=1e-3)
    with pytest.raises(TowerTooShallow,
                       match=r"did not stabilize: \(2,\) vs \(3,\) at dims \(3, 5\)"):
        callias.tower_callias(tower)
