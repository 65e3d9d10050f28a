"""Hypersurface pairing: the index from the boundary restriction, its
independence of the reference, the rank specialization, the four-way
identity, boundary-point errors and a deliberately wrong sign."""

import numpy as np
import pytest

from diracflow import callias, dirac1d, scenarios
from diracflow.errors import NotInvertible, TheoremViolation
from diracflow.specflow import PotentialPath


def auto_grid(path):
    return dirac1d.GridSpec.auto(path, h_target=0.15, decay=1e-6)


def check_case(seed):
    case, lam, ref, ref2 = scenarios.callias_case(seed)
    return callias.callias_check(case, lam=lam, reference=ref, reference_alt=ref2,
                                 grid=auto_grid)


# callias_case cycles scalar, matrix fiber, two intervals, fibered family
PINNED = {
    0: (0, 0, 0, (-1, 1)),
    1: (-2, -2, -2, (-2, 0)),
    2: (0, 0, 0, (-2, 2, -2, 2)),
    3: ((1, -2), (1, -2), (1, -2), ((0, 1), (-2, 0))),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_callias_case_values(seed):
    rep = check_case(seed)
    assert (rep.lhs, rep.rhs, rep.rhs_alt, rep.per_point) == PINNED[seed]
    assert rep.passed


@pytest.mark.parametrize("seed", [1, 3, 6])
def test_rank_pairing_equals_pairing_against_minus_one(seed):
    case, *_ = scenarios.callias_case(seed)
    assert callias.ran_projection_pairing(case) \
        == callias.rhs_pairing(case, reference=-1)


def test_rhs_pairing_of_a_family_has_one_integer_per_fiber():
    case, _, ref, _ = scenarios.callias_case(3)
    assert callias.rhs_pairing(case, reference=ref) == (1, -2)


@pytest.mark.parametrize("seed, k", [(0, 1), (5, 3), (11, 4)])
def test_four_way_identity_on_sf_path(seed, k):
    rep = callias.four_way_identity(scenarios.sf_path(seed, k))
    assert rep.passed
    assert rep.sf_by_crossings == rep.sf_by_partition == rep.endpoint_rel_index \
        == rep.pairing


def singular_at_boundary():
    """S(t) = t: invertible outside K = [0, 1] on the grid, singular at the
    boundary point 0."""
    return PotentialPath(1, np.linspace(-2.0, 3.0, 41), lambda t: np.array([[t]]),
                         support=((0.0, 1.0),), name="ramp")


def test_singular_boundary_point_is_named():
    with pytest.raises(NotInvertible, match="boundary point 0"):
        callias.callias_check(singular_at_boundary(), grid=auto_grid)
    with pytest.raises(NotInvertible, match="boundary point 0"):
        callias.rhs_pairing(singular_at_boundary())


def test_singular_reference_is_named():
    case, *_ = scenarios.callias_case(1)
    with pytest.raises(NotInvertible, match="reference operator"):
        callias.rhs_pairing(case, reference=0.0)


def test_flipped_sign_is_a_violation(monkeypatch):
    original = callias.hypersurface_of

    def flipped(*args, **kwargs):
        surface = original(*args, **kwargs)
        return callias.Hypersurface(points=surface.points,
                                    gamma=(-surface.gamma[0],) + surface.gamma[1:])

    monkeypatch.setattr(callias, "hypersurface_of", flipped)
    with pytest.raises(TheoremViolation, match="pairing mismatch"):
        check_case(1)


def test_tower_integers_and_tails():
    tower = callias.tower_scenario(3, (16, 32), n_fibers=2)
    rep = callias.tower_callias(tower, base_grid=dirac1d.GridSpec(9.0, 120))
    assert rep.passed
    assert rep.integers == ((0, -1), (0, -1))
    assert len(rep.tail_norms) == 2
    assert rep.tail_norms[1] <= 2.0 * rep.tail_norms[0]
    assert all(x <= 1e-6 for x in rep.precondition_norms)
