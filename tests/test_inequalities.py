"""Appendix checks and the tower consumers: nesting is verified for every
consumer, non-compact perturbations are rejected or fail, and tails at the
rounding floor do not."""

import numpy as np
import pytest

from diracflow import callias, dirac1d, inequalities
from diracflow.errors import (
    CompactTemplateInvalid,
    GeneratorError,
    HypothesisUnmet,
    InvalidInput,
    NotRelativelyCompact,
)
from diracflow.opcore import (
    TruncationTower,
    alternating_diag_template,
    decaying_rank_template,
    exp_decay_template,
    rank_one_template,
    tail_projector,
    tower_instantiate,
)

EPS_LIST = (0.5, 0.1, 0.02)


def last_coordinate(n):
    """e_n e_n*: its compression to m < n is 0, not e_m e_m*."""
    a = np.zeros((n, n), dtype=np.complex128)
    a[-1, -1] = 1.0
    return a


def half_identity(n):
    """0.5 I: nested, but not relatively compact."""
    return 0.5 * np.eye(n, dtype=np.complex128)


def appendix_tails_tower(seed, dims):
    """The tower of the appendix scenario's functional-calculus check."""
    raw = decaying_rank_template(2, 1.2, seed=seed)
    scale = 3.0 / float(np.linalg.norm(raw(dims[0]), 2))
    return TruncationTower(dims, alternating_diag_template,
                           (lambda n: scale * raw(n),))


def test_tail_projector():
    p = tail_projector(5, 2)
    assert np.array_equal(p, np.diag([0.0, 0.0, 1.0, 1.0, 1.0]))
    assert p.dtype == np.float64


class TestNesting:
    def test_non_nested_perturbation_is_named(self):
        tower = TruncationTower((4, 8), alternating_diag_template,
                                (rank_one_template, last_coordinate))
        with pytest.raises(GeneratorError, match="perturbation 1"):
            tower_instantiate(tower, 8)

    def test_tower_callias(self):
        tower = TruncationTower((16, 32), alternating_diag_template,
                                (last_coordinate,))
        with pytest.raises(GeneratorError, match="nesting violated"):
            callias.tower_callias(tower, dirac1d.GridSpec(9.0, 120))

    def test_relative_bound_schedule(self):
        tower = TruncationTower((16, 32, 64), alternating_diag_template,
                                (last_coordinate,))
        with pytest.raises(GeneratorError, match="nesting violated"):
            inequalities.check_relative_bound_schedule(tower, EPS_LIST)

    def test_functional_calculus_tails(self):
        tower = TruncationTower((16, 32, 64), alternating_diag_template,
                                (last_coordinate,))
        with pytest.raises(GeneratorError, match="nesting violated"):
            inequalities.check_functional_calculus_tails(tower)

    @pytest.mark.parametrize("perturbations", [(), (rank_one_template,) * 2])
    def test_checks_need_one_perturbation(self, perturbations):
        tower = TruncationTower((16, 32), alternating_diag_template, perturbations)
        with pytest.raises(InvalidInput, match="one perturbation"):
            inequalities.check_relative_bound_schedule(tower, EPS_LIST)
        with pytest.raises(InvalidInput, match="one perturbation"):
            inequalities.check_functional_calculus_tails(tower)


class TestTowerScenario:
    def test_family_ramps_the_perturbations_onto_the_reference(self):
        tower = callias.tower_scenario(3, (16, 32), n_fibers=2)
        family = callias.tower_family(tower, 32)
        t_32, perturbations = tower_instantiate(tower, 32)
        assert family.labels == (0, 1)
        for path, r in zip(family.paths, perturbations):
            assert path.k == 32 and path.support == ((-1.0, 1.0),)
            end = t_32 + r
            assert np.array_equal(path.start(), t_32)
            assert np.array_equal(path.end(), (end + end.conj().T) / 2.0)

    def test_every_seed_builds(self):
        # at seed 35 growing fiber 0's scale never reaches the end gap 0.8
        tower = callias.tower_scenario(35, (16, 32), n_fibers=2)
        for path in callias.tower_family(tower, 16).paths:
            assert path.min_gap_outside() >= 0.8


class TestRelativeBoundSchedule:
    def test_rank_one_passes(self):
        tower = TruncationTower((16, 32, 64), alternating_diag_template,
                                (rank_one_template,))
        rep = inequalities.check_relative_bound_schedule(tower, EPS_LIST)
        assert rep.passed
        assert [n for (_, n, _, _) in rep.entries] == [2, 10, 50]
        assert all(worst < 0.0 for (_, _, _, worst) in rep.entries)
        assert rep.tail_norms == (0.0, 0.0, 0.0)

    def test_half_identity_is_not_relatively_compact(self):
        tower = TruncationTower((16, 32, 64), alternating_diag_template,
                                (half_identity,))
        with pytest.raises(NotRelativelyCompact,
                           match=r"1\.961e-02', '1\.882e-02', '1\.654e-02"):
            inequalities.check_relative_bound_schedule(tower, EPS_LIST)


class TestFunctionalCalculusTails:
    @pytest.mark.parametrize("seed", [0, 3, 57])
    def test_tails_at_the_rounding_floor_pass(self, seed):
        # the bounded-transform tail moves from 3.4e-15 to 4.2e-15 at seed 0
        rep = inequalities.check_functional_calculus_tails(
            appendix_tails_tower(seed, (16, 32, 64, 128)))
        assert rep.passed
        assert max(seq[-1] for seq in rep.tail_norms.values()) < 128 * np.finfo(float).eps

    def test_half_identity_fails(self):
        tower = TruncationTower((16, 32, 64), alternating_diag_template,
                                (half_identity,))
        rep = inequalities.check_functional_calculus_tails(tower)
        assert not rep.passed
        assert rep.tail_norms["bounded-transform"][-1] == pytest.approx(1.06e-4, rel=0.01)
        assert rep.tail_norms["resolvent"][-1] == pytest.approx(1.78e-3, rel=0.01)
        assert rep.resolvent_residual <= 1e-12


class TestOtherChecks:
    def test_compact_template_passes_and_identity_is_rejected(self):
        rep = inequalities.check_compact_strong_convergence((16, 32, 64),
                                                            exp_decay_template(0.5))
        assert rep.passed and rep.right_norms[-1] <= 1e-6
        with pytest.raises(CompactTemplateInvalid):
            inequalities.check_compact_strong_convergence(
                (16, 32, 64), lambda n: np.eye(n, dtype=np.complex128))

    def test_stability_hypotheses_are_preconditions(self):
        t = inequalities.random_hermitian(inequalities.RandomSpec(1, 6, (-6.0, 6.0)))
        raw = inequalities.random_hermitian(inequalities.RandomSpec(2, 6, (-1.0, 1.0)))
        r = inequalities.scale_perturbation_to_eps(t, raw, 0.1)
        rep = inequalities.check_bounded_transform_stability(
            t, t.entries + r.entries, 0.1)
        assert rep.passed and max(rep.hypothesis_norms) <= 0.1
        with pytest.raises(HypothesisUnmet):
            inequalities.check_bounded_transform_stability(
                t, t.entries + 2.0 * r.entries, 0.1)
        with pytest.raises(HypothesisUnmet):
            inequalities.check_bounded_transform_stability(t, t, 0.5)
