"""Appendix checks and the tower consumers: nesting is verified for every
consumer, non-compact perturbations are rejected or fail, and tails at the
rounding floor do not."""

import pathlib
from collections import Counter

import numpy as np
import pytest

from diracflow import callias, inequalities
from diracflow.errors import (
    GeneratorError,
    HypothesisUnmet,
    InvalidInput,
    NotInvertible,
    NotRelativelyCompact,
)
from diracflow.opcore import (
    TruncationTower,
    bounded_transform,
    alternating_diag_template,
    banded_shift_template,
    decaying_rank_template,
    exp_decay_template,
    rank_one_template,
    resolvent_tails,
    tower_instantiate,
)

EPS_LIST = (0.5, 0.1, 0.02)


def last_coordinate(n):
    """e_n e_n*: its compression to m < n is 0, not e_m e_m*."""
    a = np.zeros((n, n), dtype=np.complex128)
    a[-1, -1] = 1.0
    return a


def half_identity(n):
    """0.5 I: nested and bounded, so relatively compact against an operator
    with compact resolvent, but not compact itself."""
    return 0.5 * np.eye(n, dtype=np.complex128)


def appendix_tails_tower(seed, dims):
    """The tower of the appendix scenario's functional-calculus check."""
    raw = decaying_rank_template(2, 1.2, seed=seed)
    scale = 3.0 / float(np.linalg.norm(raw(dims[0]), 2))
    return TruncationTower(dims, alternating_diag_template,
                           (lambda n: scale * raw(n),))


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
            callias.tower_callias(tower)

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
        assert len(family) == 2
        for path, r in zip(family, perturbations):
            assert path.k == 32 and path.support == ((-1.0, 1.0),)
            end = t_32 + r
            assert np.array_equal(path.start(), t_32)
            assert np.array_equal(path.end(), (end + end.conj().T) / 2.0)

    def test_every_seed_builds(self):
        # at seed 35 growing fiber 0's scale never reaches the end gap 0.8
        tower = callias.tower_scenario(35, (16, 32), n_fibers=2)
        for path in callias.tower_family(tower, 16):
            assert path.least_gap_outside()[1] >= 0.8


class TestRelativeBoundSchedule:
    def test_rank_one_passes(self):
        tower = TruncationTower((16, 32, 64), alternating_diag_template,
                                (rank_one_template,))
        rep = inequalities.check_relative_bound_schedule(tower, EPS_LIST)
        assert rep.passed
        assert [n for (_, n, _, _) in rep.entries] == [2, 10, 50]
        assert all(worst < 0.0 for (_, _, _, worst) in rep.entries)
        assert rep.tail_norms == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("perturbation, tails", [
        (banded_shift_template, (0.321, 0.189, 0.104)),
        (half_identity, (0.098, 0.055, 0.029)),
    ])
    def test_bounded_perturbations_pass(self, perturbation, tails):
        # bounded against the compact resolvent of T: the tails at the
        # shift i about halve with each doubling of the dimension
        tower = TruncationTower((16, 32, 64), alternating_diag_template,
                                (perturbation,))
        rep = inequalities.check_relative_bound_schedule(tower, EPS_LIST)
        assert rep.passed
        assert rep.tail_norms == pytest.approx(tails, abs=1e-3)

    def test_unbounded_perturbation_is_rejected_by_both_consumers(self):
        tower = TruncationTower((16, 32, 64), alternating_diag_template,
                                (alternating_diag_template,))
        stagnant = r"9\.923e-01', '9\.981e-01', '9\.995e-01"
        with pytest.raises(NotRelativelyCompact, match=stagnant):
            inequalities.check_relative_bound_schedule(tower, EPS_LIST)
        with pytest.raises(NotRelativelyCompact, match=stagnant):
            callias.tower_callias(tower)


def test_every_benchmark_tower_passes_the_tail_test(monkeypatch):
    # the tower scenario at each benchmark pool seed (and at 57, which the
    # report oracle runs), and the appendix scenario's schedule tower: a
    # rejection here would turn the benchmark's checks into skips.  The
    # appendix scenario's functional-calculus tower at the same seeds: a
    # flipped verdict would turn a benchmark check false
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    from workloads import POOL

    dims = (16, 32, 64)
    towers = [callias.tower_scenario(seed, dims) for seed in POOL + (57,)]
    towers.append(TruncationTower(dims, alternating_diag_template, (rank_one_template,)))
    for tower in towers:
        assert len(resolvent_tails(tower)) == len(dims)
    for seed in POOL + (57,):
        assert inequalities.check_functional_calculus_tails(
            appendix_tails_tower(seed, dims)).passed


class TestFunctionalCalculusTails:
    @pytest.mark.parametrize("seed", [0, 3, 57])
    def test_tails_at_the_rounding_floor_pass(self, seed):
        # the bounded-transform tail moves from 3.4e-15 to 4.2e-15 at seed 0
        rep = inequalities.check_functional_calculus_tails(
            appendix_tails_tower(seed, (16, 32, 64, 128)))
        assert rep.passed
        assert max(seq[-1] for seq in rep.tail_norms.values()) < 128 * np.finfo(float).eps

    def test_one_eigh_of_t_and_of_t_plus_r_per_dim(self, monkeypatch):
        # the gap test, F and the step all come from these two
        calls = Counter()
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _kernel=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        dims = (16, 32, 64)
        rep = inequalities.check_functional_calculus_tails(appendix_tails_tower(3, dims))
        assert rep.passed
        assert (calls["eigh"], calls["eigvalsh"]) == (2 * len(dims), 0)

    def test_t_plus_r_inside_the_gap_floor_is_not_invertible(self):
        # T + R = diag(1e-4, -1, 2, -2, ...): one eigenvalue below gap_floor
        tower = TruncationTower((16, 32), alternating_diag_template,
                                (lambda n: -(1.0 - 1e-4) * rank_one_template(n),))
        with pytest.raises(NotInvertible, match=r"T\+R at dim 16 has gap below 0\.001"):
            inequalities.check_functional_calculus_tails(tower)

    def test_half_identity_passes(self):
        # 0.5 I is not compact, but f(T + 0.5) - f(T) is, for T with compact
        # resolvent: its tails decay, if not below a fixed bound by n = 64
        tower = TruncationTower((16, 32, 64), alternating_diag_template,
                                (half_identity,))
        rep = inequalities.check_functional_calculus_tails(tower)
        assert rep.passed
        assert rep.tail_norms["bounded-transform"] == pytest.approx(
            (4.39e-3, 7.33e-4, 1.06e-4), rel=0.01)
        assert rep.tail_norms["resolvent"][-1] == pytest.approx(1.78e-3, rel=0.01)
        assert rep.resolvent_residual <= 1e-12

    def test_minus_twice_t_fails(self):
        # T + R = -T: F_(-T) - F_T = -2 F_T and the step difference are not
        # compact, and their tails stagnate
        tower = TruncationTower((16, 32, 64), alternating_diag_template,
                                (lambda n: -2.0 * alternating_diag_template(n),))
        rep = inequalities.check_functional_calculus_tails(tower)
        assert not rep.passed
        assert rep.tail_norms["bounded-transform"] == pytest.approx(
            (1.98, 2.00, 2.00), abs=0.01)
        assert rep.tail_norms["step"] == (1.0, 1.0, 1.0)
        assert rep.resolvent_residual <= 1e-12


class TestOtherChecks:
    def test_compact_template_passes_and_identity_is_rejected(self):
        rep = inequalities.check_compact_strong_convergence((16, 32, 64),
                                                            exp_decay_template(0.5))
        assert rep.right_norms[-1] <= 1e-6
        with pytest.raises(HypothesisUnmet, match="template is not compact"):
            inequalities.check_compact_strong_convergence(
                (16, 32, 64), lambda n: np.eye(n, dtype=np.complex128))

    def test_compact_template_must_be_hermitian(self):
        def upper_shift(n):
            return np.diag(np.exp(-0.5 * np.arange(1.0, n)), 1).astype(np.complex128)

        with pytest.raises(InvalidInput, match="template is not Hermitian"):
            inequalities.check_compact_strong_convergence((16, 32, 64), upper_shift)

    def test_stability_hypotheses_are_preconditions(self):
        t = inequalities.random_hermitian_stack([1], 6, (-6.0, 6.0))
        raw = inequalities.random_hermitian_stack([2], 6, (-1.0, 1.0))
        res, f_t = inequalities.resolvent_at_i(t), bounded_transform(t)
        r = inequalities.scale_perturbation_stack(t, raw, 0.1, res)
        rep = inequalities.check_stability_stack(t, t + r, 0.1, res, f_t, [0])
        assert rep.passed.all() and np.max(rep.hypothesis_norms) <= 0.1
        with pytest.raises(HypothesisUnmet):
            inequalities.check_stability_stack(t, t + 2.0 * r, 0.1, res, f_t, [0])
        with pytest.raises(HypothesisUnmet):
            inequalities.check_stability_stack(t, t, 0.5, res, f_t, [0])
