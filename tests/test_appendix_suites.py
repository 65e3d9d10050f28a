"""The appendix trial suites run as one stacked pass per matrix dimension.

The stacked bodies must give, trial by trial, the floats and decisions of
the per-trial loops in ``appendix_loops`` bitwise; a stack must agree with
stacks of one; a weakened check must fail; and the numpy.linalg calls of a
suite must not grow with the number of trials.
"""

import json
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import appendix_loops as loops
from diracflow import cli, inequalities, opcore, reporting
from diracflow.errors import HypothesisUnmet, InvalidInput

POOL_SEEDS = range(32)
SUITES = ("interpolation", "conjugation", "transform-stability[eps=0.01]",
          "transform-stability[eps=0.1]", "transform-stability[eps=0.4]")


def stack_of(seeds, dim, envelope):
    return inequalities.random_hermitian_stack(seeds, dim, envelope)


def per_trial(report):
    """The stacked report as one dict per trial."""
    def item(x, j):
        if isinstance(x, tuple):
            return tuple(item(y, j) for y in x)
        return x[j] if isinstance(x, np.ndarray) else x
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    m = report.passed.shape[0]
    return [{name: item(x, j) for name, x in values.items()} for j in range(m)]


def stacked_trials(base_seed, trials, period, suite):
    """Per-trial dicts of a suite run one stack per dim, in trial order."""
    out = [None] * trials
    dims = 4 + np.arange(trials) % period
    for dim in np.unique(dims):
        idx = np.flatnonzero(dims == dim)
        seeds = base_seed + idx
        for i, rep in zip(idx, per_trial(suite(seeds, int(dim)))):
            out[i] = rep
    return out


def interpolation_stack(seeds, dim):
    pos = inequalities.positive_decomposition(stack_of(seeds, dim, (0.05, 3.0)), seeds)
    return inequalities.check_interpolation_stack(
        pos, stack_of(seeds + 10 ** 6, dim, (-2.0, 2.0)))


def conjugation_stack(seeds, dim):
    pos = inequalities.positive_decomposition(stack_of(seeds, dim, (0.05, 3.0)), seeds)
    return inequalities.check_conjugation_stack(
        pos, stack_of(seeds + 2 * 10 ** 6, dim, (-1.0, 1.0)))


def scaled(t, raw, eps):
    """`scale_perturbation_stack` with the resolvent of t taken here."""
    return inequalities.scale_perturbation_stack(t, raw, eps, inequalities.resolvent_at_i(t))


def stability(t, t_n, eps, trials):
    """`check_stability_stack` with (T + i)^(-1) and F_T taken here."""
    return inequalities.check_stability_stack(
        t, t_n, eps, inequalities.resolvent_at_i(t), opcore.bounded_transform(t), trials)


def stability_stack(eps):
    def suite(seeds, dim):
        t = stack_of(seeds, dim, (-6.0, 6.0))
        raw = stack_of(seeds + 3 * 10 ** 6, dim, (-1.0, 1.0))
        return stability(t, t + scaled(t, raw, eps), eps, seeds)
    return suite


def suite_key(name):
    """A record's name without its trial count: interpolation[150] ->
    interpolation; the stability records keep their eps."""
    return name if name.startswith("transform") else name.split("[")[0]


def appendix(trials, seed=3):
    config = {"scenario": "appendix", "seeds": {"base": seed, "count": 1},
              "params": {"trials": trials}}
    return {suite_key(rec.name): rec
            for rec in cli.run(cli.parse_config(json.dumps(config))).records}


class TestOracle:
    """Bitwise equal to the per-trial loops, trial by trial."""

    @pytest.mark.parametrize("seed", POOL_SEEDS)
    def test_stacked_suites_equal_the_trial_loops(self, seed):
        # 24 trials hold every dim of both periods (9 and 12)
        trials = 24
        assert stacked_trials(seed, trials, 9, interpolation_stack) \
            == loops.interpolation_trials(seed, trials)
        assert stacked_trials(seed, trials, 9, conjugation_stack) \
            == loops.conjugation_trials(seed, trials)
        for eps in (0.01, 0.1, 0.4):
            assert stacked_trials(seed, trials, 12, stability_stack(eps)) \
                == loops.stability_trials(seed, trials, eps)

    def test_scenario_counts_equal_the_trial_loops(self):
        trials = 150
        records = appendix(trials)
        expected = {
            "interpolation": loops.interpolation_trials(3, trials),
            "conjugation": loops.conjugation_trials(3, trials),
        }
        for eps in (0.01, 0.1, 0.4):
            expected[f"transform-stability[eps={eps:g}]"] = \
                loops.stability_trials(3, trials, eps)
        for name, reps in expected.items():
            good = sum(rep["passed"] for rep in reps)
            assert (records[name].lhs, records[name].rhs) == (good, trials) == (150, 150)
            assert records[name].passed is True


class TestStackOfOne:
    """A stack agrees bitwise with stacks of one (a single matrix is one)
    and with the per-trial loops."""

    @pytest.mark.parametrize("dim", [1, 4, 15])
    def test_generation(self, dim):
        stack = stack_of(range(5), dim, (-2.0, 3.0))
        for seed in range(5):
            assert np.array_equal(stack[seed], stack_of([seed], dim, (-2.0, 3.0))[0])
            assert np.array_equal(stack[seed], loops.random_hermitian(seed, dim, (-2.0, 3.0)))

    def test_generation_keeps_each_seeds_draws(self):
        # one generator per seed, in seed order: repeats and gaps included
        seeds = [7, 3, 1000, 3, 0]
        stack = inequalities.random_hermitian_stack(seeds, 6)
        assert stack.shape == (5, 6, 6)
        for j, seed in enumerate(seeds):
            assert np.array_equal(stack[j], loops.random_hermitian(seed, 6, (-1.0, 1.0)))

    @pytest.mark.parametrize("dim", [1, 4, 15])
    def test_checks(self, dim):
        seeds = np.arange(5)
        t = stack_of(seeds, dim, (0.05, 3.0))
        s = stack_of(seeds + 100, dim, (-2.0, 2.0))
        pos = inequalities.positive_decomposition(t, seeds)
        interp = per_trial(inequalities.check_interpolation_stack(pos, s))
        conj = per_trial(inequalities.check_conjugation_stack(pos, s))
        for j in range(seeds.size):
            one = inequalities.positive_decomposition(t[j], [j])
            assert interp[j] == per_trial(inequalities.check_interpolation_stack(one, s[j]))[0] \
                == loops.interpolation(t[j], s[j])
            assert conj[j] == per_trial(inequalities.check_conjugation_stack(one, s[j]))[0] \
                == loops.conjugation(t[j], s[j])

    @pytest.mark.parametrize("dim", [1, 4, 15])
    def test_stability(self, dim):
        seeds = np.arange(5)
        t = stack_of(seeds, dim, (-6.0, 6.0))
        raw = stack_of(seeds + 100, dim, (-1.0, 1.0))
        r = scaled(t, raw, 0.1)
        stacked = per_trial(stability(t, t + r, 0.1, seeds))
        f_t = opcore.bounded_transform(t)
        w, v = opcore.eigh(t)
        for j in range(seeds.size):
            r_j = scaled(t[j], raw[j], 0.1)[0]
            assert np.array_equal(r[j], r_j)
            assert np.array_equal(r_j, loops.scale_to_eps(t[j], raw[j], 0.1))
            assert stacked[j] == per_trial(stability(t[j], t[j] + r_j, 0.1, [j]))[0] \
                == loops.stability(t[j], t[j] + r_j, 0.1)
            assert np.array_equal(f_t[j], opcore.bounded_transform(t[j]))
            assert np.array_equal(f_t[j], loops.bounded_transform(t[j]))
            w_j, v_j = opcore.eigh(t[j])
            assert np.array_equal(w[j], w_j) and np.array_equal(v[j], v_j)
            assert opcore.spectral_norm(raw)[j] == opcore.spectral_norm(raw[j]) \
                == np.linalg.norm(raw[j], 2)


class TestWeakestTrial:
    """Count checks name their weakest trial in details, which the report
    rows leave out."""

    def test_margin_is_the_least_per_trial_margin(self):
        trials = 30
        records = appendix(trials)
        per_suite = {
            "interpolation": (9, [r["rhs"] - r["lhs"]
                                  for r in loops.interpolation_trials(3, trials)]),
            "conjugation": (9, [r["conjugated_norm"] - r["norm_f"]
                                for r in loops.conjugation_trials(3, trials)]),
        }
        for eps in (0.01, 0.1, 0.4):
            per_suite[f"transform-stability[eps={eps:g}]"] = (
                12, [r["bound"] - r["transform_diff"]
                     for r in loops.stability_trials(3, trials, eps)])
        for name, (period, margins) in per_suite.items():
            i = int(np.argmin(margins))
            assert records[name].details == {"weakest_trial": i, "seed": 3 + i,
                                             "dim": 4 + i % period,
                                             "margin": min(margins)}

    def test_details_stay_out_of_the_report(self, tmp_path):
        report = cli.run(cli.parse_config(json.dumps(
            {"scenario": "appendix", "seeds": [3], "params": {"trials": 12}})))
        assert report.records[0].details["margin"] > 0.0
        reporting.emit(report, tmp_path, ("csv", "json"))
        for path in tmp_path.iterdir():
            assert "margin" not in path.read_text()


class TestMutations:
    """A weakened inequality fails the suite, and an unmet hypothesis names
    its trial."""

    @pytest.mark.parametrize("suite, body", [
        ("interpolation", "check_interpolation_stack"),
        ("conjugation", "check_conjugation_stack"),
    ])
    def test_perturbed_constant_fails_the_suite(self, monkeypatch, suite, body):
        # slack -0.5 claims lhs <= rhs - 0.5 max(1, rhs), which is false;
        # both bodies read the one slack
        monkeypatch.setattr(inequalities, "_SLACK", -0.5)
        rec = appendix(30)[suite]
        assert rec.lhs < rec.rhs == 30
        assert rec.passed is False and rec.outcome == "false"

    @pytest.mark.parametrize("body, factor", [
        (inequalities.check_interpolation_stack, 1.1),
        (inequalities.check_conjugation_stack, 0.9),
    ])
    def test_perturbed_half_power_fails_trials(self, body, factor):
        # T^(-1/2) scaled by 1.1 (0.9) moves the conjugated side outward
        # (inward): the inequality no longer holds for every trial
        trials = 60
        failed = 0
        for seeds, dim in ((3 + np.arange(0, trials, 9), 4), (3 + np.arange(5, trials, 9), 9)):
            pos = inequalities.positive_decomposition(stack_of(seeds, dim, (0.05, 3.0)), seeds)
            other = stack_of(seeds + 10 ** 6, dim, (-2.0, 2.0))
            assert body(pos, other).passed.all()
            mutant = pos._replace(half_inv=factor * pos.half_inv)
            failed += int(np.count_nonzero(~body(mutant, other).passed))
        assert failed > 0

    def test_indefinite_t_names_its_trial(self):
        t = stack_of(np.arange(4), 5, (0.05, 3.0))
        t[2] -= 3.0 * np.eye(5)
        with pytest.raises(InvalidInput, match=r"trial 12: min eig"):
            inequalities.positive_decomposition(t, [10, 11, 12, 13])

    def test_oversized_perturbation_names_its_trial(self):
        t = stack_of(np.arange(4), 5, (-6.0, 6.0))
        r = scaled(t, stack_of(np.arange(4) + 9, 5, (-1.0, 1.0)), 0.1)
        r[3] *= 2.0
        with pytest.raises(HypothesisUnmet, match=r"trial 7: resolvent-smallness"):
            stability(t, t + r, 0.1, [4, 5, 6, 7])

    def test_stacks_must_match(self):
        t = stack_of(np.arange(3), 4, (0.05, 3.0))
        with pytest.raises(InvalidInput, match="S has shape"):
            inequalities.check_interpolation_stack(
                inequalities.positive_decomposition(t, range(3)), t[:2])

    def test_generation_rejects_bad_dim_and_envelope(self):
        with pytest.raises(InvalidInput, match="dim must be positive"):
            inequalities.random_hermitian_stack([0, 1], 0)
        with pytest.raises(InvalidInput, match="envelope must be ordered"):
            inequalities.random_hermitian_stack([0, 1], 3, (1.0, -1.0))


def count_linalg_per_record(monkeypatch, trials):
    """numpy.linalg calls made inside each appendix record."""
    calls = Counter()
    for name in ("qr", "eigh", "eigvalsh", "svd", "inv", "solve", "norm", "det"):
        kernel = getattr(np.linalg, name)

        def counted(*args, _kernel=kernel, **kwargs):
            calls["all"] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    per_record = {}
    guarded = cli._guarded

    def spy(name, anchor, fn):
        calls.clear()
        rec = guarded(name, anchor, fn)
        per_record[suite_key(name)] = calls["all"]
        return rec

    monkeypatch.setattr(cli, "_guarded", spy)
    appendix(trials)
    monkeypatch.undo()
    return per_record


class TestCallCounts:
    """Each appendix trial suite takes O(distinct dims) numpy.linalg calls,
    however many trials it runs."""

    def test_calls_do_not_grow_with_trials(self, monkeypatch):
        few = count_linalg_per_record(monkeypatch, 24)
        many = count_linalg_per_record(monkeypatch, 150)
        # the suites of a group share their per-dim work, which the group's
        # first record runs
        for group, n_dims in ((SUITES[:2], 9), (SUITES[2:], 12)):
            calls = sum(many[name] for name in group)
            assert calls == sum(few[name] for name in group)
            assert calls <= 16 * len(group) * n_dims, group
