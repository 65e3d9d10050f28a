"""Stacked path rules: `PotentialPath.samples(ts)` of every builder equals,
bitwise, the stack of the per-t samples of the scalar rule it replaced
(``sampler_loops``), at seeded parameters and at parameters drawn from the
span, beyond it (clamped) and on every breakpoint of the rule; and the
stacked derivative-resolvent norms equal their per-sample loop."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sampler_loops as loops
from diracflow import callias, dirac1d, scenarios, specflow, surgery
from diracflow.errors import InvalidInput
from diracflow.specflow import PotentialPath

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def hermitian(seed, k):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return (a + a.conj().T) / 2.0


def scalar_unitary(t):
    c, s = np.cos(0.4 * t), np.sin(0.4 * t)
    u = np.eye(3, dtype=complex)
    u[0, 0], u[0, 1], u[1, 0], u[1, 1] = c, -s, s, c
    return u


DIAGONAL_FUNCS = [math.tanh, lambda t: -0.5 * math.tanh(t), lambda t: 1.0 + t * t]


def _constant():
    h = hermitian(1, 3)
    return specflow.constant_path(h, (-1.0, 2.0)), loops.constant_path(h, (-1.0, 2.0)), []


def _linear():
    return specflow.linear_scalar_path(), loops.linear_scalar_path(), [0.5]


def _tanh():
    new = specflow.tanh_path(k=2, scale=1.3)
    body = new.support[0][1]
    return new, loops.tanh_path(k=2, scale=1.3), [0.0, -body, body]


def _diagonal():
    return (specflow.diagonal_path(DIAGONAL_FUNCS, (-3.0, 3.0), 41),
            loops.diagonal_path(DIAGONAL_FUNCS, (-3.0, 3.0), 41), [0.0])


def _from_samples():
    grid = np.linspace(-1.0, 1.0, 9)
    mats = [hermitian(10 + i, 3) for i in range(grid.size)]
    return (specflow.path_from_samples(grid, mats), loops.path_from_samples(grid, mats),
            list(grid))


def _random_smooth():
    return (specflow.random_smooth_path(8, 4, span=(-1.0, 2.0)),
            loops.random_smooth_path(8, 4, span=(-1.0, 2.0)), [])


def _concat():
    # the second path starts 1e-12 away from where the first ends, so the
    # two sides of the junction differ in their last bits
    def tilt(ts):
        return 1e-12 * (1.0 - ts)

    r = hermitian(2, 3)
    new = specflow.random_smooth_path(3, 3)
    old = loops.random_smooth_path(3, 3)
    return (specflow.concat_paths(new, specflow.perturbed_path(specflow.reversed_path(new),
                                                               tilt, r)),
            loops.concat_paths(old, loops.perturbed_path(loops.reversed_path(old), tilt, r)),
            [1.0])


def _reversed():
    return (specflow.reversed_path(specflow.random_smooth_path(5, 3, span=(-1.0, 2.0))),
            loops.reversed_path(loops.random_smooth_path(5, 3, span=(-1.0, 2.0))), [])


def _conjugated():
    def stacked_unitary(ts):
        return np.stack([scalar_unitary(t) for t in ts])

    return (specflow.conjugated_path(specflow.random_smooth_path(6, 3), stacked_unitary),
            loops.conjugated_path(loops.random_smooth_path(6, 3), scalar_unitary), [])


def _perturbed():
    path = specflow.tanh_path(k=2)
    bump, r = scenarios.bump_perturbation(4, path)
    old_bump, old_r, (lo, hi, ramp) = loops.bump_perturbation(4, 2, path.hull())
    assert np.array_equal(r, old_r)
    return (specflow.perturbed_path(path, bump, r),
            loops.perturbed_path(loops.tanh_path(k=2), old_bump, r),
            [lo, hi, lo - ramp, hi + ramp, 0.5 * (lo + hi)])


def _chain():
    return (scenarios.chain_path(7, 3, n_intervals=2), loops.chain_path(7, 3, n_intervals=2),
            [0.0, 2.0, 4.0, 6.0, 1.0, 5.0])


def _collar():
    new, _, t_cut = scenarios.collar_pair(9, 2)
    old, _, _ = loops.collar_pair(9, 2)
    return new, old, [0.0, 1.0, 2.0, t_cut]


def _engineered():
    new, k_hat = scenarios.engineered_threshold_path()
    b = math.asinh(1.0) / 0.4
    return new, loops.engineered_threshold_path(), [-b, b, *k_hat]


def _splice():
    m1, m2, t_cut = scenarios.collar_pair(3, 2)
    o1, o2, _ = loops.collar_pair(3, 2)
    m3, _ = surgery.cut_paste(m1, m2, t_cut)
    return m3, loops.splice(o1, o2, t_cut), [t_cut, 0.0, 2.0]


def _ramp_family():
    t_n = np.diag([1.0, -1.0, 2.0, -2.0])
    perturbations = [hermitian(20, 4), hermitian(21, 4)]
    new = callias._ramp_family(4, t_n, perturbations)[1]
    return new, loops.ramp_family(4, t_n, perturbations)[1], [-1.0, 1.0, 0.0]


CASES = {
    "constant": _constant, "linear": _linear, "tanh": _tanh, "diagonal": _diagonal,
    "from-samples": _from_samples, "random-smooth": _random_smooth, "concat": _concat,
    "reversed": _reversed, "conjugated": _conjugated, "perturbed": _perturbed,
    "chain": _chain, "collar": _collar, "engineered": _engineered, "splice": _splice,
    "ramp-family": _ramp_family,
}


@functools.lru_cache(maxsize=None)
def case(name):
    new, old, marks = CASES[name]()
    lo, hi = old.span()
    # the breakpoints, both ends of the span and two clamped values
    return new, old, tuple(float(t) for t in marks) + (lo, hi, lo - 1.0, hi + 1.0)


def assert_bitwise(new, old, ts):
    got = new.samples(ts)
    want = np.stack([old.sample(t) for t in ts])
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_and_breakpoints_in_one_stack(name):
    new, old, marks = case(name)
    np.testing.assert_array_equal(new.grid, old.grid)
    assert_bitwise(new, old, np.concatenate([new.grid, marks]))


@pytest.mark.parametrize("name", sorted(CASES))
@SETTINGS
@given(data=st.data())
def test_stacked_rule_equals_scalar_rule(name, data):
    new, old, marks = case(name)
    lo, hi = old.span()
    t = st.one_of(st.floats(lo - 2.0, hi + 2.0), st.sampled_from(marks))
    assert_bitwise(new, old, data.draw(st.lists(t, min_size=1, max_size=12)))


DERIVATIVE_NORM_PATHS = {
    "tanh": lambda: (specflow.tanh_path(), None),
    "tanh-k3": lambda: (specflow.tanh_path(k=3, scale=2), None),
    "chain": lambda: (scenarios.chain_path(3, 4, 2), None),
    "sf": lambda: (specflow.random_smooth_path(5, 6), None),
    "engineered": scenarios.engineered_threshold_path,
}


@pytest.mark.parametrize("name", sorted(DERIVATIVE_NORM_PATHS))
def test_stacked_derivative_norms_equal_the_loop(name):
    path, k_hat = DERIVATIVE_NORM_PATHS[name]()
    k_hat = path.hull() if k_hat is None else k_hat
    got = dirac1d._path_derivative_norms(path, k_hat)
    want = loops.path_derivative_norms(path, k_hat)
    np.testing.assert_array_equal(np.array(got).view(np.uint64),
                                  np.array(want).view(np.uint64))


@SETTINGS
@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20),
       st.floats(-2.0, 2.0), st.floats(0.0, 2.0), st.floats(0.01, 2.0))
def test_profiles_match_their_scalar_loops(us, lo, width, ramp):
    us = np.array(us + [0.0, 1.0, lo, lo + width, lo - ramp, lo + width + ramp])
    want = [loops.smoothstep(u) for u in us.tolist()]
    np.testing.assert_array_equal(dirac1d.smoothstep(us).view(np.uint64),
                                  np.array(want).view(np.uint64))
    want = [loops.quintic_plateau(t, lo, lo + width, ramp) for t in us.tolist()]
    got = dirac1d.quintic_plateau(us, lo, lo + width, ramp)
    np.testing.assert_array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
    assert dirac1d.smoothstep(us[0]) == loops.smoothstep(float(us[0]))


def test_stack_of_the_wrong_shape_is_named():
    p = PotentialPath(2, np.linspace(0.0, 1.0, 5), lambda ts: np.zeros((ts.size, 2)))
    with pytest.raises(InvalidInput, match=r"shape \(3, 2\), expected \(3, 2, 2\)"):
        p.samples([0.0, 0.5, 1.0])


def test_non_finite_sample_names_its_t():
    p = PotentialPath(1, np.linspace(0.0, 1.0, 5),
                      lambda ts: np.where(ts == 0.5, np.inf, ts)[:, None, None])
    with pytest.raises(InvalidInput, match=r"t=0\.5 has non-finite entries"):
        p.samples([0.0, 2.0, 0.5])
    with pytest.raises(InvalidInput, match=r"t=0\.5 has non-finite entries"):
        p.sample(0.5)


def test_in_support_masks_an_array():
    p = PotentialPath(1, np.linspace(0.0, 4.0, 9), lambda ts: ts[:, None, None],
                      support=((0.5, 1.0), (2.0, 3.0)))
    ts = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5])
    np.testing.assert_array_equal(p.in_support(ts), [p.in_support(t) for t in ts])
    np.testing.assert_array_equal(p.in_support(ts), [0, 1, 1, 0, 1, 1, 0])
