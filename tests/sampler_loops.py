"""Reference samplers for the tests: every path builder one t at a time.

A ``PotentialPath`` rule is stacked: it maps a 1-D array of m parameters
to an (m, k, k) stack.  These are the per-t rules that the stacked ones
replaced, with the scalar evaluation around them (``ScalarPath.sample``:
clamp t into the grid span, call the rule, check the shape, hermitise).
They stay here as the oracle for the stacked rules, whose samples must
equal these bitwise.  The random draws of each builder are repeated here
in the same order, so a builder and its loop make the same matrices.
The per-sample loop of the derivative-resolvent norms is kept here too,
as the oracle for the stacked solve and norm.
"""

import math

import numpy as np

from diracflow.dirac1d import _piece_slopes
from diracflow.opcore import as_matrix
from diracflow.scenarios import invertible_matrix
from diracflow.specflow import _trig_coeff_matrices
from partition_loops import gap_level


class ScalarPath:
    """A grid and a rule t -> (k, k) matrix, sampled one t at a time."""

    def __init__(self, k, grid, rule):
        self.k, self.grid, self.rule = k, np.asarray(grid, dtype=float), rule

    def sample(self, t):
        tc = min(max(float(t), float(self.grid[0])), float(self.grid[-1]))
        a = np.asarray(self.rule(tc), dtype=np.complex128)
        assert a.shape == (self.k, self.k), a.shape
        return (a + a.conj().T) / 2.0

    def span(self):
        return float(self.grid[0]), float(self.grid[-1])


def smoothstep(u):
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


def quintic_plateau(t, lo, hi, ramp):
    if lo <= t <= hi:
        return 1.0
    d = (lo - t) if t < lo else (t - hi)
    if d >= ramp:
        return 0.0
    return smoothstep(1.0 - d / ramp)


# -- specflow ---------------------------------------------------------------

def constant_path(h, span=(0.0, 1.0), n_samples=9):
    a = as_matrix(h)
    return ScalarPath(a.shape[0], np.linspace(span[0], span[1], n_samples), lambda t: a)


def linear_scalar_path(n_samples=33):
    return ScalarPath(1, np.linspace(0.0, 1.0, n_samples),
                      lambda t: np.array([[2.0 * t - 1.0]]))


def tanh_path(k=1, scale=1.0, span=(-10.0, 10.0), n_samples=161):
    eye = np.eye(k, dtype=np.complex128)
    return ScalarPath(k, np.linspace(span[0], span[1], n_samples),
                      lambda t: np.tanh(scale * t) * eye)


def diagonal_path(funcs, span, n_samples):
    fs = list(funcs)

    def sampler(t):
        return np.diag([f(t) for f in fs]).astype(np.complex128)

    return ScalarPath(len(fs), np.linspace(span[0], span[1], n_samples), sampler)


def path_from_samples(grid, matrices):
    grid = np.asarray(grid, dtype=float)
    mats = [np.asarray(m, dtype=np.complex128) for m in matrices]

    def sampler(t):
        j = int(np.searchsorted(grid, t, side="right")) - 1
        j = min(max(j, 0), grid.size - 2)
        u = (t - grid[j]) / (grid[j + 1] - grid[j])
        return (1.0 - u) * mats[j] + u * mats[j + 1]

    return ScalarPath(mats[0].shape[0], grid, sampler)


def random_smooth_path(seed, k, span=(0.0, 1.0), n_samples=64,
                       min_end_gap=0.05, amplitude=1.0):
    rng = np.random.default_rng(seed)
    cos_c = _trig_coeff_matrices(rng, k)
    sin_c = _trig_coeff_matrices(rng, k)
    lo, hi = float(span[0]), float(span[1])

    def raw(t):
        u = (t - lo) / (hi - lo)
        acc = np.zeros((k, k), dtype=np.complex128)
        for m, c in enumerate(cos_c):
            acc += np.cos(m * np.pi * u) * c
        for m, c in enumerate(sin_c, start=1):
            acc += np.sin(m * np.pi * u) * c
        return amplitude * acc

    def end_shift(mat):
        w = np.linalg.eigvalsh(mat)
        lvl, _ = gap_level(np.concatenate([w, [w.min() - 2.0, w.max() + 2.0]]),
                           2.0 * min_end_gap)
        return 0.0 if lvl is None else lvl

    c0 = end_shift(raw(lo))
    c1 = end_shift(raw(hi))

    def sampler(t):
        u = (t - lo) / (hi - lo)
        return raw(t) - ((1.0 - u) * c0 + u * c1) * np.eye(k)

    return ScalarPath(k, np.linspace(lo, hi, n_samples), sampler)


def concat_paths(p1, p2):
    a1, b1 = p1.span()
    a2, b2 = p2.span()
    offset = b1 - a2

    def sampler(t):
        return p1.sample(t) if t <= b1 else p2.sample(t - offset)

    return ScalarPath(p1.k, np.concatenate([p1.grid, p2.grid[1:] + offset]), sampler)


def reversed_path(p):
    a, b = p.span()
    return ScalarPath(p.k, (a + b) - p.grid[::-1], lambda t: p.sample(a + b - t))


def conjugated_path(p, unitary_rule):
    def sampler(t):
        u = np.asarray(unitary_rule(t), dtype=np.complex128)
        return u @ p.sample(t) @ u.conj().T

    return ScalarPath(p.k, p.grid.copy(), sampler)


def perturbed_path(p, bump, r):
    rm = as_matrix(r)

    def sampler(t):
        return p.sample(t) + float(bump(t)) * rm

    return ScalarPath(p.k, p.grid.copy(), sampler)


# -- scenarios --------------------------------------------------------------

def chain_path(seed, k, n_intervals=1, bump_amp=0.8, n_samples=65):
    rng = np.random.default_rng(np.random.SeedSequence([seed, k, n_intervals]))
    plateaus = [invertible_matrix(rng, k) for _ in range(n_intervals + 1)]
    bumps = []
    for _ in range(n_intervals):
        b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        b = (b + b.conj().T) / 2.0
        bumps.append(bump_amp * b / max(1.0, float(np.linalg.norm(b, 2))))
    intervals = tuple((4.0 * j, 4.0 * j + 2.0) for j in range(n_intervals))
    span = (intervals[0][0] - 2.0, intervals[-1][1] + 2.0)

    def sampler(t):
        for j, (lo, hi) in enumerate(intervals):
            if t < lo:
                return plateaus[j]
            if t <= hi:
                u = smoothstep((t - lo) / (hi - lo))
                mid = math.sin(math.pi * (t - lo) / (hi - lo))
                return (1.0 - u) * plateaus[j] + u * plateaus[j + 1] \
                    + mid * bumps[j]
        return plateaus[-1]

    return ScalarPath(k, np.linspace(span[0], span[1], n_samples), sampler)


def collar_pair(seed, k):
    rng = np.random.default_rng(np.random.SeedSequence([seed, k, 77]))
    shared_right = invertible_matrix(rng, k)
    out = []
    for variant in (0, 1):
        sub = np.random.default_rng(np.random.SeedSequence([seed, k, variant]))
        left = invertible_matrix(sub, k)
        b = sub.standard_normal((k, k)) + 1j * sub.standard_normal((k, k))
        b = (b + b.conj().T) / 2.0
        b = 0.8 * b / max(1.0, float(np.linalg.norm(b, 2)))

        def sampler(t, left=left, b=b):
            if t < 0.0:
                return left
            if t <= 2.0:
                u = smoothstep(t / 2.0)
                return (1.0 - u) * left + u * shared_right \
                    + math.sin(math.pi * t / 2.0) * b
            return shared_right

        out.append(ScalarPath(k, np.linspace(-2.0, 4.0, 49), sampler))
    return out[0], out[1], 3.0


def bump_perturbation(seed, k, hull, height=0.4):
    """(bump, direction, (lo, hi, ramp)): the scalar bump of
    `scenarios.bump_perturbation` for a path of fiber dimension k with
    support hull ``hull``, and its plateau and ramp."""
    a, b = hull
    rng = np.random.default_rng(np.random.SeedSequence([seed, k, 13]))
    r = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    r = (r + r.conj().T) / 2.0
    r = r / max(1.0, float(np.linalg.norm(r, 2)))
    width = 0.35 * (b - a)
    center = a + (b - a) * rng.uniform(0.3, 0.7)
    lo, hi, ramp = center - 0.3 * width, center + 0.3 * width, 0.7 * width

    def bump(t):
        return height * quintic_plateau(t, lo, hi, ramp)

    return bump, r, (lo, hi, ramp)


def engineered_threshold_path(alpha=0.4, n_samples=241):
    b = math.asinh(1.0) / alpha
    grid = np.linspace(-3.0 * b, 3.0 * b, n_samples)

    def sampler(t):
        return np.array([[math.sinh(alpha * t)]])

    return ScalarPath(1, grid, sampler)


# -- surgery ----------------------------------------------------------------

def splice(left, right, t_cut):
    def sampler(t):
        return left.sample(t) if t < t_cut else right.sample(t)

    grid = np.unique(np.concatenate([
        left.grid[left.grid < t_cut], [t_cut], right.grid[right.grid > t_cut]]))
    return ScalarPath(left.k, grid, sampler)


# -- dirac1d ----------------------------------------------------------------

def path_derivative_norms(path, k_hat):
    """(t, delta_t) on the grid, with the two resolvent solves and the two
    norms of each sample taken one sample at a time."""
    ts = path.grid
    samples = path.samples(ts)
    intervals = list(path.support) + ([k_hat] if k_hat is not None else [])
    label = sum(((ts >= a).astype(int) + (ts > b).astype(int) for a, b in intervals),
                np.zeros(ts.size, dtype=int))
    slopes = []
    for piece in np.split(np.arange(ts.size), np.flatnonzero(np.diff(label)) + 1):
        slopes += _piece_slopes(ts[piece], samples[piece[0]:piece[-1] + 1])
    eye = np.eye(path.k, dtype=np.complex128)
    out = []
    for t, s, ds in zip(ts, samples, slopes):
        d_plus = float(np.linalg.norm(
            np.linalg.solve((s + 1j * eye).conj().T, ds.conj().T).conj().T, 2))
        d_minus = float(np.linalg.norm(
            np.linalg.solve((s - 1j * eye).conj().T, ds.conj().T).conj().T, 2))
        out.append((float(t), max(d_plus, d_minus)))
    return out


# -- callias ----------------------------------------------------------------

def ramp_family(n, t_n, perturbations):
    return tuple(
        ScalarPath(n, np.linspace(-2.5, 2.5, 41),
                   lambda t, r_n=r_n: t_n + smoothstep((t + 1.0) / 2.0) * r_n)
        for r_n in perturbations)
