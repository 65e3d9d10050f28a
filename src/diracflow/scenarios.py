"""Seeded scenario generators shared by the CLI and the acceptance suite.

Every generator is deterministic in its seed and produces inputs that
satisfy the hypotheses of the checks they feed by construction: invertible
constant tails with unit-size gaps (so truncation lengths stay short),
interpolation and bumps confined to the declared support set, and collar
pairs that agree exactly on the gluing region because they share the same
constant flank.
"""

import math
from typing import Tuple

import numpy as np

from .dirac1d import quintic_plateau, smoothstep
from .errors import InvalidInput
from .inequalities import random_unitary
from .opcore import spectral_norm
from .specflow import PotentialPath

__all__ = [
    "invertible_matrix",
    "chain_path",
    "collar_pair",
    "bump_perturbation",
    "engineered_threshold_path",
    "callias_case",
]


def invertible_matrix(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random Hermitian matrix with |spectrum| in [1, 2.5]."""
    u = random_unitary(rng, k)
    mags = rng.uniform(1.0, 2.5, size=k)
    signs = np.where(rng.uniform(size=k) < 0.5, -1.0, 1.0)
    return (u * (mags * signs)) @ u.conj().T


def _bounded_hermitian(rng: np.random.Generator, k: int, bound: float) -> np.ndarray:
    """Random Hermitian k x k matrix, scaled to spectral norm at most
    ``bound``."""
    b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    b = (b + b.conj().T) / 2.0
    return bound * b / max(1.0, spectral_norm(b))


def _plateau_chain(plateaus, bumps, n_samples: int, name: str) -> PotentialPath:
    """Constant plateaus separated by transition windows [4j, 4j + 2],
    where the potential interpolates between consecutive plateaus and
    picks up the bump sin(pi x / 2) * bumps[j].  The support set is the
    union of the windows, the grid spans 2 beyond them on both sides."""
    k = plateaus[0].shape[0]
    intervals = tuple((4.0 * j, 4.0 * j + 2.0) for j in range(len(bumps)))
    span = (intervals[0][0] - 2.0, intervals[-1][1] + 2.0)

    def sampler(ts):
        out = np.empty((ts.size, k, k), dtype=np.complex128)
        out[:] = plateaus[-1]
        # window j takes the t not yet taken by an earlier window: those
        # before it sit on plateau j, those inside it interpolate
        free = np.ones(ts.size, dtype=bool)
        for j, (lo, hi) in enumerate(intervals):
            before, inside = free & (ts < lo), free & (lo <= ts) & (ts <= hi)
            out[before] = plateaus[j]
            x = ts[inside] - lo
            u = smoothstep(x / (hi - lo))[:, None, None]
            mid = np.sin(math.pi * x / (hi - lo))[:, None, None]
            out[inside] = (1.0 - u) * plateaus[j] + u * plateaus[j + 1] + mid * bumps[j]
            free &= ts > hi
        return out

    grid = np.linspace(span[0], span[1], n_samples)
    return PotentialPath(k, grid, sampler, support=intervals, name=name)


def chain_path(seed: int, k: int, n_intervals: int = 1,
               n_samples: int = 65) -> PotentialPath:
    """Piecewise scenario: constant invertible plateaus (`invertible_matrix`)
    separated by n_intervals transition windows where the potential
    interpolates between consecutive plateaus and picks up a smooth bump
    of norm at most 0.8 (`_plateau_chain`).

    The support set is the union of the transition windows; outside them
    the potential equals one of the plateau matrices exactly, so the
    invertibility margin is the smallest plateau gap, at least 1.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, k, n_intervals]))
    plateaus = [invertible_matrix(rng, k) for _ in range(n_intervals + 1)]
    bumps = [_bounded_hermitian(rng, k, 0.8) for _ in range(n_intervals)]
    return _plateau_chain(plateaus, bumps, n_samples,
                          f"chain(seed={seed}, k={k}, m={n_intervals})")


def collar_pair(seed: int, k: int) -> Tuple[PotentialPath, PotentialPath, float]:
    """Two one-window plateau chains sharing their right plateau exactly
    (both constant equal to it beyond the window [0, 2]), so any collar at
    the cut matches to machine zero.  Returns (m1, m2, t_cut)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, k, 77]))
    shared_right = invertible_matrix(rng, k)
    out = []
    for variant in (0, 1):
        sub = np.random.default_rng(np.random.SeedSequence([seed, k, variant]))
        left = invertible_matrix(sub, k)
        bump = _bounded_hermitian(sub, k, 0.8)
        out.append(_plateau_chain([left, shared_right], [bump], 49,
                                  f"collar-{variant}(seed={seed}, k={k})"))
    return out[0], out[1], 3.0


def bump_perturbation(seed: int, path: PotentialPath):
    """Compactly supported symmetric bump of height 0.4 inside the path's
    support hull: returns (stacked bump rule ts -> weights, Hermitian
    direction of norm at most 1) for `perturbed_path`."""
    hull = path.hull()
    if hull is None:
        raise InvalidInput("path has empty support; no room for a bump")
    a, b = hull
    rng = np.random.default_rng(np.random.SeedSequence([seed, path.k, 13]))
    r = _bounded_hermitian(rng, path.k, 1.0)
    width = 0.35 * (b - a)
    center = a + (b - a) * rng.uniform(0.3, 0.7)

    def bump(ts):
        return 0.4 * quintic_plateau(ts, center - 0.3 * width,
                                     center + 0.3 * width, 0.7 * width)

    return bump, r


def engineered_threshold_path(alpha: float = 0.4,
                              n_samples: int = 241) -> Tuple[PotentialPath, Tuple[float, float]]:
    """Scalar path sinh(alpha * t): the derivative-resolvent norm equals
    alpha at every point (cosh/cosh cancels), and |sinh| reaches 1 exactly
    where the compact region ends, so the uniform bounds are c = 1 and
    delta = alpha on the outside region.

    Returns (path, k_hat): pass k_hat to the bound check so that the first
    samples outside it sit exactly at |sinh| = 1.
    """
    b = math.asinh(1.0) / alpha
    grid = np.linspace(-3.0 * b, 3.0 * b, n_samples)
    # place the region boundary strictly between grid samples so that the
    # FIRST samples outside it are exactly +-b, where |sinh| = 1
    step = grid[1] - grid[0]
    k_hat = (-b + 0.5 * step, b - 0.5 * step)

    def sampler(ts):
        # math.sinh, one t at a time: np.sinh rounds differently
        return np.array([math.sinh(alpha * t) for t in ts.tolist()])[:, None, None]

    path = PotentialPath(1, grid, sampler, support=((k_hat[0], k_hat[1]),),
                         name=f"sinh({alpha:g} t)")
    return path, k_hat


def callias_case(seed: int):
    """One seeded hypersurface-pairing case, cycling through the scenario
    classes: scalar, matrix fiber (k up to 8), multi-interval support
    (up to 3 intervals), and families of up to 4 fibers.  The first three
    classes are one-fiber families.

    Returns (paths, lam, reference, reference_alt).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA11]))
    kind = seed % 4
    lam = float(rng.uniform(1.0, 2.0))
    if kind == 0:
        paths = (chain_path(seed, 1),)
    elif kind == 1:
        paths = (chain_path(seed, 2 + seed % 7),)
    elif kind == 2:
        paths = (chain_path(seed, 1 + seed % 4, n_intervals=2 + (seed // 4) % 2),)
    else:
        paths = tuple(chain_path(seed * 31 + i, 1 + (seed + i) % 3)
                      for i in range(2 + seed % 3))
    ref_scale = float(rng.uniform(1.0, 2.0))
    reference = -ref_scale           # scalar multiples of the identity
    reference_alt = ref_scale * 0.5  # opposite-sign second reference
    return paths, lam, reference, reference_alt
