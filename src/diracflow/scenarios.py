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

from .dirac1d import quintic_plateau
from .inequalities import random_unitary
from .opcore import HermitianOperator
from .specflow import PotentialPath, random_smooth_path
from .surgery import smoothstep

__all__ = [
    "invertible_matrix",
    "sf_path",
    "chain_path",
    "flat_tail_path",
    "collar_pair",
    "bump_perturbation",
    "engineered_threshold_path",
    "callias_case",
]


def invertible_matrix(rng: np.random.Generator, k: int,
                      gap: float = 1.0, spread: float = 1.5) -> np.ndarray:
    """Random Hermitian matrix with |spectrum| in [gap, gap + spread]."""
    u = random_unitary(rng, k)
    mags = rng.uniform(gap, gap + spread, size=k)
    signs = np.where(rng.uniform(size=k) < 0.5, -1.0, 1.0)
    return (u * (mags * signs)) @ u.conj().T


def sf_path(seed: int, k: int, n_samples: int = 64) -> PotentialPath:
    """Random smooth path on [0, 1] with invertibility-shifted endpoints,
    declared support K = [0, 1] (so N consists of the two endpoints)."""
    return random_smooth_path(seed, k, span=(0.0, 1.0), n_samples=n_samples)


def chain_path(seed: int, k: int, n_intervals: int = 1,
               gap: float = 1.0, bump_amp: float = 0.8,
               n_samples: int = 65) -> PotentialPath:
    """Piecewise scenario: constant invertible plateaus separated by
    n_intervals transition windows where the potential interpolates
    between consecutive plateaus and picks up a smooth bump.

    The support set is the union of the transition windows; outside them
    the potential equals one of the plateau matrices exactly, so the
    invertibility margin is the smallest plateau gap.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, k, n_intervals]))
    plateaus = [invertible_matrix(rng, k, gap) for _ in range(n_intervals + 1)]
    bumps = []
    for _ in range(n_intervals):
        b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        b = (b + b.conj().T) / 2.0
        bumps.append(bump_amp * b / max(1.0, float(np.linalg.norm(b, 2))))
    # transition window j occupies [4j, 4j + 2], centered plateaus between
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

    grid = np.linspace(span[0], span[1], n_samples)
    return PotentialPath(k, grid, sampler, support=intervals,
                         name=f"chain(seed={seed}, k={k}, m={n_intervals})")


def flat_tail_path(seed: int, k: int, **kw) -> PotentialPath:
    """Single-transition special case of `chain_path`."""
    return chain_path(seed, k, n_intervals=1, **kw)


def collar_pair(seed: int, k: int) -> Tuple[PotentialPath, PotentialPath, float]:
    """Two paths sharing their right flank exactly (both constant equal to
    the same plateau beyond the cut), so any collar at the cut matches to
    machine zero.  Returns (m1, m2, t_cut)."""
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

        grid = np.linspace(-2.0, 4.0, 49)
        out.append(PotentialPath(k, grid, sampler, support=((0.0, 2.0),),
                                 name=f"collar-{variant}(seed={seed}, k={k})"))
    return out[0], out[1], 3.0


def bump_perturbation(seed: int, path: PotentialPath,
                      height: float = 0.4):
    """Compactly supported symmetric bump inside the path's support hull:
    returns (bump rule, Hermitian direction) for `perturbed_path`."""
    hull = path.hull()
    if hull is None:
        raise ValueError("path has empty support; no room for a bump")
    a, b = hull
    rng = np.random.default_rng(np.random.SeedSequence([seed, path.k, 13]))
    r = rng.standard_normal((path.k, path.k)) \
        + 1j * rng.standard_normal((path.k, path.k))
    r = (r + r.conj().T) / 2.0
    r = r / max(1.0, float(np.linalg.norm(r, 2)))
    width = 0.35 * (b - a)
    center = a + (b - a) * rng.uniform(0.3, 0.7)

    def bump(t):
        return height * quintic_plateau(t, center - 0.3 * width,
                                        center + 0.3 * width, 0.7 * width)

    return bump, HermitianOperator(r)


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

    def sampler(t):
        return np.array([[math.sinh(alpha * t)]])

    path = PotentialPath(1, grid, sampler, support=((k_hat[0], k_hat[1]),),
                         name=f"sinh({alpha:g} t)")
    return path, k_hat


def callias_case(seed: int):
    """One seeded hypersurface-pairing case, cycling through the scenario
    classes: scalar, matrix fiber (k up to 8), multi-interval support
    (up to 3 intervals), and fibered families (up to 4 fibers).

    Returns (path_or_family, lam, reference, reference_alt).
    """
    from .callias import FiberedFamily

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA11]))
    kind = seed % 4
    lam = float(rng.uniform(1.0, 2.0))
    if kind == 0:
        case = flat_tail_path(seed, 1)
        k = 1
    elif kind == 1:
        k = 2 + seed % 7
        case = flat_tail_path(seed, k)
    elif kind == 2:
        k = 1 + seed % 4
        case = chain_path(seed, k, n_intervals=2 + (seed // 4) % 2)
    else:
        m = 2 + seed % 3
        paths = tuple(flat_tail_path(seed * 31 + i, 1 + (seed + i) % 3)
                      for i in range(m))
        case = FiberedFamily(labels=tuple(range(m)), paths=paths)
        k = None
    ref_scale = float(rng.uniform(1.0, 2.0))
    reference = -ref_scale           # scalar multiples of the identity
    reference_alt = ref_scale * 0.5  # opposite-sign second reference
    return case, lam, reference, reference_alt
