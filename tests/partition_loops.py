"""Reference partition route for the tests: one piece and one junction at a time.

``specflow._partition`` takes the gap levels of every piece of both
partitions in one padded stack (``_piece_levels``, ``_gap_levels``) and
every junction count in one call (``_junction_counts``).  These are the
per-piece and per-junction functions that the stacked ones replaced.  They
stay here as the oracle, whose levels, counts, flow and messages the
stacked ones must reproduce bitwise.
"""

import numpy as np

from diracflow import opcore
from diracflow.errors import NotInvertible, TheoremViolation


def gap_level(eigs, min_width):
    """(level, score): the midpoint of the widest spectral gap near zero in
    a pooled spectrum, and its score; (None, 0.0) when no gap of width
    >= min_width has a positive score.  The lowest of equal best scores
    wins."""
    vals = np.sort(eigs)
    width = vals[1:] - vals[:-1]
    mid = 0.5 * (vals[:-1] + vals[1:])
    score = np.where(width >= min_width, width / (1.0 + mid * mid), 0.0)
    if not score.size or score.max() <= 0.0:
        return None, 0.0
    # argmax takes the first maximum
    best = int(score.argmax())
    return float(mid[best]), float(score[best])


def piece_level(spectra, steps):
    """Gap level of one piece: gaps wider than 1.5 times the largest step
    (plus 4 opcore._PROJ_GAP_TOL), else a sentinel beyond the pooled
    spectrum with a low score."""
    pooled = np.concatenate(spectra)
    max_step = float(max(steps)) if len(steps) else 0.0
    min_width = 1.5 * max_step + 4.0 * opcore._PROJ_GAP_TOL
    best, best_score = gap_level(pooled, min_width)
    pad = max_step + 1.0
    for mid in (float(pooled.min()) - pad, float(pooled.max()) + pad):
        score = float(min_width / (1.0 + mid * mid)) * 1e-6
        if best is None or score > best_score:
            best, best_score = mid, score
    return best


def junction(path, spectra, i, a0, a1):
    """#{w > a1} - #{w > a0} over the spectrum w of S(t_i); NotInvertible
    names t_i when an eigenvalue lies within opcore._PROJ_GAP_TOL of a1
    (checked first) or of a0."""
    w, gap_tol = spectra[i], opcore._PROJ_GAP_TOL
    for a in (a1, a0):
        near = np.abs(w - a)
        if float(near.min()) < gap_tol:
            raise NotInvertible(
                f"S(t={path.grid[i]:g}) - {a:g}: eigenvalue {w[near.argmin()] - a:.3e} "
                f"inside gap (+-{gap_tol:.1e})")
    return int(np.count_nonzero(w > a1)) - int(np.count_nonzero(w > a0))


def chunking(path, m):
    """The pieces (i0, i1) of the m-piece partition of the path's grid."""
    n = path.grid.size - 1
    bounds = np.unique(np.linspace(0, n, min(m, n) + 1).astype(int))
    return list(zip(bounds[:-1], bounds[1:]))


def piece_levels(spectra, steps, chunks):
    """The level of each piece (i0, i1) in ``chunks``."""
    return [piece_level(spectra[i0:i1 + 1], steps[i0:i1]) for i0, i1 in chunks]


def partition_flow(path, spectra, steps, chunks):
    """The flow summed over the junctions of one partition."""
    levels = [0.0] + piece_levels(spectra, steps, chunks) + [0.0]
    junctions = [i0 for i0, _ in chunks] + [chunks[-1][1]]
    return sum(junction(path, spectra, i, a0, a1)
               for i, a0, a1 in zip(junctions, levels, levels[1:]))


def partition(path, spectra, steps, n_chunks=6):
    """``specflow._partition`` one piece and one junction at a time."""
    value = partition_flow(path, spectra, steps, chunking(path, n_chunks))
    refined_value = partition_flow(path, spectra, steps, chunking(path, 2 * n_chunks))
    if refined_value != value:
        raise TheoremViolation(
            f"partition spectral flow changed under refinement: "
            f"{value} vs {refined_value}")
    return value
