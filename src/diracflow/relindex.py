"""Relative index of pairs of projections.

For projections P, Q on the same finite-dimensional space with P - Q
"small" (here: any pair; in the operator-theoretic picture the difference
must be compact), the relative index is the Fredholm index of Q viewed as
a map Ran(P) -> Ran(Q).  In finite dimensions this equals both
rank P - rank Q and tr(P - Q); we compute the trace and keep the distance
to the nearest integer as a built-in health signal.  The explicit
restricted-operator index (`rel_index_restricted`) is, by rank-nullity,
rank P - rank Q as the eigendecompositions count them: it compares ranks
with the trace and is not an independent route (ROADMAP item 8).
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInput, NonIntegerTrace, PathTooCoarse
from .opcore import Projection, eigh, null_space, spectral_norm

__all__ = [
    "rel_index",
    "rel_index_restricted",
    "check_additivity",
    "AdditivityReport",
    "homotopy_constancy",
    "HomotopyReport",
]


# A trace tr(P - Q) further than this (absolute) from the nearest integer
# is not an index.
_INTEGER_RESIDUAL_TOL = 1e-6


def _projection(x) -> Projection:
    return x if isinstance(x, Projection) else Projection(x)


def _pair(p, q):
    """(P, Q) as Projections on one space; a Projection passes through."""
    p, q = _projection(p), _projection(q)
    if p.dim != q.dim:
        raise InvalidInput(f"projection dims differ: {p.dim} vs {q.dim}")
    return p, q


def rel_index(p, q) -> int:
    """Relative index of (P, Q) via the trace formula round(tr(P - Q)).

    Raises NonIntegerTrace when the trace sits further than
    _INTEGER_RESIDUAL_TOL from the nearest integer.
    """
    p, q = _pair(p, q)
    t = float(np.trace(p.entries - q.entries).real)
    r = int(round(t))
    if abs(t - r) > _INTEGER_RESIDUAL_TOL:
        raise NonIntegerTrace(
            f"tr(P-Q) = {t!r} is {abs(t - r):.3e} from the nearest integer")
    return r


def _range_basis(p: Projection) -> np.ndarray:
    w, v = eigh(p)
    return v[:, w > 0.5]


def rel_index_restricted(p, q) -> int:
    """Index of Q: Ran(P) -> Ran(Q) computed explicitly from the restricted
    matrix (dim ker minus dim coker via SVD).

    By rank-nullity the result is the column count minus the row count of
    that matrix, i.e. rank P - rank Q as the eigendecompositions count them,
    whatever the SVD decides: it is bookkeeping, not a second route to
    `rel_index` (ROADMAP item 8)."""
    p, q = _pair(p, q)
    bp = _range_basis(p)
    bq = _range_basis(q)
    # matrix of psi -> Q psi in the orthonormal bases of Ran P and Ran Q
    m = bq.conj().T @ (q.entries @ bp)
    ker = null_space(m, want_basis=False).dim
    rank = m.shape[1] - ker
    # m and m* share their singular values, so one SVD gives dim coker
    return ker - (m.shape[0] - rank)


@dataclass(frozen=True)
class AdditivityReport:
    direct: int        # rel_index(P, R)
    terms: tuple       # (rel_index(P, Q), rel_index(Q, R))
    passed: bool


def check_additivity(p, q, r) -> AdditivityReport:
    """Verify rel-ind(P, R) = rel-ind(P, Q) + rel-ind(Q, R) exactly."""
    p, q, r = _projection(p), _projection(q), _projection(r)
    i_pr = rel_index(p, r)
    i_pq = rel_index(p, q)
    i_qr = rel_index(q, r)
    return AdditivityReport(direct=i_pr, terms=(i_pq, i_qr),
                            passed=i_pr == i_pq + i_qr)


@dataclass(frozen=True)
class HomotopyReport:
    values: tuple           # rel_index along the sampled paths
    passed: bool


def homotopy_constancy(p_path: Sequence, q_path: Sequence) -> HomotopyReport:
    """Verify constancy of rel_index along sampled projection paths.

    Both paths must be sampled on a common grid with consecutive jumps
    ||P_{i+1} - P_i|| < 1 (the sampled stand-in for strong continuity with
    compact differences); a jump >= 1 raises PathTooCoarse.  When
    ``q_path`` is constantly P_0, values[0] = rel_index(P_0, P_0) = 0, so
    constancy is the vanishing of every rel_index(P_i, P_0).
    """
    ps = [_projection(x) for x in p_path]
    qs = [_projection(x) for x in q_path]
    if len(ps) != len(qs) or len(ps) == 0:
        raise InvalidInput("paths must be nonempty and sampled on a common grid")
    for seq, label in ((ps, "P"), (qs, "Q")):
        steps = spectral_norm(np.diff([x.entries for x in seq], axis=0))
        if (steps >= 1.0).any():
            i = int(np.argmax(steps >= 1.0))
            raise PathTooCoarse(
                f"{label}-path jump ||{label}_{i + 1} - {label}_{i}|| = "
                f"{steps[i]:.3f} >= 1")
    values = tuple(rel_index(pi, qi) for pi, qi in zip(ps, qs))
    return HomotopyReport(values=values, passed=len(set(values)) == 1)
