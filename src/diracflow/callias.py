"""Hypersurface pairing: computing the index from boundary data alone.

For a 1-D potential path invertible outside a finite union K of closed
intervals, the hypersurface is the boundary N = dK of its declared
support: the interval endpoints, carrying outward signs gamma = -1 at left
endpoints and +1 at right ones.  The pairing of the boundary restriction
with a fixed invertible reference operator T,

    rhs = sum over y in N of gamma(y) * rel-ind(P_+(S(y)), P_+(T)),

must equal the index of the assembled 1-D operator, independently of the
choice of T (the signed sum telescopes).  A family is a tuple of
independent paths, one per point of a finite fiber set Y, and produces one
integer per fiber.

Truncation towers give the finite-dimensional meaning of the
relatively-compact-perturbation hypothesis.  A tower is an
`opcore.TruncationTower`: a reference template T and one perturbation
template R_i per fiber, whose nesting `opcore.tower_instantiate` verifies
at every dimension n.  `tower_family` turns it into the family
T_n + smoothstep((t + 1)/2) R_i,n, and `tower_callias` pairs that family
against T_n: the perturbations must pass the relative-compactness test
`opcore.resolvent_tails`, the difference-of-projection tails must pass
`opcore.tails_vanish` and the integers must stabilize.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInput,
    NotInvertible,
    TheoremViolation,
    TowerTooShallow,
)
from .opcore import (
    TruncationTower,
    _hermitised,
    alternating_diag_template,
    decaying_rank_template,
    positive_projection,
    resolvent_tails,
    spectral_gap,
    spectral_norm,
    tails_vanish,
    tower_instantiate,
)
from .relindex import rel_index
from .specflow import PotentialPath, endpoint_identity
from . import dirac1d
from .dirac1d import smoothstep

__all__ = [
    "CalliasReport",
    "rhs_pairing",
    "callias_check",
    "index_identity",
    "ran_projection_pairing",
    "four_way_identity",
    "FourWayReport",
    "tower_scenario",
    "tower_family",
    "tower_callias",
    "TowerCalliasReport",
]


def _boundary(path: PotentialPath) -> tuple:
    """(y, gamma(y), P_+(S(y))) for each point y of N = dK, in order: the
    endpoints of the intervals of the declared support K, signed by the
    outward normal (-1 at a left endpoint, +1 at a right one).  Each
    projection is taken once; NotInvertible names a singular point."""
    boundary = []
    for interval in path.support:
        for y, gamma in zip(interval, (-1, 1)):
            try:
                boundary.append((y, gamma, positive_projection(path.sample(y))))
            except NotInvertible as exc:
                raise NotInvertible(
                    f"potential not invertible at boundary point {y:g}") from exc
    return tuple(boundary)


def _pairing_terms(path: PotentialPath, boundary, reference, resolved) -> tuple:
    """gamma(y) * rel-ind(P_+(S(y)), P_+(T)) for each boundary point y,
    with the reference T a scalar (a multiple of the identity) or a
    matrix.  ``resolved`` maps a fiber dimension to its P_+(T) and is
    filled on first use, so a family resolves T once per dimension.
    Without boundary points no reference is resolved."""
    if not boundary:
        return ()
    k = path.k
    if k not in resolved:
        if np.isscalar(reference):
            reference = complex(reference) * np.eye(k, dtype=np.complex128)
        reference = _hermitised(reference)
        if reference.shape != (k, k):
            raise InvalidInput(f"reference has shape {reference.shape}, expected ({k}, {k})")
        try:
            resolved[k] = positive_projection(reference)
        except NotInvertible as exc:
            raise NotInvertible("reference operator is not invertible") from exc
    return tuple(g * rel_index(p_y, resolved[k]) for _, g, p_y in boundary)


def rhs_pairing(path: PotentialPath, reference=-1.0) -> int:
    """Signed sum over N = dK of the relative indices of P_+(S(y)) against
    P_+(T) for a reference T (a scalar multiple of the identity or a
    matrix)."""
    return sum(_pairing_terms(path, _boundary(path), reference, {}))


def _flow(path: PotentialPath) -> int:
    """The endpoint identity's integer; its three routes must agree
    (TheoremViolation otherwise)."""
    ident = endpoint_identity(path)
    if not ident.passed:
        raise TheoremViolation(
            f"spectral-flow routes disagree on {path.name}: {ident}")
    return ident.endpoint_rel_index


def index_identity(path: PotentialPath, lam: float = 1.0, grid=None) -> int:
    """The index of the APS assembly of ``path`` (``grid`` as in
    `dirac1d.path_index_report`), which must equal the spectral flow of
    `_flow`; TheoremViolation otherwise.  The endpoint identity runs
    first, so the assembly's invertibility check reads its grid pass."""
    flow = _flow(path)
    index = dirac1d.path_index_report(path, grid, lam).index
    if index != flow:
        raise TheoremViolation(
            f"assembled index {index} != spectral flow {flow} on {path.name}")
    return index


@dataclass(frozen=True)
class CalliasReport:
    """One entry per fiber in each field."""

    lhs: tuple
    rhs: tuple
    rhs_alt: tuple      # with the second, independent reference
    per_point: tuple    # per fiber: the pairing's term at each boundary point


def callias_check(paths: tuple, lam: float = 1.0, reference=-1.0,
                  reference_alt=1.0) -> CalliasReport:
    """Assert index == hypersurface pairing on every fiber of the family
    ``paths``, including reference independence.

    The left-hand side is `index_identity`'s on ``GridSpec.auto(path)``:
    the index of the APS assembly, cross-checked against the spectral
    flow; the right-hand side is evaluated with two distinct references
    and must not depend on the choice.  Any mismatch raises
    TheoremViolation; an empty family raises InvalidInput.
    """
    if not paths:
        raise InvalidInput("need at least one fiber path")
    boundaries = [_boundary(p) for p in paths]
    return _pairing_report(paths, boundaries, lambda p: index_identity(p, lam),
                           reference, reference_alt)


def _pairing_report(paths, boundaries, lhs, reference, reference_alt) -> CalliasReport:
    """The CalliasReport of ``paths`` from their boundary projections; per
    fiber, ``lhs(path)`` is taken first, then the pairing against each
    reference, whose projection is resolved once for the family."""
    values, rhs, rhs2, per_point = [], [], [], []
    resolved, resolved_alt = {}, {}
    for p, boundary in zip(paths, boundaries):
        values.append(lhs(p))
        terms = _pairing_terms(p, boundary, reference, resolved)
        per_point.append(terms)
        rhs.append(sum(terms))
        rhs2.append(sum(_pairing_terms(p, boundary, reference_alt, resolved_alt)))
    report = CalliasReport(lhs=tuple(values), rhs=tuple(rhs), rhs_alt=tuple(rhs2),
                           per_point=tuple(per_point))
    if not values == rhs == rhs2:
        raise TheoremViolation(
            f"hypersurface pairing mismatch: lhs={report.lhs} rhs={report.rhs} "
            f"rhs_alt={report.rhs_alt}")
    return report


def ran_projection_pairing(path: PotentialPath) -> int:
    """Signed sum of positive-subspace ranks at the boundary points.

    This is the unital/finitely-generated specialization: with the
    reference -1 the relative index against P_+(-1) = 0 is just the rank.
    It is the same arithmetic as rhs_pairing(path, reference=-1), which
    sums round(tr P_y) over the same projections, so comparing the two
    tests only rel_index's integer-residual check, not a second route
    (ROADMAP item 8).
    """
    return sum(g * p_y.rank() for _, g, p_y in _boundary(path))


@dataclass(frozen=True)
class FourWayReport:
    sf_by_crossings: int
    sf_by_partition: int
    endpoint_rel_index: int
    pairing: int
    passed: bool


def four_way_identity(path: PotentialPath) -> FourWayReport:
    """The interval special case: spectral flow (both routes), endpoint
    relative index, and the hypersurface pairing over N = dK against the
    reference -1 must produce one and the same integer."""
    ident = endpoint_identity(path)
    pairing = rhs_pairing(path)
    passed = ident.passed and ident.endpoint_rel_index == pairing
    return FourWayReport(sf_by_crossings=ident.sf_by_crossings,
                         sf_by_partition=ident.sf_by_partition,
                         endpoint_rel_index=ident.endpoint_rel_index,
                         pairing=pairing, passed=passed)


# ---------------------------------------------------------------------------
# Truncation-tower version.


def _fibre_scales(start: float):
    """start * 1.13^j for j = 0..63, then start / 1.13^j for j = 1..64."""
    for scale, step in ((start, 1.13), (start / 1.13, 1.0 / 1.13)):
        for _ in range(64):
            yield scale
            scale *= step


def tower_scenario(seed: int, dims, n_fibers: int = 2) -> TruncationTower:
    """Seeded tower: the reference template diag(1, -1, 2, -2, ...) and,
    per fiber, a rank-2 perturbation template whose vectors decay like
    exp(-1.6 j) (see `tower_family` for the paths they make).

    Each perturbation's scale is fixed at the base dimension dims[0] (so
    all truncations nest): the first of `_fibre_scales(3/||R||)` at which
    the perturbed endpoint keeps a gap of at least 0.8 there.  Growing the
    scale finds one for most seeds; where the gap peaks below 0.8 on the
    way up (fiber 0 of seed 35 peaks at 0.39), shrinking it does, because
    the reference's own gap is 1.
    """
    base_dim = int(dims[0])
    t_base = alternating_diag_template(base_dim)
    perturbations = []
    for i in range(n_fibers):
        raw = decaying_rank_template(2, 1.6, seed * 101 + i)
        r_base = raw(base_dim)
        scale = next((s for s in _fibre_scales(3.0 / spectral_norm(r_base))
                      if spectral_gap(t_base + s * r_base) >= 0.8), None)
        if scale is None:
            raise InvalidInput("could not reach an invertible perturbed endpoint")
        perturbations.append(lambda n, raw=raw, scale=scale: scale * raw(n))
    return TruncationTower(dims, alternating_diag_template, perturbations)


def tower_family(tower: TruncationTower, n: int) -> tuple:
    """The family at tower dimension n: fiber i is the path
    T_n + smoothstep((t + 1)/2) R_i,n on [-2.5, 2.5], which ramps the i-th
    perturbation onto the reference across the support set [-1, 1]."""
    return _ramp_family(n, *tower_instantiate(tower, n))


def _ramp_family(n: int, t_n, perturbations) -> tuple:
    if not perturbations:
        raise InvalidInput("need at least one fiber path")

    def ramp(r_n):
        return lambda ts: t_n + smoothstep((ts + 1.0) / 2.0)[:, None, None] * r_n

    return tuple(
        PotentialPath(n, np.linspace(-2.5, 2.5, 41), ramp(r_n),
                      support=((-1.0, 1.0),), name=f"tower-fiber-{i}(dim={n})")
        for i, r_n in enumerate(perturbations))


# The base dimension's index grid: [-9, 9] in cells of width 0.15, which
# holds `_ramp_family`'s paths on [-2.5, 2.5].
_TOWER_GRID = dirac1d.GridSpec(9.0, 120)


@dataclass(frozen=True)
class TowerCalliasReport:
    dims: tuple
    integers: tuple          # per dim: tuple of per-fiber integers
    tail_norms: tuple        # per dim: max over fibers/points of the projection tail
    resolvent_tails: tuple   # per dim: `opcore.resolvent_tails` of the tower
    passed: bool


def tower_callias(tower: TruncationTower) -> TowerCalliasReport:
    """Hypersurface pairing along a truncation tower.

    At every tower dimension n the fibers are `tower_family(tower, n)`'s,
    the reference is T_n, the tower's operator, and the coupling is 1.

    Precondition: each perturbation is relatively compact against T, as
    `opcore.resolvent_tails` tests it (the tails ||R_n (T_n - i)^(-1)
    Pi_tail|| past n/2 pass `opcore.tails_vanish`; NotRelativelyCompact
    otherwise).  It runs first, so every level is instantiated, and so
    checked for nesting, before the first is paired.  The left-hand side
    is `index_identity`'s at the base dimension, on `_TOWER_GRID`, and the
    already cross-validated spectral flow of `_flow` above it.  The
    per-fiber integers must agree at the top two dimensions
    (TowerTooShallow otherwise), and the report passes when the
    difference-of-projection tail norms pass `opcore.tails_vanish`.
    """
    dims = tower.dims
    res_tails = resolvent_tails(tower)
    integers, tails = [], []
    for pos, n in enumerate(dims):
        t_n, perturbations = tower_instantiate(tower, n)
        family = _ramp_family(n, t_n, perturbations)
        p_ref = positive_projection(t_n)
        boundaries = [_boundary(p) for p in family]
        # the tail past the first n/2 coordinates
        tails.append(max(spectral_norm((p_y.entries - p_ref.entries)[:, n // 2:])
                         for boundary in boundaries for _, _, p_y in boundary))
        lhs = (lambda p: index_identity(p, 1.0, _TOWER_GRID)) if pos == 0 else _flow
        rep = _pairing_report(family, boundaries, lhs, t_n, -t_n)
        integers.append(rep.lhs)
    if integers[-1] != integers[-2]:
        raise TowerTooShallow(
            f"integers did not stabilize: {integers[-2]} vs {integers[-1]} "
            f"at dims {dims[-2:]}")
    return TowerCalliasReport(dims=dims, integers=tuple(integers),
                              tail_norms=tuple(tails), resolvent_tails=res_tails,
                              passed=tails_vanish(tails))
