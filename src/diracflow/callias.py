"""Hypersurface pairing: computing the index from boundary data alone.

For a 1-D potential path invertible outside a finite union K of closed
intervals, the boundary N = dK is a finite set of points carrying outward
signs gamma = -1 at left interval endpoints and +1 at right ones.  The
pairing of the boundary restriction with a fixed invertible reference
operator T,

    rhs = sum over y in N of gamma(y) * rel-ind(P_+(S(y)), P_+(T)),

must equal the index of the assembled 1-D operator, independently of the
choice of T (the signed sum telescopes).  Fibered inputs (one independent
path per point of a finite fiber set Y) produce one integer per fiber.

Truncation towers give the finite-dimensional meaning of the
relatively-compact-perturbation hypothesis.  A tower is an
`opcore.TruncationTower`: a reference template T and one perturbation
template R_i per fiber, whose nesting `opcore.tower_instantiate` verifies
at every dimension n.  `tower_family` turns it into the fibered family
T_n + smoothstep((t + 1)/2) R_i,n, and `tower_callias` pairs that family
against T_n: the difference-of-projection tails must decay along the
tower and the integers must stabilize.
"""

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import (
    HypothesisUnmet,
    InvalidInput,
    NotInvertible,
    TheoremViolation,
    TowerTooShallow,
)
from .opcore import (
    DEFAULT_TOL,
    Tolerances,
    TruncationTower,
    alternating_diag_template,
    as_matrix,
    decaying_rank_template,
    positive_projection,
    spectral_gap,
    spectral_norm,
    tail_projector,
    tower_instantiate,
)
from .relindex import rel_index
from .specflow import PotentialPath, endpoint_identity
from .surgery import smoothstep
from . import dirac1d

__all__ = [
    "Hypersurface",
    "hypersurface_of",
    "FiberedFamily",
    "CalliasReport",
    "rhs_pairing",
    "callias_check",
    "ran_projection_pairing",
    "four_way_identity",
    "FourWayReport",
    "tower_scenario",
    "tower_family",
    "tower_callias",
    "TowerCalliasReport",
]


@dataclass(frozen=True)
class Hypersurface:
    """Boundary points of the support set with their outward signs."""

    points: Tuple[float, ...]
    gamma: Tuple[int, ...]

    def __post_init__(self):
        if len(self.points) != len(self.gamma):
            raise InvalidInput("points and gamma must have equal length")
        if any(g not in (-1, 1) for g in self.gamma):
            raise InvalidInput("gamma entries must be -1 or +1")


def hypersurface_of(path: PotentialPath) -> Hypersurface:
    """Boundary of the declared support set, signed by the outward normal:
    -1 at left endpoints of the intervals of K, +1 at right endpoints.
    Invertibility at the points is checked where their projections are
    taken."""
    points, gamma = [], []
    for (a, b) in path.support:
        points.extend((a, b))
        gamma.extend((-1, +1))
    return Hypersurface(points=tuple(points), gamma=tuple(gamma))


@dataclass(frozen=True)
class FiberedFamily:
    """Finitely many independent potential paths, one per fiber label.

    Indices over such a family are integer vectors, one entry per fiber;
    every check factors through the fibers."""

    labels: tuple
    paths: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.paths) or len(self.paths) == 0:
            raise InvalidInput("need one path per fiber label")

    @property
    def size(self) -> int:
        return len(self.paths)


def _resolve_reference(reference, k: int) -> np.ndarray:
    """Accept a scalar (multiple of the identity) or a matrix as the
    reference operator."""
    if np.isscalar(reference):
        mat = complex(reference) * np.eye(k, dtype=np.complex128)
    else:
        mat = as_matrix(reference)
    if mat.shape != (k, k):
        raise InvalidInput(f"reference has shape {mat.shape}, expected ({k}, {k})")
    return (mat + mat.conj().T) / 2.0


def _boundary(path: PotentialPath, tol: Tolerances, surface=None):
    """(surface, projections): ``surface`` (by default the boundary of the
    support set) and P_+(S(y)) at each of its points y, each taken once."""
    if surface is None:
        surface = hypersurface_of(path)
    projections = []
    for y in surface.points:
        try:
            projections.append(
                positive_projection(path.sample(y), tol.proj_gap_tol, tol))
        except NotInvertible as exc:
            raise NotInvertible(
                f"potential not invertible at boundary point {y:g}") from exc
    return surface, tuple(projections)


def _pairing_terms(path: PotentialPath, surface: Hypersurface, projections,
                   reference, tol: Tolerances) -> tuple:
    """gamma(y) * rel-ind(P_+(S(y)), P_+(T)) for each boundary point y."""
    if not projections:
        return ()
    try:
        p_ref = positive_projection(_resolve_reference(reference, path.k),
                                    tol.proj_gap_tol, tol)
    except NotInvertible as exc:
        raise NotInvertible("reference operator is not invertible") from exc
    return tuple(g * rel_index(p_y, p_ref, tol)
                 for p_y, g in zip(projections, surface.gamma))


def rhs_pairing(path_or_family, surface=None, reference=-1.0,
                tol: Tolerances = DEFAULT_TOL):
    """Signed sum of per-point relative indices against a reference.

    For a plain path returns an integer; for a FiberedFamily a tuple with
    one integer per fiber (each fiber uses its own boundary points).
    ``surface`` defaults to the boundary of the declared support set.
    """
    if isinstance(path_or_family, FiberedFamily):
        return tuple(rhs_pairing(p, surface, reference, tol)
                     for p in path_or_family.paths)
    path = path_or_family
    surface, projections = _boundary(path, tol, surface)
    return sum(_pairing_terms(path, surface, projections, reference, tol))


def _scalar_lhs(path: PotentialPath, lam, grid, tol, method):
    """Index of the assembled operator, cross-checked against the endpoint
    identity of the spectral-flow module when method == "both"."""
    if method not in ("pde", "sf", "both"):
        raise InvalidInput(f"unknown lhs method {method!r}")
    sf_value = None
    if method in ("sf", "both"):
        ident = endpoint_identity(path, tol=tol)
        if not ident.passed:
            raise TheoremViolation(
                f"spectral-flow routes disagree on {path.name}: {ident}")
        sf_value = ident.endpoint_rel_index
    if method == "sf":
        return sf_value
    rep = dirac1d.path_index_report(path, grid, lam, tol, refine_check=False)
    if sf_value is not None and sf_value != rep.index:
        raise TheoremViolation(
            f"assembled index {rep.index} != spectral flow {sf_value} "
            f"on {path.name}")
    return rep.index


@dataclass(frozen=True)
class CalliasReport:
    lhs: Union[int, tuple]
    rhs: Union[int, tuple]
    rhs_alt: Union[int, tuple]      # with the second, independent reference
    per_point: tuple                # per boundary point (or per fiber: tuple of tuples)
    passed: bool


def callias_check(path_or_family, lam: float = 1.0, reference=-1.0,
                  reference_alt=None, grid=None, lhs_method: str = "both",
                  tol: Tolerances = DEFAULT_TOL) -> CalliasReport:
    """Assert index == hypersurface pairing, including reference independence.

    The left-hand side is the index of the APS assembly, cross-checked by
    default against the two spectral-flow computations; the right-hand
    side is evaluated with two distinct references and must not depend on
    the choice.  Any mismatch raises TheoremViolation.
    """
    fibered = isinstance(path_or_family, FiberedFamily)
    paths = path_or_family.paths if fibered else (path_or_family,)
    boundaries = [_boundary(p, tol) for p in paths]
    return _pairing_report(paths, boundaries, fibered, lam, reference,
                           reference_alt, grid, lhs_method, tol)


def _pairing_report(paths, boundaries, fibered, lam, reference, reference_alt,
                    grid, lhs_method, tol) -> CalliasReport:
    """The CalliasReport of ``paths`` from their boundary projections."""
    lhs, rhs, rhs2, per_point = [], [], [], []
    for p, (surface, projections) in zip(paths, boundaries):
        lhs.append(_scalar_lhs(p, lam, grid, tol, lhs_method))
        alt = reference_alt if reference_alt is not None \
            else -_resolve_reference(reference, p.k)
        terms = _pairing_terms(p, surface, projections, reference, tol)
        per_point.append(terms)
        rhs.append(sum(terms))
        rhs2.append(sum(_pairing_terms(p, surface, projections, alt, tol)))
    pick = tuple if fibered else (lambda values: values[0])
    lhs, rhs, rhs2 = pick(lhs), pick(rhs), pick(rhs2)
    report = CalliasReport(lhs=lhs, rhs=rhs, rhs_alt=rhs2,
                           per_point=pick(per_point), passed=lhs == rhs == rhs2)
    if not report.passed:
        exc = TheoremViolation(
            f"hypersurface pairing mismatch: lhs={report.lhs} rhs={report.rhs} "
            f"rhs_alt={report.rhs_alt}")
        exc.report = report
        raise exc
    return report


def ran_projection_pairing(path_or_family, surface=None,
                           tol: Tolerances = DEFAULT_TOL):
    """Signed sum of positive-subspace ranks at the boundary points.

    This is the unital/finitely-generated specialization: with the
    reference -1 the relative index against P_+(-1) = 0 is just the rank,
    so the value must agree with rhs_pairing(..., reference=-1); the
    equality is asserted.
    """
    if isinstance(path_or_family, FiberedFamily):
        return tuple(ran_projection_pairing(p, None, tol)
                     for p in path_or_family.paths)
    path = path_or_family
    surface, projections = _boundary(path, tol, surface)
    total = sum(g * p_y.rank() for p_y, g in zip(projections, surface.gamma))
    against_minus_one = sum(_pairing_terms(path, surface, projections, -1.0, tol))
    if total != against_minus_one:
        raise TheoremViolation(
            f"rank pairing {total} != relative-index pairing {against_minus_one}")
    return total


@dataclass(frozen=True)
class FourWayReport:
    sf_by_crossings: int
    sf_by_partition: int
    endpoint_rel_index: int
    pairing: int
    passed: bool


def four_way_identity(path: PotentialPath, reference=-1.0,
                      crossing_tol: float = 1e-8,
                      tol: Tolerances = DEFAULT_TOL) -> FourWayReport:
    """The interval special case: spectral flow (both routes), endpoint
    relative index, and the hypersurface pairing over N = dK must produce
    one and the same integer."""
    ident = endpoint_identity(path, crossing_tol, tol)
    pairing = rhs_pairing(path, None, reference, tol)
    passed = ident.passed and ident.endpoint_rel_index == pairing
    return FourWayReport(sf_by_crossings=ident.sf_by_crossings,
                         sf_by_partition=ident.sf_by_partition,
                         endpoint_rel_index=ident.endpoint_rel_index,
                         pairing=pairing, passed=passed)


# ---------------------------------------------------------------------------
# Truncation-tower version.

# `tower_callias`'s precondition: resolvent tails beyond the first 12
# coordinates stay below 1e-6 at every boundary point.
_TAIL_CUTOFF = 12
_TAIL_BOUND = 1e-6


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


def tower_family(tower: TruncationTower, n: int) -> FiberedFamily:
    """The fibered family at tower dimension n: fiber i is the path
    T_n + smoothstep((t + 1)/2) R_i,n on [-2.5, 2.5], which ramps the i-th
    perturbation onto the reference across the support set [-1, 1]."""
    return _ramp_family(n, *tower_instantiate(tower, n))


def _ramp_family(n: int, t_n, perturbations) -> FiberedFamily:
    paths = tuple(
        PotentialPath(n, np.linspace(-2.5, 2.5, 41),
                      lambda t, r_n=r_n: t_n + smoothstep((t + 1.0) / 2.0) * r_n,
                      support=((-1.0, 1.0),), name=f"tower-fiber-{i}(dim={n})")
        for i, r_n in enumerate(perturbations))
    return FiberedFamily(labels=tuple(range(len(paths))), paths=paths)


@dataclass(frozen=True)
class TowerCalliasReport:
    dims: tuple
    integers: tuple          # per dim: tuple of per-fiber integers
    tail_norms: tuple        # per dim: max over fibers/points of the projection tail
    precondition_norms: tuple
    stabilized: bool
    tails_decay: bool
    passed: bool


def tower_callias(tower: TruncationTower,
                  base_grid: Optional[dirac1d.GridSpec] = None,
                  tol: Tolerances = DEFAULT_TOL) -> TowerCalliasReport:
    """Hypersurface pairing along a truncation tower.

    At every tower dimension n the fibers are `tower_family(tower, n)`'s,
    the reference is T_n, the tower's operator, and the coupling is 1.
    Every level is instantiated, and so checked for nesting, before the
    first is paired.

    Preconditions: at every boundary point y, the perturbation against the
    reference must have a small resolvent tail beyond the first 12
    coordinates (||(S(y) - T_n)(T_n +- i)^(-1) Pi_tail|| <= 1e-6).  The
    full assembled-operator check runs at the base dimension; larger
    dimensions use the (already cross-validated) spectral-flow route for
    the left-hand side; ``base_grid`` is that check's grid (None:
    ``GridSpec.auto``).  The per-fiber integers must agree at the top two
    dimensions and the difference-of-projection tail norms must decay
    monotonically (within factor 2) along the tower.
    """
    dims = tower.dims
    if len(dims) < 2:
        raise InvalidInput("need at least two tower dims")
    if _TAIL_CUTOFF >= dims[0]:
        raise InvalidInput(f"the smallest tower dim must exceed {_TAIL_CUTOFF}")
    # every level first, so that a nesting violation stops the check before
    # any spectral work
    levels = [(n,) + tower_instantiate(tower, n) for n in dims]
    integers, tails, pre_norms = [], [], []
    for pos, (n, t_n, perturbations) in enumerate(levels):
        family = _ramp_family(n, t_n, perturbations)
        eye = np.eye(n, dtype=np.complex128)
        pi_fixed = tail_projector(n, _TAIL_CUTOFF)
        pi_scaled = tail_projector(n, n // 2)
        # (T_n +- i)^(-1) Pi_tail depends on n and the sign only
        resolvents = [np.linalg.solve((t_n + sign * eye).conj().T, pi_fixed).conj().T
                      for sign in (1j, -1j)]
        worst_pre, worst_tail = 0.0, 0.0
        p_ref = positive_projection(t_n, tol.proj_gap_tol, tol)
        boundaries = []
        for p in family.paths:
            surface, projections = _boundary(p, tol)
            boundaries.append((surface, projections))
            for y, p_y in zip(surface.points, projections):
                diff = p.sample(y) - t_n
                for resolvent in resolvents:
                    worst_pre = max(worst_pre, spectral_norm(diff @ resolvent))
                worst_tail = max(worst_tail, spectral_norm(
                    (p_y.entries - p_ref.entries) @ pi_scaled))
        if worst_pre > _TAIL_BOUND:
            raise HypothesisUnmet(
                f"tail precondition fails at dim {n}: resolvent tail "
                f"{worst_pre:.3e} > {_TAIL_BOUND:.1e}")
        method = "both" if pos == 0 else "sf"
        rep = _pairing_report(family.paths, boundaries, True, 1.0, t_n, None,
                              base_grid if pos == 0 else None, method, tol)
        integers.append(rep.lhs)
        tails.append(worst_tail)
        pre_norms.append(worst_pre)
    stabilized = integers[-1] == integers[-2]
    tails_decay = all(b <= 2.0 * a + 1e-12 for a, b in zip(tails, tails[1:]))
    if not stabilized:
        raise TowerTooShallow(
            f"integers did not stabilize: {integers[-2]} vs {integers[-1]} "
            f"at dims {dims[-2:]}" )
    return TowerCalliasReport(dims=dims, integers=tuple(integers),
                              tail_norms=tuple(tails),
                              precondition_norms=tuple(pre_norms),
                              stabilized=stabilized, tails_decay=tails_decay,
                              passed=stabilized and tails_decay)
