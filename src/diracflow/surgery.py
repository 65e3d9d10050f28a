"""Cut-and-paste and potential surgery for 1-D problems.

`cut_paste` swaps the flanks of two potentials that agree on a collar
around the cut point, producing the two recombined problems whose index
sum must equal the original sum.  `cylindrical_end` flattens a potential
to constant (product-form) values outside a bounded window, and
`collar_flatten` replaces it by a fixed invertible reference deep inside
the support set, interpolating over collars at the boundary points; both
must preserve the index exactly, which the returned reports assert.

Smooth profiles are quintic smoothsteps (C^2 at the joints); their
steepness feeds the derivative-resolvent bounds, so ramp widths are
explicit parameters.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import CollarMismatch, InvalidInput, RampCrossing, TheoremViolation
from .opcore import DEFAULT_TOL, Tolerances, as_matrix, spectral_gap
from .specflow import PotentialPath, _normalize_support
from . import dirac1d

__all__ = [
    "smoothstep",
    "SurgeryProfile",
    "cut_paste",
    "verify_additivity",
    "AdditivityIndexReport",
    "cylindrical_end",
    "collar_flatten",
    "SurgeryReport",
]


def smoothstep(u: float) -> float:
    """Quintic smoothstep: 0 for u <= 0, 1 for u >= 1, C^2 at the joints."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


@dataclass(frozen=True)
class SurgeryProfile:
    """Profiles used by the potential surgeries.

    ``rho(r)`` is 1 on r <= -ramp and 0 on r >= 0 (collar coordinate r
    oriented outward); ``chi(r)`` is 1 at r <= 0 and 0 beyond the ramp.
    """

    ramp: float

    def __post_init__(self):
        if not self.ramp > 0:
            raise InvalidInput("ramp width must be positive")

    def rho(self, r: float) -> float:
        return 1.0 - smoothstep(r / self.ramp + 1.0)

    def chi(self, r: float) -> float:
        return 1.0 - smoothstep(r / self.ramp)


def _check_collar(m1: PotentialPath, m2: PotentialPath, t_cut, halfwidth,
                  n_check=17):
    ts = np.linspace(t_cut - halfwidth, t_cut + halfwidth, n_check)
    dev = max(float(np.linalg.norm(m1.sample(t) - m2.sample(t), 2)) for t in ts)
    if dev > 1e-12:
        raise CollarMismatch(
            f"potentials deviate by {dev:.3e} on the collar "
            f"[{t_cut - halfwidth:g}, {t_cut + halfwidth:g}]",
            max_deviation=dev)
    return dev


def _splice(left: PotentialPath, right: PotentialPath, t_cut,
            name) -> PotentialPath:
    if left.k != right.k:
        raise InvalidInput("fiber dims differ")

    def sampler(t):
        return left.sample(t) if t < t_cut else right.sample(t)

    grid = np.unique(np.concatenate([
        left.grid[left.grid < t_cut], [t_cut], right.grid[right.grid > t_cut]]))
    support = tuple(iv for iv in left.support if iv[0] < t_cut) \
        + tuple(iv for iv in right.support if iv[1] > t_cut)
    try:
        support = _normalize_support(support)
    except InvalidInput:
        support = ((min(s[0] for s in support), max(s[1] for s in support)),)
    return PotentialPath(left.k, grid, sampler, support=support, name=name)


def cut_paste(m1: PotentialPath, m2: PotentialPath, t_cut: float,
              collar_halfwidth: Optional[float] = None,
              tol: Tolerances = DEFAULT_TOL):
    """Swap the flanks of two potentials along a shared collar at t_cut.

    Returns (m3, m4) with m3 = left(m1) || right(m2) and
    m4 = left(m2) || right(m1).  The two inputs must agree to 1e-12 on the
    collar (CollarMismatch otherwise) and all four endpoint regions must
    be invertible.
    """
    if collar_halfwidth is None:
        steps = np.diff(m1.grid)
        collar_halfwidth = 2.0 * float(steps.min())
    _check_collar(m1, m2, t_cut, collar_halfwidth)
    for p, label in ((m1, "m1"), (m2, "m2")):
        for s, side in ((p.start(), "start"), (p.end(), "end")):
            if spectral_gap(s) < tol.proj_gap_tol:
                raise InvalidInput(f"{label} {side} region is not invertible")
    m3 = _splice(m1, m2, t_cut, name=f"cutpaste({m1.name},{m2.name})")
    m4 = _splice(m2, m1, t_cut, name=f"cutpaste({m2.name},{m1.name})")
    return m3, m4


@dataclass(frozen=True)
class AdditivityIndexReport:
    ind_1: int
    ind_2: int
    ind_3: int
    ind_4: int
    sf_agrees: bool     # every index cross-checked against spectral flow
    passed: bool


def verify_additivity(m1: PotentialPath, m2: PotentialPath, t_cut: float,
                      lam: float = 1.0, collar_halfwidth: Optional[float] = None,
                      grid: Optional[dirac1d.GridSpec] = None,
                      tol: Tolerances = DEFAULT_TOL) -> AdditivityIndexReport:
    """ind(m1) + ind(m2) = ind(m3) + ind(m4), exact integers.

    Indices come from the APS assembly; each is cross-checked against the
    endpoint identity of the spectral-flow module.
    """
    from .specflow import endpoint_identity

    m3, m4 = cut_paste(m1, m2, t_cut, collar_halfwidth, tol)
    indices = []
    sf_ok = True
    for p in (m1, m2, m3, m4):
        rep = dirac1d.path_index_report(p, grid, lam, tol, refine_check=False)
        ident = endpoint_identity(p, tol=tol)
        sf_ok = sf_ok and ident.passed and ident.endpoint_rel_index == rep.index
        indices.append(rep.index)
    i1, i2, i3, i4 = indices
    return AdditivityIndexReport(ind_1=i1, ind_2=i2, ind_3=i3, ind_4=i4,
                                 sf_agrees=sf_ok,
                                 passed=(i1 + i2 == i3 + i4) and sf_ok)


@dataclass(frozen=True)
class SurgeryReport:
    index_before: int
    index_after: int
    min_ramp_gap: float
    passed: bool


def _ramp_gap_check(path, lo, hi, tol, n_check=33):
    worst = float("inf")
    for t in np.linspace(lo, hi, n_check):
        g = spectral_gap(path.sample(t))
        worst = min(worst, g)
        if g < tol.proj_gap_tol:
            raise RampCrossing(
                f"interpolated potential loses invertibility at t={t:g} "
                f"(gap {g:.3e}); shrink the ramp")
    return worst


def cylindrical_end(path: PotentialPath, window: Tuple[float, float],
                    ramp: float = 1.0, lam: float = 1.0,
                    grid: Optional[dirac1d.GridSpec] = None,
                    tol: Tolerances = DEFAULT_TOL):
    """Flatten a potential to product form outside a window containing K.

    Outside ``window`` the new potential interpolates, over ``ramp``,
    between the original values and the constant boundary values
    chi(r)*S(t) + (1 - chi(r))*S(boundary), and stays exactly constant
    beyond the ramp.  Invertibility on both ramps is verified sample-wise
    (RampCrossing otherwise), and the returned report asserts that the
    index is unchanged.
    """
    u_lo, u_hi = float(window[0]), float(window[1])
    hull = path.hull()
    if hull is not None and not (u_lo <= hull[0] and hull[1] <= u_hi):
        raise InvalidInput("window must contain the support set")
    profile = SurgeryProfile(ramp)
    s_lo = path.sample(u_lo)
    s_hi = path.sample(u_hi)

    def sampler(t):
        if u_lo <= t <= u_hi:
            return path.sample(t)
        if t > u_hi:
            c = profile.chi(t - u_hi)
            return c * path.sample(t) + (1.0 - c) * s_hi
        c = profile.chi(u_lo - t)
        return c * path.sample(t) + (1.0 - c) * s_lo

    grid_pts = np.unique(np.concatenate([
        path.grid, [u_lo - ramp, u_lo, u_hi, u_hi + ramp]]))
    out = PotentialPath(path.k, grid_pts, sampler, support=path.support,
                        name=f"cyl({path.name})")
    gap_r = _ramp_gap_check(out, u_hi, u_hi + ramp, tol)
    gap_l = _ramp_gap_check(out, u_lo - ramp, u_lo, tol)
    before = dirac1d.path_index_report(path, grid, lam, tol, refine_check=False).index
    after = dirac1d.path_index_report(out, grid, lam, tol, refine_check=False).index
    report = SurgeryReport(index_before=before, index_after=after,
                           min_ramp_gap=min(gap_l, gap_r),
                           passed=before == after)
    if not report.passed:
        raise TheoremViolation(
            f"cylindrical end changed the index: {before} -> {after}")
    return out, report


def collar_flatten(path: PotentialPath, reference, collar_width: float = None,
                   lam: float = 1.0, grid: Optional[dirac1d.GridSpec] = None,
                   tol: Tolerances = DEFAULT_TOL):
    """Replace the potential by a fixed invertible reference deep inside K.

    With K-hull [a, b] and outward collar coordinates r = a - t (left) and
    r = t - b (right), the new potential is the reference T on the middle
    of K, rho(r)*T + (1 - rho(r))*S(boundary) on the two collars, and the
    original path outside K.  Ramp invertibility is verified sample-wise;
    the report asserts the exact index equality.

    The collar interpolations live inside K, where invertibility is never
    hypothesized (they are precisely what carries the flow when the
    reference has a different signature than the boundary values), so no
    ramp invertibility is demanded here; the report records the smallest
    gap seen on the collars for diagnostics only.  On a single finite
    fiber the relative-compactness hypothesis on S(x) - T is vacuous; it
    becomes meaningful on towers and fibered inputs, where the callias
    module enforces tail bounds.
    """
    hull = path.hull()
    if hull is None:
        raise InvalidInput("path has empty support; nothing to flatten")
    a, b = hull
    t_ref = as_matrix(reference)
    if spectral_gap(t_ref) < tol.proj_gap_tol:
        raise InvalidInput("reference operator must be invertible")
    if collar_width is None:
        collar_width = 0.25 * (b - a)
    if not (0 < 2.0 * collar_width <= (b - a)):
        raise InvalidInput("collar width must fit inside the support hull")
    profile = SurgeryProfile(collar_width)
    s_a = path.sample(a)
    s_b = path.sample(b)

    def sampler(t):
        if t < a or t > b:
            return path.sample(t)
        if t < a + collar_width:
            r = a - t  # outward at the left boundary point
            rho = profile.rho(r)
            return rho * t_ref + (1.0 - rho) * s_a
        if t > b - collar_width:
            r = t - b
            rho = profile.rho(r)
            return rho * t_ref + (1.0 - rho) * s_b
        return t_ref

    grid_pts = np.unique(np.concatenate([
        path.grid, [a, a + collar_width, b - collar_width, b]]))
    out = PotentialPath(path.k, grid_pts, sampler, support=path.support,
                        name=f"flattened({path.name})")
    collar_gaps = [spectral_gap(out.sample(t)) for t in
                   np.concatenate([np.linspace(a, a + collar_width, 17),
                                   np.linspace(b - collar_width, b, 17)])]
    before = dirac1d.path_index_report(path, grid, lam, tol, refine_check=False).index
    after = dirac1d.path_index_report(out, grid, lam, tol, refine_check=False).index
    report = SurgeryReport(index_before=before, index_after=after,
                           min_ramp_gap=min(collar_gaps),
                           passed=before == after)
    if not report.passed:
        raise TheoremViolation(
            f"collar flattening changed the index: {before} -> {after}")
    return out, report
