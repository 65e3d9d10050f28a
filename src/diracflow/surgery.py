"""Cut-and-paste for 1-D problems.

`cut_paste` swaps the flanks of two potentials that agree on a collar
around the cut point, producing the two recombined problems whose index
sum must equal the original sum; `verify_additivity` checks that sum on
exact integers.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .callias import index_identity
from .errors import CollarMismatch, InvalidInput
from .opcore import spectral_norm
from .specflow import PotentialPath, _glued, _merged_support
from . import dirac1d

__all__ = [
    "cut_paste",
    "verify_additivity",
    "AdditivityIndexReport",
]


def _check_collar(m1: PotentialPath, m2: PotentialPath, t_cut, halfwidth):
    ts = np.linspace(t_cut - halfwidth, t_cut + halfwidth, 17)
    dev = float(spectral_norm(m1.samples(ts) - m2.samples(ts)).max())
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

    # strictly increasing: both grids are, and t_cut lies between the halves
    grid = np.concatenate([
        left.grid[left.grid < t_cut], [t_cut], right.grid[right.grid > t_cut]])
    support = _merged_support(tuple(iv for iv in left.support if iv[0] < t_cut)
                              + tuple(iv for iv in right.support if iv[1] > t_cut))
    return PotentialPath(left.k, grid, lambda ts: _glued(ts < t_cut, left, ts, right, ts),
                         support=support, name=name)


def cut_paste(m1: PotentialPath, m2: PotentialPath, t_cut: float):
    """Swap the flanks of two potentials along a shared collar at t_cut.

    Returns (m3, m4) with m3 = left(m1) || right(m2) and
    m4 = left(m2) || right(m1).  The two inputs must agree to 1e-12 on the
    collar, of half-width twice m1's smallest grid step (CollarMismatch
    otherwise).  The endpoints' invertibility is checked where the indices
    are taken.
    """
    _check_collar(m1, m2, t_cut, 2.0 * float(np.diff(m1.grid).min()))
    m3 = _splice(m1, m2, t_cut, name=f"cutpaste({m1.name},{m2.name})")
    m4 = _splice(m2, m1, t_cut, name=f"cutpaste({m2.name},{m1.name})")
    return m3, m4


@dataclass(frozen=True)
class AdditivityIndexReport:
    ind_1: int
    ind_2: int
    ind_3: int
    ind_4: int
    passed: bool


def verify_additivity(m1: PotentialPath, m2: PotentialPath, t_cut: float,
                      grid: Optional[dirac1d.GridSpec] = None) -> AdditivityIndexReport:
    """ind(m1) + ind(m2) = ind(m3) + ind(m4), exact integers.

    Each index is `callias.index_identity`'s at coupling 1: the index of
    the APS assembly, which must equal the path's spectral flow
    (TheoremViolation otherwise; NotInvertible names a singular endpoint).
    """
    m3, m4 = cut_paste(m1, m2, t_cut)
    i1, i2, i3, i4 = (index_identity(p, 1.0, grid) for p in (m1, m2, m3, m4))
    return AdditivityIndexReport(ind_1=i1, ind_2=i2, ind_3=i3, ind_4=i4,
                                 passed=i1 + i2 == i3 + i4)
