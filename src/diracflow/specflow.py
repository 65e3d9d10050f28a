"""Spectral flow of paths of Hermitian matrices, computed two independent ways.

The first route (`sf_crossings`) tracks eigenvalue branches across the
sample grid (`_tracked_branches`), by eigenvector overlap only where a
branch can reach zero.  By Weyl's inequality the j-th ascending eigenvalue
moves by at most steps[i] = ||S(t_{i+1}) - S(t_i)|| across grid step i, so
an index with |lambda_j| > steps[i] + _CROSSING_TOL at both ends of the
step keeps its sign across it and continues by sorted position.  The hull
of the other indices is the step's window: it is matched by overlap, and
the step is split while that matching is ambiguous or a branch changes
sign across it, so that every sign change ends on a sample with |lambda|
<= _CROSSING_TOL; the route sums the signs of those changes, and
`branch_curves` gives these branches for the gnuplot table.  The second
route (`sf_partition`) exercises Phillips' partition definition (Phillips,
"Self-adjoint Fredholm operators and spectral flow", Canad. Math. Bull.
39, 1996): it subdivides the parameter interval, picks per subinterval an
invertible gap level realized by a scalar trivialising shift B = -a*1, and
sums the junction terms ind(S(t_i), -a0*1, -a1*1) =
rel-ind(P_+(S(t_i) - a1), P_+(S(t_i) - a0)).  With scalar shifts both
projections come from one eigenbasis, so each term is the count
#{eigenvalues of S(t_i) above a1} - #{above a0}, read from the spectrum.
Both routes must agree with each other and with the endpoint relative
index rel-ind(P_+(S(end)), P_+(S(start))), which compares two different
operators and so is taken from their projections; `endpoint_identity`
asserts the triple equality.

A path's sampler is a stacked rule: it maps a 1-D array of m parameters
to the (m, k, k) stack of their matrices, so every consumer that reads a
set of parameters (the grid pass, the APS midpoints, the Dirichlet nodes)
makes one rule call for all of them.  The builders below evaluate their
formulas on the whole array with the same floating-point operations as
one parameter at a time.

Both routes read one certified eigendecomposition of the grid samples
(`PotentialPath._grid_pass`, which says why the path keeps only its
spectra and step bounds, and how a sample that repeats the one before it
reuses its results), and `endpoint_identity` takes it once for all three
integers.  They share that sampled LAPACK output but no logic: the
first matches eigenvectors in the Weyl windows and follows branches,
refining the grid where they are ambiguous or change sign; the second
picks Weyl-safe gap levels from the spectra and step bounds and counts
eigenvalues above them at the junctions.

Inside a window, branch tracking deliberately matches by eigenvector
overlap instead of sorted order: sorted order silently swaps branches at
avoided crossings, and would put a crossing on the wrong branch.  Outside
the windows no branch changes sign, and a swap only relabels branches.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegeneratePath,
    InvalidInput,
    NotInvertible,
    RefineGrid,
    TheoremViolation,
)
from . import opcore
from .opcore import (
    _certify,
    _decompose,
    _projection_above,
    as_matrix,
)
from .relindex import rel_index

__all__ = [
    "PotentialPath",
    "CrossingReport",
    "Crossing",
    "branch_curves",
    "sf_crossings",
    "sf_partition",
    "endpoint_identity",
    "EndpointIdentityReport",
    "constant_path",
    "linear_scalar_path",
    "tanh_path",
    "diagonal_path",
    "path_from_samples",
    "random_smooth_path",
    "concat_paths",
    "reversed_path",
    "conjugated_path",
    "perturbed_path",
]


def _normalize_support(support) -> tuple:
    if support is None:
        return ()
    if len(support) == 2 and np.isscalar(support[0]):
        support = (tuple(support),)
    ivs = sorted((float(a), float(b)) for a, b in support)
    for (a, b) in ivs:
        if not a <= b:
            raise InvalidInput(f"support interval ({a}, {b}) is reversed")
    for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
        if a2 <= b1:
            raise InvalidInput("support intervals must be disjoint")
    return tuple(ivs)


def _merged_support(support) -> tuple:
    """The support intervals of two joined paths: normalized when they stay
    disjoint, else their hull."""
    try:
        return _normalize_support(support)
    except InvalidInput:
        return ((min(s[0] for s in support), max(s[1] for s in support)),)


# Bytes of grid samples per batched eigh in `PotentialPath._grid_pass`.
_CHUNK_BYTES = 64 * 1024


class PotentialPath:
    """A family t -> S(t) of Hermitian matrices over a 1-D parameter grid.

    Parameters
    ----------
    k : fiber dimension, at least 1.
    grid : strictly increasing finite parameter samples t_0 < ... < t_n.
    sampler : stacked rule ts -> S(ts): given a float array ts of shape
        (m,), m >= 1, it returns the (m, k, k) complex stack whose matrix i
        is S(ts[i]).  `samples` clamps ts into [t_0, t_n] before the call,
        so outside the grid the path extends constantly by its endpoint
        values, and checks the stack's shape and finiteness and hermitises
        it once per call.
    support : the declared compact set K where invertibility may fail,
        as a finite union of disjoint closed intervals (or one (a, b)
        pair).  Empty means globally invertible.  The declaration is
        checked where it is used: `dirac1d.assemble` requires a spectral
        gap of at least ``opcore._PROJ_GAP_TOL`` at every grid sample
        outside K.
    """

    def __init__(self, k, grid, sampler, support=(), name=""):
        self.k = int(k)
        if self.k < 1:
            raise InvalidInput(f"fiber dimension must be at least 1, got {self.k}")
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise InvalidInput("grid must contain at least two samples")
        if not np.isfinite(self.grid).all():
            bad = self.grid[~np.isfinite(self.grid)][0]
            raise InvalidInput(f"grid must be finite, got t={bad:g}")
        if not np.all(np.diff(self.grid) > 0):
            raise InvalidInput("grid must be strictly increasing")
        self.sampler = sampler
        self.support = _normalize_support(support)
        self.name = name
        self._spectra = None

    # -- evaluation ---------------------------------------------------------

    def samples(self, ts) -> np.ndarray:
        """The (m, k, k) stack of the hermitised S(t) at the parameters of
        the 1-D array ``ts``, each clamped into the grid span: one sampler
        call (none for an empty ``ts``).  InvalidInput names a stack of the
        wrong shape, or the first t whose sample has non-finite entries."""
        ts = np.clip(np.asarray(ts, dtype=float), self.grid[0], self.grid[-1])
        if ts.ndim != 1:
            raise InvalidInput(f"sample parameters must be 1-D, got shape {ts.shape}")
        if not ts.size:
            return np.empty((0, self.k, self.k), dtype=np.complex128)
        s = np.asarray(self.sampler(ts), dtype=np.complex128)
        if s.shape != (ts.size, self.k, self.k):
            raise InvalidInput(f"sampler returned shape {s.shape}, "
                               f"expected ({ts.size}, {self.k}, {self.k})")
        finite = np.isfinite(s).all(axis=(1, 2))
        if not finite.all():
            raise InvalidInput(f"path sample at t={ts[np.argmin(finite)]:g} "
                               f"has non-finite entries")
        return (s + s.conj().swapaxes(1, 2)) / 2.0

    def sample(self, t: float) -> np.ndarray:
        """S(t) alone: the one matrix of ``samples([t])``."""
        return self.samples([t])[0]

    def start(self) -> np.ndarray:
        return self.sample(self.grid[0])

    def end(self) -> np.ndarray:
        return self.sample(self.grid[-1])

    def span(self) -> Tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def hull(self) -> Optional[Tuple[float, float]]:
        """Convex hull [a, b] of the support set K (None when K is empty)."""
        if not self.support:
            return None
        return self.support[0][0], self.support[-1][1]

    def in_support(self, t):
        """Whether t lies in K: a bool for a number, a boolean mask of the
        same shape for an array."""
        t = np.asarray(t, dtype=float)
        mask = np.zeros(t.shape, dtype=bool)
        for a, b in self.support:
            mask |= (a <= t) & (t <= b)
        return mask[()]

    def least_gap_outside(self) -> Tuple[Optional[float], float]:
        """(t, gap): the grid sample outside K with the smallest spectral
        gap, and that gap; (None, inf) when every sample lies in K."""
        outside = ~self.in_support(self.grid)
        if not outside.any():
            return None, float("inf")
        gaps = np.abs(self._grid_spectra()[0][outside]).min(axis=1)
        worst = int(np.argmin(gaps))
        return float(self.grid[outside][worst]), float(gaps[worst])

    def _grid_spectra(self) -> Tuple[np.ndarray, np.ndarray]:
        """(spectra, steps) of the certified grid pass, taken on the first
        call only (grid and sampler are fixed)."""
        if self._spectra is None:
            self._grid_pass()
        return self._spectra

    def _at_sample(self, i: int) -> str:
        return f" at t={self.grid[i]:g}"

    def _grid_pass(self):
        """(spectra, vectors, steps): one certified eigendecomposition of
        every grid sample and the Weyl bounds between them.

        spectra[i] holds the ascending eigenvalues of S(t_i), vectors[i]
        its eigenvectors as columns, and steps[i] = ||S(t_{i+1}) - S(t_i)||,
        which bounds how far an eigenvalue moves between the two samples.
        The samples are taken once each, in chunks of at most _CHUNK_BYTES
        (or one sample, if larger) with one `samples` call (so one sampler
        call) and one batched eigh per chunk, which is bitwise equal to one
        call per sample.  A sample bitwise equal to the one before it
        (`opcore._repeats`, across chunk seams too) is not decomposed: it
        takes that sample's spectrum, vectors and certificate, and its step
        is 0.0.  A potential that is constant outside its support, as every
        tower fiber is, repeats most of its grid.  A non-finite sample
        raises InvalidInput naming its t.  Each sample's certificate
        (`opcore._decompose`: residual and unitarity) must stay within
        opcore._EIG_TOL (`opcore._certify`); otherwise InvalidInput names
        the worst sample, the first of its run when it repeats.

        Once certified, the path keeps (spectra, steps) for `_grid_spectra`;
        the vectors go back to the caller only.
        """
        n, k = self.grid.size, self.k
        spectra = np.empty((n, k))
        vectors = np.empty((n, k, k), dtype=np.complex128)
        # jumps[i] = ||S(t_i) - S(t_{i-1})||, so steps = jumps[1:]
        jumps = np.zeros(n)
        defects = np.empty((n, 2))
        per_chunk = max(1, _CHUNK_BYTES // vectors[0].nbytes)
        # buf[0] holds the previous chunk's last sample, for the step and the
        # repeat test across the seam
        buf = np.empty((per_chunk + 1, k, k), dtype=np.complex128)
        for i0 in range(0, n, per_chunk):
            i1 = min(i0 + per_chunk, n)
            s = buf[1:1 + i1 - i0]
            s[:] = self.samples(self.grid[i0:i1])
            new = ~opcore._repeats(s, buf[0] if i0 else None)
            if new.any():
                (spectra[i0:i1][new], vectors[i0:i1][new],
                 defects[i0:i1][new]) = _decompose(s[new])
            # a repeat copies the results of the last new sample before it
            last = np.maximum.accumulate(np.where(new, np.arange(i0, i1), i0 - 1))
            spectra[i0:i1], vectors[i0:i1], defects[i0:i1] = (
                spectra[last], vectors[last], defects[last])
            # hermitised samples differ by an exactly Hermitian matrix, whose
            # spectral norm is its largest |eigenvalue|; a repeat's is 0.0
            moved = new & (np.arange(i0, i1) > 0)
            if moved.any():
                jumps[i0:i1][moved] = np.abs(np.linalg.eigvalsh(
                    s[moved] - buf[:i1 - i0][moved])).max(axis=1)
            buf[0] = s[-1]
        _certify(defects, self._at_sample)
        steps = jumps[1:]
        self._spectra = (spectra, steps)
        return spectra, vectors, steps

    def __repr__(self):
        a, b = self.span()
        return (f"PotentialPath(k={self.k}, span=({a:g}, {b:g}), "
                f"samples={self.grid.size}, name={self.name!r})")


# ---------------------------------------------------------------------------
# Branch tracking by eigenvector overlap.

_AMBIGUITY_MARGIN = 0.1

# A branch value within this distance of zero counts as zero: every sign
# change of a branch is localised on a sample this close to it.
_CROSSING_TOL = 1e-8

# The regula-falsi split of a step lands in its [1/256, 255/256].  A branch
# that is near linear across the step has its zero estimated well even next
# to an end, and a split keeps at most 255/256 of its step.  On the
# crossing sweep of tests/crossing_sweep.py, clamps of 1/4, 1/64 and 1/256
# take 15,234, 8,342 and 6,878 refined samples, and no clamp 6,770.
_SPLIT_CLAMP = 1.0 / 256.0

# Most splits of one grid step.  A split keeps at most 255/256 of its step
# and (255/256)**10590 < 1e-18, so on steps up to 1e5 wide the 1e-13 width
# guard of `_refined_step` ends a refinement first.  A branch that jumps
# across zero can take the slowest shrink at every split, up to
# 256 * ln(width / 1e-13) splits before DegeneratePath: a scalar jump from
# -1e-6 to 1 just left of a grid point takes 5,468 splits of its 0.05-wide
# step (79 with the 1/4 clamp).
_MAX_DEPTH = 10590


def _match_columns(va: np.ndarray, vb: np.ndarray) -> Optional[List[int]]:
    """Row-argmax matching of eigenvector columns by overlap |va* vb|.

    Returns perm with perm[i] = column of ``vb`` continuing column i of
    ``va``: the column of row i's largest overlap.  Returns None when the
    matching is ambiguous: some row's largest overlap beats the rest of its
    row by less than _AMBIGUITY_MARGIN, or two rows pick the same column.
    Wherever it returns perm, greedy elimination by largest overlap
    returns the same perm.
    """
    o = np.abs(va.conj().T @ vb)
    rows = np.arange(o.shape[0])
    perm = o.argmax(axis=1)
    best = o[rows, perm]
    # overlaps are >= 0, so a one-column row is never ambiguous
    o[rows, perm] = -1.0
    perm = perm.tolist()
    if (best - o.max(axis=1)).min() < _AMBIGUITY_MARGIN or len(set(perm)) < len(perm):
        return None
    return perm


class _Sample:
    """Eigenpairs (w, v) of S(t), ``depth`` splits below a grid step."""
    __slots__ = ("t", "w", "v", "depth")

    def __init__(self, t, w, v, depth=0):
        self.t, self.w, self.v, self.depth = t, w, v, depth


def _changes_sign(xa, xb) -> np.ndarray:
    """Where a branch with the value xa at one sample and xb at the next
    changes sign, both values beyond _CROSSING_TOL."""
    return (xa * xb < 0) & (np.abs(xa) > _CROSSING_TOL) & (np.abs(xb) > _CROSSING_TOL)


def _step(a: _Sample, b: _Sample, lo: int, hi: int):
    """(b, perm, split): the step from a to b, its matching, and where to
    split it.  perm[c] is the column of b continuing column c of a: columns
    lo..hi-1 are matched by overlap (one column needs none), the others
    keep their place.  The split is the midpoint while the matching is
    ambiguous (perm None), else the regula-falsi zero, clamped to
    [_SPLIT_CLAMP, 1 - _SPLIT_CLAMP] of the step, of the first branch that
    changes sign across it with both values beyond _CROSSING_TOL; None when
    the step is final."""
    perm = np.arange(a.w.size)
    if hi - lo > 1:
        inside = _match_columns(a.v[:, lo:hi], b.v[:, lo:hi])
        if inside is None:
            return b, None, 0.5 * (a.t + b.t)
        perm[lo:hi] = np.add(inside, lo)
    xa, xb = a.w, b.w[perm]
    change = _changes_sign(xa, xb)
    split = None
    if change.any():
        i = int(change.argmax())
        u = min(max(xa[i] / (xa[i] - xb[i]), _SPLIT_CLAMP), 1.0 - _SPLIT_CLAMP)
        split = a.t + u * (b.t - a.t)
    return b, perm, split


def _refined_step(path: PotentialPath, a: _Sample, b: _Sample, lo: int, hi: int):
    """[(t, w, depth, perm), ...]: the samples after grid sample a up to
    grid sample b that the step between them is refined to, each with the
    matching of the step that ends on it.

    The grid step is matched on its window lo..hi-1 (`_step`) and split
    until every matching is decisive and every sign change of a branch
    passes through a sample within _CROSSING_TOL of zero.  A split step's
    matching is replaced by those through its split sample, so a step that
    pairs across an avoided crossing is tracked again.  The halves of a
    split are matched in all columns: no Weyl bound covers them.  A step
    still to be split at width < 1e-13 or _MAX_DEPTH splits raises
    RefineGrid if ambiguous, else DegeneratePath.
    """
    chain = []
    # the steps right of a, nearest last
    todo = [_step(a, b, lo, hi)]
    while todo:
        b, perm, split = todo.pop()
        if split is None:
            chain.append((b.t, b.w, b.depth, perm))
            a = b
            continue
        depth = max(a.depth, b.depth)
        if depth >= _MAX_DEPTH or b.t - a.t < 1e-13:
            what = ("branch matching stayed ambiguous" if perm is None else
                    f"a crossing stayed beyond |lambda| <= {_CROSSING_TOL:g}")
            raise (RefineGrid if perm is None else DegeneratePath)(
                f"{what} on [{a.t!r}, {b.t!r}] after {depth} refinements")
        # path samples are hermitised already, as in the grid pass
        w, v, defects = _decompose(path.sample(split))
        _certify(defects, lambda _: f" at t={split:g}")
        mid = _Sample(float(split), w, v, depth + 1)
        todo += [_step(mid, b, 0, w.size), _step(a, mid, 0, w.size)]
    return chain


def _tracked_branches(path: PotentialPath, spectra, vectors, steps):
    """(ts, depths, values) of the branches followed over the grid pass:
    values[b, j] is branch b's eigenvalue at the sample ts[j], which lies
    depths[j] splits below a grid step, and branch b starts as the b-th
    ascending eigenvalue.

    Work is done only where a branch can cross zero.  By Weyl's inequality
    the j-th ascending eigenvalue moves by at most steps[i] =
    ||S(t_{i+1}) - S(t_i)|| across grid step i, so an index j with
    |lambda_j| > steps[i] + _CROSSING_TOL at both t_i and t_{i+1} keeps its
    sign across the step, beyond _CROSSING_TOL.  The step's window is the
    hull of the other indices; every index outside it keeps its sign (those
    below a window are negative, those above it positive) and continues by
    sorted position.  A step with an empty window, or a one-column window
    without a sign change, continues every column by position and takes no
    overlap; any other step is matched on its window and refined
    (`_refined_step`).  The windows of the whole grid come from a few array
    operations on the grid pass's spectra and steps.
    """
    n, k = spectra.shape
    bound = (steps + _CROSSING_TOL)[:, None]
    near = (np.abs(spectra[:-1]) <= bound) | (np.abs(spectra[1:]) <= bound)
    lo = near.argmax(axis=1)
    hi = np.where(near.any(axis=1), k - near[:, ::-1].argmax(axis=1), lo)
    rows = np.arange(n - 1)
    change = _changes_sign(spectra[rows, lo], spectra[rows + 1, lo])
    # per run of consecutive samples: (ts, spectra, depths, columns)
    runs, idx, start = [], np.arange(k), 0
    for i in np.flatnonzero((hi - lo > 1) | ((hi - lo == 1) & change)).tolist():
        runs.append((path.grid[start:i + 1], spectra[start:i + 1],
                     np.zeros(i + 1 - start, dtype=int), np.broadcast_to(idx, (i + 1 - start, k))))
        a, b = (_Sample(float(path.grid[j]), spectra[j], vectors[j]) for j in (i, i + 1))
        for t, w, depth, perm in _refined_step(path, a, b, lo[i], hi[i]):
            idx = perm[idx]
            runs.append(([t], w[None], [depth], idx[None]))
        start = i + 2
    runs.append((path.grid[start:], spectra[start:], np.zeros(n - start, dtype=int),
                 np.broadcast_to(idx, (n - start, k))))
    ts, w, depths, columns = (np.concatenate(part) for part in zip(*runs))
    return ts, depths, np.take_along_axis(w, columns, axis=1).T


def branch_curves(path: PotentialPath):
    """The branches that the crossing route counts, with its localised
    crossings: (times, values), values[b][j] the branch-b eigenvalue at
    times[j], on the grid and the samples its steps were refined to."""
    ts, _, values = _tracked_branches(path, *path._grid_pass())
    return ts.tolist(), values.tolist()


@dataclass(frozen=True)
class Crossing:
    """A sign change of a branch, at its first sample t within _CROSSING_TOL
    of zero, which lies ``depth`` splits below a grid step (0: on it)."""
    t: float
    branch: int
    slope_sign: int
    depth: int


@dataclass(frozen=True)
class CrossingReport:
    crossings: tuple
    n_samples: int

    def net(self) -> int:
        return sum(c.slope_sign for c in self.crossings)


def _route_pass(path: PotentialPath):
    """The grid pass of a path whose endpoints must be invertible (rows 0
    and -1 of its spectra); NotInvertible otherwise."""
    grid_pass = path._grid_pass()
    spectra = grid_pass[0]
    for row, label in ((0, "start"), (-1, "end")):
        if np.abs(spectra[row]).min() < opcore._PROJ_GAP_TOL:
            raise NotInvertible(f"path {label} point is not invertible")
    return grid_pass


def _crossings(path, grid_pass):
    ts, depths, values = _tracked_branches(path, *grid_pass)
    signs = np.sign(values) * (np.abs(values) > _CROSSING_TOL)
    ends = np.flatnonzero((signs[:, 0] == 0) | (signs[:, -1] == 0))
    if ends.size:
        raise DegeneratePath(
            f"branch {ends[0]} starts or ends on zero within {_CROSSING_TOL:g}")
    # consecutive nonzero signs of one branch, in sample order; the tracker
    # puts a sample within _CROSSING_TOL in each sign change, right after
    # the last nonzero sample before it
    b, j = np.nonzero(signs)
    s = signs[b, j]
    crossings = [Crossing(t=float(ts[j[c] + 1]), branch=int(b[c]), slope_sign=int(s[c + 1]),
                          depth=int(depths[j[c] + 1]))
                 for c in np.flatnonzero((b[1:] == b[:-1]) & (s[1:] != s[:-1])).tolist()]
    report = CrossingReport(crossings=tuple(sorted(crossings, key=lambda c: (c.t, c.branch))),
                            n_samples=ts.size)
    return report.net(), report


def sf_crossings(path: PotentialPath):
    """Spectral flow by signed eigenvalue-crossing counting.

    Returns (net flow, CrossingReport).  Branches are tracked on samples
    refined until each sign change passes through one within _CROSSING_TOL
    (1e-8) of zero, where its Crossing lies.  Requires invertible
    endpoints; ambiguous branch matching raises RefineGrid, an unresolved
    sign change or a branch ending within _CROSSING_TOL of zero
    DegeneratePath.
    """
    return _crossings(path, _route_pass(path))


# ---------------------------------------------------------------------------
# Partition route.

def _gap_levels(pooled: np.ndarray, min_width) -> Tuple[np.ndarray, np.ndarray]:
    """(levels, scores), one per row of ``pooled``: the midpoint of the
    widest spectral gap near zero in that pooled spectrum, padded with +inf
    to the common row length, and its score.

    Candidate gaps are the spaces between consecutive finite eigenvalues of
    a row of width >= min_width (a scalar, or one value per row); among
    them the score width/(1 + mid^2) prefers wide gaps close to zero, and
    the lowest of equal best scores wins.  A row where no candidate has a
    positive score has level nan and score 0.0.
    """
    vals = np.sort(pooled, axis=1)
    # a gap that reaches the padding has an infinite midpoint and is no
    # candidate; inf - inf and inf / inf are nan there, and masked out
    with np.errstate(invalid="ignore"):
        width = vals[:, 1:] - vals[:, :-1]
        mid = 0.5 * (vals[:, :-1] + vals[:, 1:])
        score = np.where(np.isfinite(mid) & (width >= np.reshape(min_width, (-1, 1))),
                         width / (1.0 + mid * mid), 0.0)
    # argmax takes the first maximum
    best = score.argmax(axis=1)[:, None]
    level = np.take_along_axis(mid, best, axis=1)[:, 0]
    top = np.take_along_axis(score, best, axis=1)[:, 0]
    return np.where(top > 0.0, level, np.nan), top


def _piece_levels(spectra, steps, starts, ends) -> np.ndarray:
    """Gap level of each partition piece, the samples starts[j] to ends[j]
    (both included), valid at every sample of the piece AND safe against
    motion between samples.

    A pooled-spectrum gap is only trustworthy if no eigenvalue branch can
    jump across it between consecutive samples; by Weyl's inequality the
    motion is bounded by ||S(t_{j+1}) - S(t_j)||, so candidate gaps must be
    wider than the largest step in the piece.  Two sentinel levels beyond
    the pooled spectrum (which no branch can reach) act as fallbacks, with
    a low score so interior gaps near zero win whenever they exist; so
    every piece has a level.  All pieces go through one `_gap_levels`
    call, their pooled spectra padded with +inf to the longest.
    """
    span = np.arange(int((ends - starts).max()) + 1)
    at = starts[:, None] + span
    inside = at <= ends[:, None]
    # clipped to its piece, a row repeats the piece's last sample and step,
    # which moves no minimum or maximum
    pieces = spectra[np.minimum(at, ends[:, None])]
    max_step = steps[np.minimum(at[:, :-1], ends[:, None] - 1)].max(axis=1)
    pooled = np.where(inside[:, :, None], pieces, np.inf).reshape(len(starts), -1)
    min_width = 1.5 * max_step + 4.0 * opcore._PROJ_GAP_TOL
    level, score = _gap_levels(pooled, min_width)
    pad = max_step + 1.0
    for mid in (pieces.min(axis=(1, 2)) - pad, pieces.max(axis=(1, 2)) + pad):
        sentinel = min_width / (1.0 + mid * mid) * 1e-6
        take = np.isnan(level) | (sentinel > score)
        level, score = np.where(take, mid, level), np.where(take, sentinel, score)
    return level


def _junction_counts(path: PotentialPath, spectra, at, a0, a1) -> np.ndarray:
    """ind(S(t_i), -a0*1, -a1*1) = #{w > a1} - #{w > a0} over the spectrum
    w of S(t_i), for each i, a0, a1 of the equal-length arrays ``at``,
    ``a0`` and ``a1``.  NotInvertible names the first t_i, in the order of
    ``at``, with an eigenvalue within opcore._PROJ_GAP_TOL of a1 (checked
    first) or of a0."""
    w, gap_tol = spectra[at], opcore._PROJ_GAP_TOL
    shifts = np.stack([a1, a0], axis=1)
    offsets = w[:, None, :] - shifts[:, :, None]
    near = np.abs(offsets).min(axis=2) < gap_tol
    if near.any():
        j, side = divmod(int(near.argmax()), 2)
        a, off = shifts[j, side], offsets[j, side]
        raise NotInvertible(
            f"S(t={path.grid[at[j]]:g}) - {a:g}: eigenvalue {off[np.abs(off).argmin()]:.3e} "
            f"inside gap (+-{gap_tol:.1e})")
    above = np.count_nonzero(w[:, None, :] > shifts[:, :, None], axis=2)
    return above[:, 0] - above[:, 1]


def _chunk_bounds(n, m):
    """Grid indices 0 = b_0 < ... < b_m' = n that cut n grid steps into
    m' = min(m, n) pieces of near-equal length.  Strictly increasing,
    because the step n / m' between the unrounded bounds is at least 1."""
    return np.linspace(0, n, min(m, n) + 1).astype(int)


def _partition(path, spectra, steps, n_chunks=6):
    """The partition flow on n_chunks pieces, checked against the one on
    2 * n_chunks pieces: the levels of all pieces of both partitions in
    one `_piece_levels` call and all their junction counts in one
    `_junction_counts` call."""
    n = path.grid.size - 1
    bounds = [_chunk_bounds(n, m) for m in (n_chunks, 2 * n_chunks)]
    levels = _piece_levels(spectra, steps, np.concatenate([b[:-1] for b in bounds]),
                           np.concatenate([b[1:] for b in bounds]))
    # junction j of a partition lies at its bounds[j], between the levels of
    # pieces j - 1 and j, with level 0 (B = 0) before the first piece and
    # after the last one
    shifts = [np.concatenate([[0.0], piece, [0.0]])
              for piece in np.split(levels, [bounds[0].size - 1])]
    counts = _junction_counts(path, spectra, np.concatenate(bounds),
                              np.concatenate([s[:-1] for s in shifts]),
                              np.concatenate([s[1:] for s in shifts]))
    value, refined_value = (int(c.sum()) for c in np.split(counts, [bounds[0].size]))
    if refined_value != value:
        raise TheoremViolation(
            f"partition spectral flow changed under refinement: "
            f"{value} vs {refined_value}")
    return value


def sf_partition(path: PotentialPath, n_chunks: int = 6) -> int:
    """Spectral flow via the partition definition with scalar level shifts.

    The grid is split into contiguous chunks; per chunk a gap level ``a``
    valid for every sample of the chunk realizes the trivialising operator
    B = -a*1, and the flow is accumulated junction-by-junction as
    ind(S(t_i), B^{i-1}, B^i) with zero shifts at the invertible endpoints
    (Phillips, Canad. Math. Bull. 39, 1996).  With scalar shifts each
    junction term is a count over the spectrum w of S(t_i):
    ind(S(t_i), -a0*1, -a1*1) = #{w > a1} - #{w > a0}.
    Every chunk has a level: without an interior gap wide enough, one
    beyond the chunk's pooled spectrum.  The result is recomputed on a
    refined partition and must agree exactly.
    """
    if n_chunks < 1:
        raise InvalidInput(f"n_chunks must be at least 1, got {n_chunks}")
    spectra, _, steps = _route_pass(path)
    return _partition(path, spectra, steps, n_chunks)


@dataclass(frozen=True)
class EndpointIdentityReport:
    sf_by_crossings: int
    sf_by_partition: int
    endpoint_rel_index: int
    passed: bool
    crossings: CrossingReport


def endpoint_identity(path: PotentialPath) -> EndpointIdentityReport:
    """Assert sf_crossings = sf_partition = rel-ind(P_+(S(end)), P_+(S(start))),
    all three read from one grid pass."""
    grid_pass = _route_pass(path)
    spectra, vectors, steps = grid_pass
    n_cross, report = _crossings(path, grid_pass)
    n_part = _partition(path, spectra, steps)
    # _route_pass has checked the gap at 0 of both endpoints
    end, start = (_projection_above(spectra[i], vectors[i], 0.0, opcore._PROJ_GAP_TOL)
                  for i in (-1, 0))
    n_rel = rel_index(end, start)
    return EndpointIdentityReport(
        sf_by_crossings=n_cross, sf_by_partition=n_part,
        endpoint_rel_index=n_rel,
        passed=(n_cross == n_part == n_rel), crossings=report)


# ---------------------------------------------------------------------------
# Path builders.

def constant_path(h, span=(0.0, 1.0), n_samples=9) -> PotentialPath:
    a = as_matrix(h)
    grid = np.linspace(span[0], span[1], n_samples)
    return PotentialPath(a.shape[0], grid,
                         lambda ts: np.broadcast_to(a, (ts.size,) + a.shape),
                         support=(), name="constant")


def linear_scalar_path(n_samples=33) -> PotentialPath:
    """The scalar path S(t) = 2t - 1 on [0, 1]; one upward crossing at 1/2."""
    grid = np.linspace(0.0, 1.0, n_samples)
    return PotentialPath(1, grid, lambda ts: (2.0 * ts - 1.0)[:, None, None],
                         support=((0.0, 1.0),), name="linear-2t-1")


def tanh_path(k=1, scale=1.0, span=(-10.0, 10.0), n_samples=161) -> PotentialPath:
    """S(t) = tanh(scale*t) * I_k: the canonical sign-changing potential.

    The support set is declared wide enough (|tanh| >= 0.9 outside) that
    the tails are genuinely settled there, keeping the derivative-resolvent
    bound outside K small.
    """
    grid = np.linspace(span[0], span[1], n_samples)
    eye = np.eye(k, dtype=np.complex128)
    body = np.arctanh(0.9) / scale
    return PotentialPath(k, grid, lambda ts: np.tanh(scale * ts)[:, None, None] * eye,
                         support=((-body, body),), name="tanh")


def diagonal_path(funcs: Sequence[Callable[[float], float]], span, n_samples,
                  support=(), name="diagonal") -> PotentialPath:
    """S(t) = diag(f(t) for f in funcs).  Each f is the caller's scalar
    rule, evaluated one t at a time: a scalar rule such as math.tanh
    need not round as its numpy array counterpart does."""
    fs = list(funcs)
    grid = np.linspace(span[0], span[1], n_samples)
    diag = np.arange(len(fs))

    def sampler(ts):
        out = np.zeros((ts.size, len(fs), len(fs)), dtype=np.complex128)
        out[:, diag, diag] = [[f(t) for f in fs] for t in ts.tolist()]
        return out

    return PotentialPath(len(fs), grid, sampler, support=support, name=name)


def path_from_samples(grid, matrices, support=(),
                      name="tabulated") -> PotentialPath:
    """Piecewise-linear interpolation through tabulated Hermitian samples;
    InvalidInput names the first t whose matrix has non-finite entries."""
    grid = np.asarray(grid, dtype=float)
    mats = [np.asarray(m, dtype=np.complex128) for m in matrices]
    if len(mats) != grid.size:
        raise InvalidInput("need one matrix per grid point")
    mats = np.stack(mats)
    bad = ~np.isfinite(mats).all(axis=(1, 2))
    if bad.any():
        raise InvalidInput(f"path sample at t={grid[bad.argmax()]:g} has non-finite entries")

    def sampler(ts):
        j = np.clip(np.searchsorted(grid, ts, side="right") - 1, 0, grid.size - 2)
        u = ((ts - grid[j]) / (grid[j + 1] - grid[j]))[:, None, None]
        return (1.0 - u) * mats[j] + u * mats[j + 1]

    return PotentialPath(mats.shape[1], grid, sampler, support=support, name=name)


def _trig_coeff_matrices(rng, k):
    """Three Hermitian coefficients, the m-th scaled by 0.6^m."""
    out = []
    for m in range(3):
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        out.append((0.6 ** m) * (a + a.conj().T) / 2.0)
    return out


def random_smooth_path(seed, k, span=(0.0, 1.0), n_samples=64) -> PotentialPath:
    """Seeded smooth random path with endpoints shifted into invertibility.

    A short random trigonometric series in the normalized parameter is
    shifted by a linear-in-t multiple of the identity so that both
    endpoints have a spectral gap of at least 0.05.
    """
    rng = np.random.default_rng(seed)
    cos_c = _trig_coeff_matrices(rng, k)
    sin_c = _trig_coeff_matrices(rng, k)
    lo, hi = float(span[0]), float(span[1])

    def raw(ts):
        u = ((ts - lo) / (hi - lo))[:, None, None]
        acc = np.zeros((ts.size, k, k), dtype=np.complex128)
        for m, c in enumerate(cos_c):
            acc += np.cos(m * np.pi * u) * c
        for m, c in enumerate(sin_c, start=1):
            acc += np.sin(m * np.pi * u) * c
        return acc

    def end_shift(mat):
        w = np.linalg.eigvalsh(mat)
        levels, _ = _gap_levels(np.concatenate([w, [w.min() - 2.0, w.max() + 2.0]])[None], 0.1)
        return 0.0 if np.isnan(levels[0]) else float(levels[0])

    c0, c1 = (end_shift(mat) for mat in raw(np.array([lo, hi])))

    def sampler(ts):
        u = ((ts - lo) / (hi - lo))[:, None, None]
        return raw(ts) - ((1.0 - u) * c0 + u * c1) * np.eye(k)

    grid = np.linspace(lo, hi, n_samples)
    return PotentialPath(k, grid, sampler, support=((lo, hi),),
                         name=f"random-smooth(seed={seed}, k={k})")


def _glued(first, p1: PotentialPath, ts1, p2: PotentialPath, ts2) -> np.ndarray:
    """The stack holding p1's sample at ts1[i] where first[i] holds and
    p2's at ts2[i] elsewhere, with one `samples` call per path."""
    out = np.empty((first.size, p1.k, p1.k), dtype=np.complex128)
    out[first] = p1.samples(ts1[first])
    out[~first] = p2.samples(ts2[~first])
    return out


def concat_paths(p1: PotentialPath, p2: PotentialPath) -> PotentialPath:
    """Concatenate two paths sharing p1.end == p2.start (checked) by shifting
    p2's parameter to start where p1 ends."""
    if p1.k != p2.k:
        raise InvalidInput("fiber dims differ")
    if opcore.spectral_norm(p1.end() - p2.start()) > 1e-10:
        raise InvalidInput("junction mismatch: p1.end != p2.start")
    a1, b1 = p1.span()
    a2, b2 = p2.span()
    offset = b1 - a2

    grid = np.concatenate([p1.grid, p2.grid[1:] + offset])
    support = _merged_support(
        p1.support + tuple((a + offset, b + offset) for a, b in p2.support))
    return PotentialPath(p1.k, grid, lambda ts: _glued(ts <= b1, p1, ts, p2, ts - offset),
                         support=support, name=f"{p1.name}||{p2.name}")


def reversed_path(p: PotentialPath) -> PotentialPath:
    a, b = p.span()
    grid = (a + b) - p.grid[::-1]
    support = tuple(sorted(((a + b) - hi, (a + b) - lo) for lo, hi in p.support))
    return PotentialPath(p.k, grid, lambda ts: p.samples(a + b - ts),
                         support=support, name=f"reversed({p.name})")


def conjugated_path(p: PotentialPath, unitary_rule) -> PotentialPath:
    """U(t) p(t) U(t)* with ``unitary_rule`` a stacked rule ts -> (m, k, k)
    unitaries."""
    def sampler(ts):
        u = np.asarray(unitary_rule(ts), dtype=np.complex128)
        return u @ p.samples(ts) @ u.conj().swapaxes(1, 2)

    return PotentialPath(p.k, p.grid.copy(), sampler, support=p.support,
                         name=f"conjugated({p.name})")


def perturbed_path(p: PotentialPath, bump: Callable[[np.ndarray], np.ndarray],
                   r) -> PotentialPath:
    """p(t) + bump(t) * R with a fixed Hermitian R and ``bump`` a stacked
    rule ts -> (m,) weights; bump should vanish outside the support set so
    invertibility outside K is untouched."""
    rm = as_matrix(r)

    def sampler(ts):
        return p.samples(ts) + np.asarray(bump(ts), dtype=float)[:, None, None] * rm

    return PotentialPath(p.k, p.grid.copy(), sampler, support=p.support,
                         name=f"perturbed({p.name})")
