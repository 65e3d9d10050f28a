"""Spectral flow of paths of Hermitian matrices, computed two independent ways.

The first route (`sf_crossings`) tracks eigenvalue branches across the
sample grid by eigenvector overlap, bisection-refines every sign change
down to |lambda| <= crossing_tol, and sums the slope signs.  The second
route (`sf_partition`) exercises the partition definition: it subdivides
the parameter interval, picks per subinterval an invertible gap level
realized by a scalar trivialising shift B = -a*1, and accumulates the
relative indices of the shifted positive spectral projections at the
junctions.  Both must agree with each other and with the endpoint
relative index rel-ind(P_+(S(end)), P_+(S(start))); `endpoint_identity`
asserts the triple equality.

Both routes read one certified eigendecomposition of the grid samples
(`PotentialPath._grid_pass`), and `endpoint_identity` takes it once for
all three integers.  They share that sampled LAPACK output but no logic:
the first matches eigenvectors, follows branches and bisects their zeros
off the grid; the second picks Weyl-safe gap levels from the spectra and
step bounds and counts eigenvalues above them at the junctions.  The path
caches only the spectra and step bounds; the eigenvectors go back to the
caller, because keeping them on every path raised the peak RSS of the
k = 64 tower fibers' run by 5% (47.8 to 50.4 MB).

Branch tracking deliberately matches by eigenvector overlap instead of
sorted order: sorted order silently swaps branches at avoided crossings.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegeneratePath,
    InvalidInput,
    NotInvertible,
    PartitionFailure,
    RefineGrid,
    ShiftFailure,
    TheoremViolation,
)
from .opcore import (
    DEFAULT_TOL,
    HermitianOperator,
    Projection,
    Tolerances,
    as_matrix,
    eigh,
    positive_projection,
    spectral_gap,
)
from .relindex import rel_index

__all__ = [
    "PotentialPath",
    "CrossingReport",
    "Crossing",
    "TrivialisingFamily",
    "sf_crossings",
    "sf_partition",
    "make_trivialising_endpoint",
    "make_trivialising_gapshift",
    "ind_triple",
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


# Bytes of grid samples per batched eigh in `PotentialPath._grid_pass`.
_CHUNK_BYTES = 64 * 1024


class PotentialPath:
    """A family t -> S(t) of Hermitian matrices over a 1-D parameter grid.

    Parameters
    ----------
    k : fiber dimension.
    grid : strictly increasing parameter samples t_0 < ... < t_n.
    sampler : rule t -> (k, k) complex matrix; hermitized on evaluation.
        Outside [t_0, t_n] the path extends constantly by its endpoint
        values (the sampler is evaluated at the clamped parameter).
    support : the declared compact set K where invertibility may fail,
        as a finite union of disjoint closed intervals (or one (a, b)
        pair).  Empty means globally invertible.  The declaration is
        checked where it is used: `dirac1d.assemble` requires a spectral
        gap of at least ``proj_gap_tol`` at every grid sample outside K.
    """

    def __init__(self, k, grid, sampler, support=(), name=""):
        self.k = int(k)
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise InvalidInput("grid must contain at least two samples")
        if not np.all(np.diff(self.grid) > 0):
            raise InvalidInput("grid must be strictly increasing")
        self.sampler = sampler
        self.support = _normalize_support(support)
        self.name = name
        self._spectra = None

    # -- evaluation ---------------------------------------------------------

    def sample(self, t: float) -> np.ndarray:
        tc = min(max(float(t), float(self.grid[0])), float(self.grid[-1]))
        a = np.asarray(self.sampler(tc), dtype=np.complex128)
        if a.shape != (self.k, self.k):
            raise InvalidInput(
                f"sampler returned shape {a.shape}, expected ({self.k}, {self.k})")
        return (a + a.conj().T) / 2.0

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

    def in_support(self, t: float) -> bool:
        return any(a <= t <= b for a, b in self.support)

    def min_gap_outside(self) -> float:
        return self.least_gap_outside()[1]

    def least_gap_outside(self) -> Tuple[Optional[float], float]:
        """(t, gap): the grid sample outside K with the smallest spectral
        gap, and that gap; (None, inf) when every sample lies in K."""
        outside = np.array([not self.in_support(t) for t in self.grid])
        if not outside.any():
            return None, float("inf")
        gaps = np.abs(self._grid_spectra()[0][outside]).min(axis=1)
        worst = int(np.argmin(gaps))
        return float(self.grid[outside][worst]), float(gaps[worst])

    def _grid_spectra(self) -> Tuple[np.ndarray, np.ndarray]:
        """(spectra, steps) of the grid pass, taken on the first call only
        (grid and sampler are fixed) and certified against DEFAULT_TOL."""
        if self._spectra is None:
            self._grid_pass(DEFAULT_TOL)
        return self._spectra

    def _grid_pass(self, tol: Tolerances):
        """(spectra, vectors, steps): one certified eigendecomposition of
        every grid sample and the Weyl bounds between them.

        spectra[i] holds the ascending eigenvalues of S(t_i), vectors[i]
        its eigenvectors as columns, and steps[i] = ||S(t_{i+1}) - S(t_i)||,
        which bounds how far an eigenvalue moves between the two samples.
        The samples are taken once each, in chunks of at most _CHUNK_BYTES
        (or one sample, if larger) with one batched eigh per chunk, which
        is bitwise equal to one call per sample.  A non-finite sample
        raises InvalidInput naming its t.  Each sample's residual
        ||SV - V diag w||_F / max(1, max|w|) and unitarity ||V*V - 1||_F
        must stay within tol.eig_tol; otherwise InvalidInput names the
        worst sample.

        The path keeps (spectra, steps) for `least_gap_outside`; the
        vectors go back to the caller only.  Both limits are measured: on
        the benchmark's index-large workload (k = 64 tower fibers, 41
        samples) the peak RSS is 47.8 MB, against 50.4 MB with the vectors
        kept on the path, 48.6 MB with 256 KiB chunks and 57.8 MB with the
        whole grid in one chunk.
        """
        n, k = self.grid.size, self.k
        spectra = np.empty((n, k))
        vectors = np.empty((n, k, k), dtype=np.complex128)
        steps = np.empty(n - 1)
        defect = np.empty((n, 2))
        per_chunk = max(1, _CHUNK_BYTES // vectors[0].nbytes)
        # buf[0] holds the previous chunk's last sample, for the step across
        # the seam
        buf = np.empty((per_chunk + 1, k, k), dtype=np.complex128)
        eye = np.eye(k)
        for i0 in range(0, n, per_chunk):
            i1 = min(i0 + per_chunk, n)
            s = buf[1:1 + i1 - i0]
            for j, t in enumerate(self.grid[i0:i1]):
                s[j] = self.sample(t)
            finite = np.isfinite(s).all(axis=(1, 2))
            if not finite.all():
                raise InvalidInput(f"path sample at t={self.grid[i0 + np.argmin(finite)]:g} "
                                   f"has non-finite entries")
            w, v = np.linalg.eigh(s)
            spectra[i0:i1], vectors[i0:i1] = w, v
            defect[i0:i1, 0] = (np.linalg.norm(s @ v - v * w[:, None, :], axis=(1, 2))
                                / np.maximum(1.0, np.abs(w).max(axis=1)))
            defect[i0:i1, 1] = np.linalg.norm(v.conj().transpose(0, 2, 1) @ v - eye,
                                              axis=(1, 2))
            # hermitised samples differ by an exactly Hermitian matrix, whose
            # spectral norm is its largest |eigenvalue|
            first = 0 if i0 else 1
            steps[i0 + first - 1:i1 - 1] = np.abs(np.linalg.eigvalsh(
                buf[first + 1:1 + i1 - i0] - buf[first:i1 - i0])).max(axis=1)
            buf[0] = s[-1]
        worst = int(np.argmax(defect.max(axis=1)))
        if defect[worst].max() > tol.eig_tol:
            raise InvalidInput(
                f"eigendecomposition residual {defect[worst, 0]:.3e} / unitarity "
                f"{defect[worst, 1]:.3e} at t={self.grid[worst]:g} exceed "
                f"eig_tol={tol.eig_tol:.1e}")
        self._spectra = (spectra, steps)
        return spectra, vectors, steps

    def __repr__(self):
        a, b = self.span()
        return (f"PotentialPath(k={self.k}, span=({a:g}, {b:g}), "
                f"samples={self.grid.size}, name={self.name!r})")


# ---------------------------------------------------------------------------
# Branch tracking by eigenvector overlap.

_AMBIGUITY_MARGIN = 0.1


def _match_columns(va: np.ndarray, vb: np.ndarray) -> Optional[List[int]]:
    """Greedy maximal-overlap matching of eigenvector columns.

    Returns perm with perm[i] = column of ``vb`` continuing column i of
    ``va``, or None when some assignment is ambiguous (two candidate
    overlaps within 0.1 of each other).  Each step takes the largest
    overlap among unmatched rows and columns, the first in row-major order
    on a tie, and compares it with the rest of its row.
    """
    free = np.abs(va.conj().T @ vb)
    kk = free.shape[0]
    perm = [-1] * kk
    for _ in range(kk):
        i, j = divmod(int(free.argmax()), kk)
        row = free[i]
        val = row[j]
        row[j] = -1.0
        # matched rows and columns read -1 (overlaps are >= 0), so a row
        # with no other unmatched column is never ambiguous
        if val - row.max() < _AMBIGUITY_MARGIN:
            return None
        perm[i] = j
        row.fill(-1.0)
        free[:, j] = -1.0
    return perm


class _Sample:
    __slots__ = ("t", "w", "v")

    def __init__(self, t, w, v):
        self.t, self.w, self.v = t, w, v


def _eig_sample(path: PotentialPath, t: float, tol: Tolerances) -> _Sample:
    w, v = eigh(path.sample(t), tol)
    return _Sample(float(t), w, v)


def _refine_chain(path, a: _Sample, b: _Sample, tol, depth, max_depth):
    """Samples and permutations connecting ``a`` to ``b``, inserting
    midpoints until every consecutive overlap matching is decisive."""
    perm = _match_columns(a.v, b.v)
    if perm is not None:
        return [b], [perm]
    if depth >= max_depth or (b.t - a.t) < 1e-13:
        raise RefineGrid(
            f"branch matching stayed ambiguous on [{a.t!r}, {b.t!r}] "
            f"after {depth} refinements")
    mid = _eig_sample(path, 0.5 * (a.t + b.t), tol)
    s1, p1 = _refine_chain(path, a, mid, tol, depth + 1, max_depth)
    s2, p2 = _refine_chain(path, mid, b, tol, depth + 1, max_depth)
    return s1 + s2, p1 + p2


def _tracked_branches(path: PotentialPath, spectra, vectors, tol: Tolerances,
                      max_depth=24):
    """Follow the eigenpairs of the grid pass across the (refined) grid and
    return (times, values, samples, columns): values[b][j] is the eigenvalue
    of branch b at sample j and columns[b][j] the column of its eigenvector
    in samples[j].v.  Branch b starts as the b-th ascending eigenvalue at t_0."""
    base = [_Sample(float(t), w, v) for t, w, v in zip(path.grid, spectra, vectors)]
    samples = [base[0]]
    perms = []
    for i in range(len(base) - 1):
        seg, seg_perms = _refine_chain(path, base[i], base[i + 1], tol, 0, max_depth)
        samples.extend(seg)
        perms.extend(seg_perms)
    idx = list(range(path.k))
    columns = [idx]
    for perm in perms:
        idx = [perm[i] for i in idx]
        columns.append(idx)
    columns = [list(col) for col in zip(*columns)]
    values = [[float(s.w[c]) for s, c in zip(samples, col)] for col in columns]
    return [s.t for s in samples], values, samples, columns


def branch_curves(path: PotentialPath, tol: Tolerances = DEFAULT_TOL):
    """Eigenvalue branches tracked along the path: (times, values) with
    values[b][j] the branch-b eigenvalue at times[j].  For plotting."""
    spectra, vectors, _ = path._grid_pass(tol)
    times, values, _, _ = _tracked_branches(path, spectra, vectors, tol)
    return times, values


@dataclass(frozen=True)
class Crossing:
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


def _bisect_branch_zero(path, t_lo, x_lo, v_lo, t_hi, x_hi, crossing_tol,
                        tol, max_depth=60):
    """Bisection-refine a sign change of one tracked branch.

    The branch is followed through the bisection by maximal eigenvector
    overlap with the most recently evaluated branch vector.
    """
    vec = v_lo
    depth = 0
    while depth < max_depth:
        t_mid = 0.5 * (t_lo + t_hi)
        w, v = eigh(path.sample(t_mid), tol)
        overlaps = np.abs(vec.conj() @ v)
        j = int(np.argmax(overlaps))
        srt = np.sort(overlaps)
        if srt.size > 1 and srt[-1] - srt[-2] < _AMBIGUITY_MARGIN:
            # the branch hit a near-degeneracy inside the window; the window
            # endpoint signs still bracket a zero, so keep halving blindly
            pass
        else:
            vec = v[:, j]
        x_mid = float(w[j])
        depth += 1
        if abs(x_mid) <= crossing_tol:
            return t_mid, depth
        if np.sign(x_mid) == np.sign(x_lo):
            t_lo, x_lo = t_mid, x_mid
        else:
            t_hi, x_hi = t_mid, x_mid
    raise DegeneratePath(
        f"crossing near t={0.5 * (t_lo + t_hi)!r} not resolved to "
        f"|lambda| <= {crossing_tol:g} after {max_depth} bisections")


def _route_pass(path: PotentialPath, tol: Tolerances):
    """The grid pass of a path whose endpoints must be invertible (rows 0
    and -1 of its spectra); NotInvertible otherwise."""
    grid_pass = path._grid_pass(tol)
    spectra = grid_pass[0]
    for row, label in ((0, "start"), (-1, "end")):
        if np.abs(spectra[row]).min() < tol.proj_gap_tol:
            raise NotInvertible(f"path {label} point is not invertible")
    return grid_pass


def _crossings(path, grid_pass, crossing_tol, tol):
    spectra, vectors, _ = grid_pass
    times, values, samples, columns = _tracked_branches(path, spectra, vectors, tol)
    n = len(times)
    crossings = []
    for b in range(path.k):
        xs = values[b]
        signs = [0 if abs(x) <= crossing_tol else (1 if x > 0 else -1)
                 for x in xs]
        if signs[0] == 0 or signs[-1] == 0:
            raise DegeneratePath(
                f"branch {b} starts or ends on zero within crossing_tol")
        j = 0
        while j < n - 1:
            jn = j + 1
            while jn < n and signs[jn] == 0:
                jn += 1
            if jn >= n:
                break
            if signs[j] * signs[jn] < 0:
                t_star, depth = _bisect_branch_zero(
                    path, times[j], xs[j], samples[j].v[:, columns[b][j]],
                    times[jn], xs[jn], crossing_tol, tol)
                crossings.append(Crossing(t=t_star, branch=b,
                                          slope_sign=signs[jn], depth=depth))
            j = jn
    report = CrossingReport(crossings=tuple(sorted(crossings, key=lambda c: (c.t, c.branch))),
                            n_samples=n)
    return report.net(), report


def sf_crossings(path: PotentialPath, crossing_tol: float = 1e-8,
                 tol: Tolerances = DEFAULT_TOL):
    """Spectral flow by signed eigenvalue-crossing counting.

    Returns (net flow, CrossingReport).  Requires invertible endpoints;
    ambiguous branch matching raises RefineGrid, unresolvable tangencies
    raise DegeneratePath.
    """
    return _crossings(path, _route_pass(path, tol), crossing_tol, tol)


# ---------------------------------------------------------------------------
# Partition / trivialising-family route.

@dataclass(frozen=True)
class TrivialisingFamily:
    """A sampled rule t -> B(t) making S(t) + B(t) invertible on an interval."""

    rule: Callable[[float], np.ndarray]
    interval: Tuple[float, float]

    def validate(self, path: PotentialPath, tol: Tolerances = DEFAULT_TOL,
                 gap: Optional[float] = None):
        gap = tol.proj_gap_tol if gap is None else gap
        lo, hi = self.interval
        worst = float("inf")
        for t in path.grid:
            if lo <= t <= hi:
                g = spectral_gap(path.sample(t) + np.asarray(self.rule(float(t))))
                worst = min(worst, g)
                if g < gap:
                    raise NotInvertible(
                        f"S(t)+B(t) gap {g:.3e} < {gap:.1e} at t={t}")
        return worst


def make_trivialising_endpoint(path: PotentialPath,
                               tol: Tolerances = DEFAULT_TOL) -> TrivialisingFamily:
    """The endpoint family B(t) = S(start) - S(t), so S(t) + B(t) is the
    constant invertible operator S(start)."""
    s0 = path.start()
    if spectral_gap(s0) < tol.proj_gap_tol:
        raise NotInvertible("path start point is not invertible")
    lo, hi = path.span()
    return TrivialisingFamily(rule=lambda t: s0 - path.sample(t),
                              interval=(lo, hi))


def make_trivialising_gapshift(h, delta: float,
                               tol: Tolerances = DEFAULT_TOL) -> HermitianOperator:
    """A spectral shift B = delta*(2P - 1), P = chi_((-delta, inf))(H),
    pushing eigenvalues above -delta up and the rest down.  The result is
    verified a posteriori: spec(H + B) must avoid (-delta/2, delta/2)."""
    if not delta > 0:
        raise InvalidInput("delta must be positive")
    w, v = eigh(h, tol)
    signs = np.where(w > -delta, 1.0, -1.0)
    b = delta * ((v * signs) @ v.conj().T)
    gap = spectral_gap(as_matrix(h) + b)
    if gap < delta / 2.0:
        raise ShiftFailure(
            f"gap(H+B) = {gap:.3e} < delta/2 = {delta / 2.0:.3e}; increase delta")
    return HermitianOperator(b)


def ind_triple(d, b0, b1, tol: Tolerances = DEFAULT_TOL) -> int:
    """rel-ind(P_+(D + B1), P_+(D + B0)) for Hermitian D and trivialising
    shifts B0, B1 (both sums must be invertible)."""
    dm = as_matrix(d)
    p1 = positive_projection(dm + as_matrix(b1), tol.proj_gap_tol, tol)
    p0 = positive_projection(dm + as_matrix(b0), tol.proj_gap_tol, tol)
    return rel_index(p1, p0, tol)


def _gap_level(eigs: np.ndarray, min_width: float) -> Tuple[Optional[float], float]:
    """(level, score): the midpoint of the widest spectral gap near zero in
    a pooled spectrum, and its score.

    Candidate gaps are the spaces between consecutive pooled eigenvalues of
    width >= min_width; among them the score width/(1 + mid^2) prefers wide
    gaps close to zero.  Returns (None, 0.0) when no candidate exists.
    """
    vals = np.sort(eigs)
    best, best_score = None, 0.0
    for lo, hi in zip(vals, vals[1:]):
        width = hi - lo
        if width < min_width:
            continue
        mid = 0.5 * (lo + hi)
        score = float(width / (1.0 + mid * mid))
        if score > best_score:
            best, best_score = float(mid), score
    return best, best_score


def _piece_level(spectra, steps, pgt: float) -> Optional[float]:
    """Gap level for one partition piece, valid at every sample AND safe
    against motion between samples.

    A pooled-spectrum gap is only trustworthy if no eigenvalue branch can
    jump across it between consecutive samples; by Weyl's inequality the
    motion is bounded by ||S(t_{j+1}) - S(t_j)||, so candidate gaps must be
    wider than the largest step in the piece.  Two sentinel levels beyond
    the pooled spectrum (which no branch can reach) act as fallbacks, with
    a low score so interior gaps near zero win whenever they exist.
    """
    pooled = np.concatenate(spectra)
    max_step = float(max(steps)) if len(steps) else 0.0
    min_width = 1.5 * max_step + 4.0 * pgt
    best, best_score = _gap_level(pooled, min_width)
    pad = max_step + 1.0
    for mid in (float(pooled.min()) - pad, float(pooled.max()) + pad):
        score = float(min_width / (1.0 + mid * mid)) * 1e-6
        if best is None or score > best_score:
            best, best_score = mid, score
    return best


def _projection_above(t: float, w: np.ndarray, v: np.ndarray, a: float,
                      gap_tol: float) -> Projection:
    """P_+(S(t) - a) from the eigenpairs (w, v) of S(t): the spectral
    projection of S(t) onto (a, inf).  Raises NotInvertible when an
    eigenvalue lies within gap_tol of the level a."""
    near = np.abs(w - a)
    if near.min() < gap_tol:
        raise NotInvertible(
            f"S(t={t:g}) - {a:g} has eigenvalue {w[near.argmin()] - a:.3e} "
            f"inside gap (+-{gap_tol:.1e})")
    return Projection((v * (w > a)) @ v.conj().T)


def _partition(path, grid_pass, tol, n_chunks=6):
    spectra, vectors, steps = grid_pass

    def levels_for(i0, i1, depth=0):
        if depth > 40:
            raise PartitionFailure(
                f"no invertible gap level on grid cells [{i0}, {i1}] "
                f"after maximal refinement")
        a = _piece_level(spectra[i0:i1 + 1], steps[i0:i1], tol.proj_gap_tol)
        if a is not None:
            return [(i0, i1, a)]
        if i1 - i0 <= 1:
            raise PartitionFailure(
                f"no invertible gap level on grid cells [{i0}, {i1}]")
        mid = (i0 + i1) // 2
        return levels_for(i0, mid, depth + 1) + levels_for(mid, i1, depth + 1)

    def above(i, a):
        return _projection_above(path.grid[i], spectra[i], vectors[i], a,
                                 tol.proj_gap_tol)

    def compute(chunks):
        pieces = [piece for (i0, i1) in chunks for piece in levels_for(i0, i1)]
        # level 0 (B = 0) before the first piece and after the last one
        levels = [0.0] + [a for (_, _, a) in pieces] + [0.0]
        junctions = [i0 for (i0, _, _) in pieces] + [pieces[-1][1]]
        # ind(S(t_i), -a0*1, -a1*1) = rel-ind(P_+(S - a1), P_+(S - a0))
        return sum(rel_index(above(i, a1), above(i, a0), tol)
                   for i, a0, a1 in zip(junctions, levels, levels[1:]))

    n = path.grid.size - 1

    def chunking(m):
        bounds = np.unique(np.linspace(0, n, min(m, n) + 1).astype(int))
        return list(zip(bounds[:-1], bounds[1:]))

    value = compute(chunking(n_chunks))
    refined_value = compute(chunking(2 * n_chunks))
    if refined_value != value:
        raise TheoremViolation(
            f"partition spectral flow changed under refinement: "
            f"{value} vs {refined_value}")
    return value


def sf_partition(path: PotentialPath, tol: Tolerances = DEFAULT_TOL,
                 n_chunks: int = 6) -> int:
    """Spectral flow via the partition definition with scalar level shifts.

    The grid is split into contiguous chunks; per chunk a gap level ``a``
    valid for every sample of the chunk realizes the trivialising operator
    B = -a*1, and the flow is accumulated junction-by-junction as
    ind(S(t_i), B^{i-1}, B^i) with zero shifts at the invertible endpoints.
    Chunks without a usable level are split recursively; an unsplittable
    chunk without a level raises PartitionFailure.  The result is
    recomputed on a refined partition and must agree exactly.
    """
    return _partition(path, _route_pass(path, tol), tol, n_chunks)


@dataclass(frozen=True)
class EndpointIdentityReport:
    sf_by_crossings: int
    sf_by_partition: int
    endpoint_rel_index: int
    passed: bool
    crossings: CrossingReport


def endpoint_identity(path: PotentialPath, crossing_tol: float = 1e-8,
                      tol: Tolerances = DEFAULT_TOL) -> EndpointIdentityReport:
    """Assert sf_crossings = sf_partition = rel-ind(P_+(S(end)), P_+(S(start))),
    all three read from one grid pass."""
    grid_pass = _route_pass(path, tol)
    n_cross, report = _crossings(path, grid_pass, crossing_tol, tol)
    n_part = _partition(path, grid_pass, tol)
    spectra, vectors, _ = grid_pass
    p_end = _projection_above(path.grid[-1], spectra[-1], vectors[-1], 0.0,
                              tol.proj_gap_tol)
    p_start = _projection_above(path.grid[0], spectra[0], vectors[0], 0.0,
                                tol.proj_gap_tol)
    n_rel = rel_index(p_end, p_start, tol)
    return EndpointIdentityReport(
        sf_by_crossings=n_cross, sf_by_partition=n_part,
        endpoint_rel_index=n_rel,
        passed=(n_cross == n_part == n_rel), crossings=report)


# ---------------------------------------------------------------------------
# Path builders.

def constant_path(h, span=(0.0, 1.0), n_samples=9, name="constant") -> PotentialPath:
    a = as_matrix(h)
    grid = np.linspace(span[0], span[1], n_samples)
    return PotentialPath(a.shape[0], grid, lambda t: a, support=(), name=name)


def linear_scalar_path(n_samples=33, name="linear-2t-1") -> PotentialPath:
    """The scalar path S(t) = 2t - 1 on [0, 1]; one upward crossing at 1/2."""
    grid = np.linspace(0.0, 1.0, n_samples)
    return PotentialPath(1, grid, lambda t: np.array([[2.0 * t - 1.0]]),
                         support=((0.0, 1.0),), name=name)


def tanh_path(k=1, scale=1.0, span=(-10.0, 10.0), n_samples=161,
              name="tanh") -> PotentialPath:
    """S(t) = tanh(scale*t) * I_k: the canonical sign-changing potential.

    The support set is declared wide enough (|tanh| >= 0.9 outside) that
    the tails are genuinely settled there, keeping the derivative-resolvent
    bound outside K small.
    """
    grid = np.linspace(span[0], span[1], n_samples)
    eye = np.eye(k, dtype=np.complex128)
    body = np.arctanh(0.9) / scale
    return PotentialPath(k, grid, lambda t: np.tanh(scale * t) * eye,
                         support=((-body, body),), name=name)


def diagonal_path(funcs: Sequence[Callable[[float], float]], span, n_samples,
                  support=(), name="diagonal") -> PotentialPath:
    fs = list(funcs)
    grid = np.linspace(span[0], span[1], n_samples)

    def sampler(t):
        return np.diag([f(t) for f in fs]).astype(np.complex128)

    return PotentialPath(len(fs), grid, sampler, support=support, name=name)


def path_from_samples(grid, matrices, support=(),
                      name="tabulated") -> PotentialPath:
    """Piecewise-linear interpolation through tabulated Hermitian samples."""
    grid = np.asarray(grid, dtype=float)
    mats = [np.asarray(m, dtype=np.complex128) for m in matrices]
    if len(mats) != grid.size:
        raise InvalidInput("need one matrix per grid point")
    k = mats[0].shape[0]

    def sampler(t):
        j = int(np.searchsorted(grid, t, side="right")) - 1
        j = min(max(j, 0), grid.size - 2)
        u = (t - grid[j]) / (grid[j + 1] - grid[j])
        return (1.0 - u) * mats[j] + u * mats[j + 1]

    return PotentialPath(k, grid, sampler, support=support, name=name)


def _trig_coeff_matrices(rng, k, n_terms=3, decay=0.6):
    out = []
    for m in range(n_terms):
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        out.append((decay ** m) * (a + a.conj().T) / 2.0)
    return out


def random_smooth_path(seed, k, span=(0.0, 1.0), n_samples=64,
                       min_end_gap=0.05, amplitude=1.0,
                       name=None) -> PotentialPath:
    """Seeded smooth random path with endpoints shifted into invertibility.

    A short random trigonometric series in the normalized parameter is
    shifted by a linear-in-t multiple of the identity so that both
    endpoints have a spectral gap of at least ``min_end_gap``.
    """
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
        lvl, _ = _gap_level(np.concatenate([w, [w.min() - 2.0, w.max() + 2.0]]),
                            2.0 * min_end_gap)
        return 0.0 if lvl is None else lvl

    c0 = end_shift(raw(lo))
    c1 = end_shift(raw(hi))

    def sampler(t):
        u = (t - lo) / (hi - lo)
        return raw(t) - ((1.0 - u) * c0 + u * c1) * np.eye(k)

    grid = np.linspace(lo, hi, n_samples)
    return PotentialPath(k, grid, sampler, support=((lo, hi),),
                         name=name or f"random-smooth(seed={seed}, k={k})")


def concat_paths(p1: PotentialPath, p2: PotentialPath, name=None) -> PotentialPath:
    """Concatenate two paths sharing p1.end == p2.start (checked) by shifting
    p2's parameter to start where p1 ends."""
    if p1.k != p2.k:
        raise InvalidInput("fiber dims differ")
    if float(np.linalg.norm(p1.end() - p2.start(), 2)) > 1e-10:
        raise InvalidInput("junction mismatch: p1.end != p2.start")
    a1, b1 = p1.span()
    a2, b2 = p2.span()
    offset = b1 - a2

    def sampler(t):
        return p1.sample(t) if t <= b1 else p2.sample(t - offset)

    grid = np.concatenate([p1.grid, p2.grid[1:] + offset])
    support = p1.support + tuple((a + offset, b + offset) for a, b in p2.support)
    try:
        support = _normalize_support(support)
    except InvalidInput:
        support = ((min(s[0] for s in support), max(s[1] for s in support)),)
    return PotentialPath(p1.k, grid, sampler, support=support,
                         name=name or f"{p1.name}||{p2.name}")


def reversed_path(p: PotentialPath, name=None) -> PotentialPath:
    a, b = p.span()
    grid = (a + b) - p.grid[::-1]
    support = tuple(sorted(((a + b) - hi, (a + b) - lo) for lo, hi in p.support))
    return PotentialPath(p.k, grid, lambda t: p.sample(a + b - t),
                         support=support, name=name or f"reversed({p.name})")


def conjugated_path(p: PotentialPath, unitary_rule, name=None) -> PotentialPath:
    def sampler(t):
        u = np.asarray(unitary_rule(t), dtype=np.complex128)
        return u @ p.sample(t) @ u.conj().T

    return PotentialPath(p.k, p.grid.copy(), sampler, support=p.support,
                         name=name or f"conjugated({p.name})")


def perturbed_path(p: PotentialPath, bump: Callable[[float], float], r,
                   name=None) -> PotentialPath:
    """p(t) + bump(t) * R with a fixed Hermitian R; bump should vanish
    outside the support set so invertibility outside K is untouched."""
    rm = as_matrix(r)

    def sampler(t):
        return p.sample(t) + float(bump(t)) * rm

    return PotentialPath(p.k, p.grid.copy(), sampler, support=p.support,
                         name=name or f"perturbed({p.name})")
