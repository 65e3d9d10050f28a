"""Dense Hermitian matrix backbone.

Everything downstream (spectral flow, index extraction, hypersurface
pairings) reduces to a handful of primitives implemented here: Hermitian
eigendecomposition, the bounded transform H(1+H^2)^(-1/2) and other
functions f(H) = V f(L) V*, hard spectral projections, SVD-based numerical
rank with gap detection, a quadrature route to (1+H^2)^(-1/2), and nested
truncation towers that give finite-dimensional meaning to compactness.

Conventions: complex128 throughout; each numerical threshold is a module
constant that states what it is relative to; reductions are plain
left-to-right numpy reductions so repeated runs in one process are bitwise
reproducible.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    AmbiguousRank,
    GeneratorError,
    InvalidInput,
    NotInvertible,
    NotRelativelyCompact,
)

__all__ = [
    "HermitianOperator",
    "Projection",
    "TruncationTower",
    "as_matrix",
    "eigh",
    "bounded_transform",
    "positive_projection",
    "null_space",
    "NullSpaceResult",
    "inv_sqrt_via_quadrature",
    "QuadratureResult",
    "tower_instantiate",
    "resolvent_tails",
    "tails_vanish",
    "spectral_norm",
    "spectral_gap",
    "alternating_diag_template",
    "banded_shift_template",
    "rank_one_template",
    "exp_decay_template",
    "decaying_rank_template",
]


# The thresholds of the numerical decisions.  Every use reads the module
# attribute when it runs, so changing one name changes it for every caller.
#
# An eigendecomposition's residual ||A V - V diag(w)||_F, relative to
# max(1, max |w|), and its unitarity defect ||V* V - 1||_F (absolute) must
# stay below _EIG_TOL.
_EIG_TOL = 1e-10
# Singular values below _SVD_GAP_CAP * sigma_max (relative to sigma_max)
# are kernel candidates: the kernel cut of `null_space` sits at the largest
# jump among them, and the transfer route of `dirac1d` certifies its count
# at this cut.
_SVD_GAP_CAP = 1e-6
# Without a decisive jump, the kernel is the singular values below
# _RANK_REL_TOL * sigma_max (relative to sigma_max).
_RANK_REL_TOL = 1e-8
# A hard spectral projection at a level needs every eigenvalue at least
# _PROJ_GAP_TOL away from it (absolute).
_PROJ_GAP_TOL = 1e-8
# Bound on a `Projection`'s ||P - P*||_F and ||P^2 - P||_F (absolute, Frobenius).
_PROJECTION_TOL = 1e-10


def _check_finite(a, what="matrix"):
    """Reject non-finite entries; for a stack (m, rows, cols), name the
    first matrix that has one."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        where = f" (matrix {int(np.argmin(finite))} of the stack)" if a.ndim == 3 else ""
        raise InvalidInput(f"{what} has non-finite entries{where}")


def as_matrix(x, stack: bool = False) -> np.ndarray:
    """Return the complex matrix behind ``x`` (HermitianOperator, Projection
    or plain array-like).  With ``stack``, a stack (m, n, n) of square
    matrices is accepted too."""
    if isinstance(x, (HermitianOperator, Projection)):
        return x.entries
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-2] != a.shape[-1]:
        raise InvalidInput(f"expected a square matrix{' or a stack of them' if stack else ''}, "
                           f"got shape {a.shape}")
    return a


def _hermitised(h, stack: bool = False) -> np.ndarray:
    """(A + A*)/2 of the finite-checked matrix A behind ``h``, or of each
    matrix of a stack.  Exact on an already hermitised A, so a
    HermitianOperator passes through unchanged."""
    a = as_matrix(h, stack)
    _check_finite(a, "operator")
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


class HermitianOperator:
    """A dense complex square matrix certified Hermitian.

    The constructor symmetrizes A <- (A + A*)/2 and records the relative
    deviation ||A - A*||_F / max(1, ||A||_F) of the input as
    ``herm_residual``, so the decision to hermitize rather than reject stays
    auditable.  The Frobenius norm bounds the spectral norm from above.
    """

    __slots__ = ("entries", "dim", "herm_residual")

    def __init__(self, entries):
        a = as_matrix(entries)
        self.entries = _hermitised(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        self.herm_residual = float(np.linalg.norm(a - a.conj().T)) / scale
        self.dim = a.shape[0]

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim}, herm_residual={self.herm_residual:.2e})"


class Projection:
    """A Hermitian idempotent within tolerance.

    Construction bounds ||P^2 - P||_F and ||P - P*||_F (Frobenius norms,
    upper bounds of the spectral ones) by _PROJECTION_TOL; degraded inputs
    are rejected rather than repaired.
    """

    __slots__ = ("entries", "dim", "idem_residual", "herm_residual")

    def __init__(self, entries):
        p = as_matrix(entries)
        _check_finite(p, "projection")
        self.herm_residual = float(np.linalg.norm(p - p.conj().T))
        self.idem_residual = float(np.linalg.norm(p @ p - p))
        if self.herm_residual > _PROJECTION_TOL:
            raise InvalidInput(
                f"projection is not Hermitian: ||P - P*||_F = {self.herm_residual:.3e}")
        if self.idem_residual > _PROJECTION_TOL:
            raise InvalidInput(
                f"projection is not idempotent: ||P^2 - P||_F = {self.idem_residual:.3e}")
        self.entries = _hermitised(p)
        self.dim = p.shape[0]

    def rank(self) -> int:
        return int(round(float(np.trace(self.entries).real)))

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank()})"


def _decompose(a: np.ndarray):
    """One `np.linalg.eigh` of a hermitised matrix, or of each matrix of a
    stack (m, n, n), with its certificate: (w, v, defects), where
    defects[..., 0] is the residual ||A V - V diag(w)||_F / max(1, max |w|)
    and defects[..., 1] the unitarity defect ||V* V - 1||_F of each matrix."""
    w, v = np.linalg.eigh(a)
    scale = np.abs(w).max(axis=-1, initial=1.0)
    resid = np.linalg.norm(a @ v - v * w[..., None, :], axis=(-2, -1)) / scale
    unit = np.linalg.norm(v.conj().swapaxes(-1, -2) @ v - np.eye(a.shape[-1]), axis=(-2, -1))
    return w, v, np.stack([resid, unit], axis=-1)


def _repeats(stack: np.ndarray, before=None) -> np.ndarray:
    """Mask of the matrices of the complex stack (m, r, c) that are bitwise
    equal to the one before them; matrix 0 is compared with ``before``
    (None: no predecessor).  Bitwise, so +0.0 and -0.0 differ, and a
    result computed for the predecessor is exactly the one the repeat
    would get."""
    bits = np.ascontiguousarray(stack).view(np.int64)
    same = np.empty(len(stack), dtype=bool)
    same[1:] = (bits[1:] == bits[:-1]).all(axis=(1, 2))
    same[:1] = before is not None and np.array_equal(
        bits[0], np.ascontiguousarray(before).view(np.int64))
    return same


def _certify(defects: np.ndarray, where: Callable[[int], str]):
    """Raise InvalidInput when a certificate of `_decompose` exceeds
    _EIG_TOL; ``where(i)`` names the worst matrix i."""
    flat = defects.reshape(-1, 2)
    worst = int(np.argmax(flat.max(axis=1)))
    resid, unit = flat[worst]
    if max(resid, unit) > _EIG_TOL:
        raise InvalidInput(
            f"eigendecomposition residual {resid:.3e} / unitarity "
            f"{unit:.3e}{where(worst)} exceed eig_tol={_EIG_TOL:.1e}")


def eigh(h):
    """Eigendecomposition of a Hermitian operator, or of each matrix of a
    stack (m, n, n) in one batched call.

    Returns (eigenvalues ascending, unitary eigenvector matrix V) with
    H V = V diag(w), stacked like the input.  Per matrix, the residual
    ||H V - V diag(w)||_F relative to max(1, max |w|) and the unitarity
    defect ||V* V - 1||_F are checked against _EIG_TOL; a failure names
    the worst matrix of a stack.
    """
    a = _hermitised(h, stack=True)
    w, v, defects = _decompose(a)
    _certify(defects, lambda i: f" at matrix {i} of the stack" if a.ndim == 3 else "")
    return w, v


def _transform_of(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H (1 + H^2)^(-1/2), hermitised, from the eigenpairs (w, v) of H or
    of each matrix of a stack."""
    fw = w / np.sqrt(1.0 + w * w)
    return _hermitised((v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2), stack=True)


def bounded_transform(h) -> np.ndarray:
    """The contraction H (1 + H^2)^(-1/2) of a Hermitian matrix, or of each
    matrix of a stack (m, n, n) from one batched `eigh`; its spectrum lies
    in (-1, 1)."""
    return _transform_of(*eigh(h))


def _projection_above(w: np.ndarray, v: np.ndarray, level: float,
                      gap_tol: float) -> Projection:
    """P_+(H - level) from the eigenpairs (w, v) of H: the spectral
    projection onto (level, inf).  Raises NotInvertible when an eigenvalue
    lies within gap_tol of the level."""
    near = np.abs(w - level)
    if near.size and float(near.min()) < gap_tol:
        raise NotInvertible(
            f"eigenvalue {w[near.argmin()] - level:.3e} inside gap (+-{gap_tol:.1e})")
    return Projection((v * (w > level)) @ v.conj().T)


def positive_projection(h) -> Projection:
    """Hard spectral projection onto (0, inf).

    Requires a spectral gap: no eigenvalue may lie in (-_PROJ_GAP_TOL,
    _PROJ_GAP_TOL), otherwise NotInvertible is raised.  The hard step at 0
    is legitimate exactly because every caller guarantees such a gap.
    """
    return _projection_above(*eigh(h), 0.0, _PROJ_GAP_TOL)


class NullSpaceResult(NamedTuple):
    basis: np.ndarray          # (n, dim) orthonormal kernel basis
    dim: int                   # numerical kernel dimension
    singular_values: np.ndarray  # descending
    gap_ratio: float           # confidence diagnostic (>= 10 means decisive)
    threshold: float


def _kernel_cut(s: np.ndarray):
    """Choose a kernel cut in the descending singular values ``s``.

    The cut is placed at the largest multiplicative jump whose lower side
    sits below ``_SVD_GAP_CAP * s[0]``; if no candidate jump exists, the
    level ``_RANK_REL_TOL * s[0]`` is used.  Returns (kernel_dim, gap_ratio,
    threshold, candidates) where candidates collects the competing kernel
    dimensions when the decision is ambiguous.
    """
    n = s.size
    if n == 0:
        return 0, float("inf"), 0.0, ()
    smax = float(s[0])
    if smax == 0.0:
        return n, float("inf"), 0.0, ()
    cap_level = _SVD_GAP_CAP * smax
    if float(s[-1]) > cap_level:
        # clean full rank: nothing remotely small
        return 0, float("inf"), _RANK_REL_TOL * smax, ()
    best_j, best_ratio = None, 0.0
    for j in range(n - 1):
        lo = float(s[j + 1])
        if lo > cap_level:
            continue
        ratio = float("inf") if lo == 0.0 else float(s[j]) / lo
        if ratio > best_ratio:
            best_ratio, best_j = ratio, j
    if best_j is not None and best_ratio >= 10.0:
        lo = float(s[best_j + 1])
        thr = np.sqrt(float(s[best_j]) * lo) if lo > 0.0 else float(s[best_j]) / 2.0
        return n - best_j - 1, best_ratio, thr, ()
    # fallback: a fixed level
    thr = _RANK_REL_TOL * smax
    dim_fb = int(np.sum(s < thr))
    above = s[s >= thr]
    below = s[s < thr]
    if below.size == 0 or above.size == 0:
        fb_ratio = float("inf")
    else:
        lo = float(below[0])
        fb_ratio = float("inf") if lo == 0.0 else float(above[-1]) / lo
    if fb_ratio >= 10.0:
        return dim_fb, fb_ratio, thr, ()
    dim_gap = n - best_j - 1 if best_j is not None else dim_fb
    return dim_fb, max(best_ratio, fb_ratio), thr, tuple(sorted({dim_gap, dim_fb}))


def null_space(m, want_basis=True) -> NullSpaceResult:
    """Numerical kernel of a rectangular complex matrix via SVD.

    The kernel dimension is the number of singular values below a
    threshold placed at the largest relative gap among the small singular
    values (below ``_SVD_GAP_CAP * sigma_max``), falling back to the
    level ``_RANK_REL_TOL * sigma_max``.  A gap ratio below 10
    raises AmbiguousRank carrying both candidate dimensions.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InvalidInput(f"expected a matrix, got shape {a.shape}")
    _check_finite(a, "matrix")
    ncols = a.shape[1]
    if want_basis:
        _, s, vh = np.linalg.svd(a, full_matrices=True)
    else:
        s = np.linalg.svd(a, compute_uv=False)
        vh = None
    small, ratio, thr, candidates = _kernel_cut(s)
    if candidates:
        raise AmbiguousRank(
            f"no decisive singular-value gap (ratio {ratio:.2f} < 10); "
            f"candidate kernel dims {tuple(c + ncols - s.size for c in candidates)}",
            candidates=tuple(c + ncols - s.size for c in candidates),
            gap_ratio=ratio)
    # a wide matrix has ncols - len(s) exact kernel directions beyond the
    # singular-value list
    dim = small + (ncols - s.size)
    if want_basis:
        basis = vh[ncols - dim:].conj().T if dim > 0 else np.zeros((ncols, 0), dtype=np.complex128)
    else:
        basis = None
    return NullSpaceResult(basis=basis, dim=dim, singular_values=s,
                           gap_ratio=ratio, threshold=thr)


class QuadratureResult(NamedTuple):
    operator: np.ndarray  # the quadrature value, hermitised
    error: float          # spectral-norm distance to the eigh-based exact value


def inv_sqrt_via_quadrature(h, n_nodes: int) -> QuadratureResult:
    """Approximate (1 + H^2)^(-1/2) by resolvent quadrature.

    Uses the integral representation of the inverse square root over
    lambda in (0, inf) with the substitution lambda = tan(theta)^2, which
    removes the endpoint singularity analytically:

        (1 + H^2)^(-1/2) = (2/pi) * int_0^(pi/2) sec^2(theta)
                             (sec^2(theta) + H^2)^(-1) dtheta,

    evaluated with the midpoint rule (the integrand extends to a smooth
    periodic function, so the rule converges superalgebraically).  The
    spectral-norm error against the eigh-based exact value is reported.
    """
    if n_nodes < 8:
        raise InvalidInput("n_nodes must be >= 8")
    a = _hermitised(h)
    n = a.shape[0]
    h2 = a @ a
    step = (np.pi / 2.0) / n_nodes
    acc = np.zeros_like(a)
    eye = np.eye(n, dtype=np.complex128)
    for i in range(n_nodes):
        theta = (i + 0.5) * step
        sec2 = 1.0 / np.cos(theta) ** 2
        acc += sec2 * np.linalg.solve(sec2 * eye + h2, eye)
    approx = (2.0 / np.pi) * step * acc
    w, v = eigh(a)
    exact = _hermitised((v * (1.0 / np.sqrt(1.0 + w * w))) @ v.conj().T)
    err = spectral_norm(approx - exact)
    return QuadratureResult(_hermitised(approx), err)


@dataclass(frozen=True)
class TruncationTower:
    """Nested finite compressions of fixed infinite templates.

    ``operator_template(n)`` must return the top-left n x n block of one
    fixed infinite Hermitian matrix T, and each of
    ``perturbation_templates`` likewise for a perturbation R_i.  Nesting is
    verified at instantiation (`tower_instantiate`), once for every
    consumer of the tower.
    """

    dims: tuple
    operator_template: Callable[[int], np.ndarray]
    perturbation_templates: tuple = ()

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0 or any(d <= 0 for d in dims):
            raise InvalidInput("tower dims must be positive integers")
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise InvalidInput("tower dims must be strictly increasing")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "perturbation_templates",
                           tuple(self.perturbation_templates))


def tower_instantiate(tower: TruncationTower, n: int):
    """(T_n, (R_1,n, ..., R_m,n)): the templates' own n x n arrays, after
    checking each against its compression at the next-smaller tower
    dimension.  The arrays are not hermitised here; consumers that
    decompose them do so."""
    if n not in tower.dims:
        raise InvalidInput(f"dim {n} not in tower dims {tower.dims}")
    m = max((d for d in tower.dims if d < n), default=0)
    out = []
    for i, template in enumerate((tower.operator_template,)
                                 + tower.perturbation_templates):
        what = "operator" if i == 0 else f"perturbation {i - 1}"
        a = as_matrix(template(n))
        _check_finite(a, f"{what} template")
        if a.shape[0] != n:
            raise GeneratorError(f"{what} template returned dim {a.shape[0]}, expected {n}")
        if m and not np.array_equal(a[:m, :m], as_matrix(template(m))):
            raise GeneratorError(
                f"nesting violated: top-left {m}x{m} block of the {what} "
                f"template at dim {n} differs from its dim-{m} value")
        out.append(a)
    return out[0], tuple(out[1:])


def resolvent_tails(tower: TruncationTower) -> tuple:
    """Per tower dimension n, the largest over the perturbations of
    ||R_n (T_n - i)^(-1) Pi_tail||, Pi_tail the projection onto the
    coordinates past n/2.

    R is relatively compact against T exactly when R (T - i)^(-1) is
    compact, and on nested truncations that shows as these tails going to
    0 along the tower: tails that fail `tails_vanish` raise
    NotRelativelyCompact.  Every level is instantiated, and so checked for
    nesting, on the way.
    """
    tails = []
    for n in tower.dims:
        t_n, perturbations = tower_instantiate(tower, n)
        eye = np.eye(n, dtype=np.complex128)
        resolvent_tail = np.linalg.solve(t_n - 1j * eye, eye[:, n // 2:])
        tails.append(max((spectral_norm(r_n @ resolvent_tail) for r_n in perturbations),
                         default=0.0))
    if not tails_vanish(tails):
        raise NotRelativelyCompact(
            f"resolvent tails do not decay along the tower: "
            f"{['%.3e' % x for x in tails]}")
    return tuple(tails)


def tails_vanish(tails) -> bool:
    """Whether tail norms measured along a tower go to 0: each is at most
    3/4 of the one before, or at most 1e-8, where rounding sits.  This is
    the one reading of "compact" on a truncation tower: it asks for decay,
    not for a bound that the top dimension must reach.  Fewer than two
    tails show no decay and raise InvalidInput.
    """
    if len(tails) < 2:
        raise InvalidInput(f"need at least two tails to see decay, got {len(tails)}")
    return all(b <= 0.75 * a or b <= 1e-8 for a, b in zip(tails, tails[1:]))


def spectral_norm(m):
    """Largest singular value of a matrix (a float), or of each matrix of a
    stack (an array), from one batched `svd` without vectors: bitwise equal
    to ``np.linalg.norm(x, 2)`` for each such matrix x."""
    s = np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False).max(axis=-1)
    return float(s) if s.ndim == 0 else s


def spectral_gap(h) -> float:
    """min |eigenvalue| of a Hermitian operator (0 for the empty matrix)."""
    w = np.linalg.eigvalsh(_hermitised(h))
    return float(np.abs(w).min()) if w.size else 0.0


# ---------------------------------------------------------------------------
# Stock templates for truncation towers.

def alternating_diag_template(n: int) -> np.ndarray:
    """diag(1, -1, 2, -2, ...): entries +-ceil(j/2) for j = 1..n."""
    j = np.arange(1, n + 1)
    vals = np.where(j % 2 == 1, (j + 1) // 2, -(j // 2)).astype(float)
    return np.diag(vals).astype(np.complex128)


def banded_shift_template(n: int) -> np.ndarray:
    """Symmetric nearest-neighbour hopping band."""
    a = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = 1.0
    a[idx + 1, idx] = 1.0
    return a


def rank_one_template(n: int) -> np.ndarray:
    """theta_{e1,e1}: the rank-one projector on the first coordinate."""
    a = np.zeros((n, n), dtype=np.complex128)
    a[0, 0] = 1.0
    return a


def exp_decay_template(rate: float) -> Callable[[int], np.ndarray]:
    """diag(exp(-j*rate)): compact with exponentially fast tails."""
    def template(n: int) -> np.ndarray:
        return np.diag(np.exp(-rate * np.arange(1.0, n + 1.0))).astype(np.complex128)
    return template


_DECAYING_LENGTH = 4096


def decaying_rank_template(rank: int, rate: float, seed: int) -> Callable[[int], np.ndarray]:
    """Hermitian rank-``rank`` perturbation built from exponentially decaying
    vectors with seeded random phases, for n up to 4096.  The vectors are
    drawn once, when the template is made, and every n truncates the same
    ones, so the template is nested by construction."""
    rng = np.random.default_rng(seed)
    decay = np.exp(-rate * np.arange(1.0, _DECAYING_LENGTH + 1.0))
    # past the underflow of the decay the vectors are exactly zero: keep the
    # rest only, so a template holds a few KB instead of 64 KB per rank
    kept = int(np.count_nonzero(decay))
    vectors = [((rng.standard_normal(_DECAYING_LENGTH)
                 + 1j * rng.standard_normal(_DECAYING_LENGTH)) * decay)[:kept].copy()
               for _ in range(rank)]

    def template(n: int) -> np.ndarray:
        if n > _DECAYING_LENGTH:
            raise InvalidInput(f"decaying_rank_template holds {_DECAYING_LENGTH} "
                               f"coordinates, got n = {n}")
        a = np.zeros((n, n), dtype=np.complex128)
        v = np.zeros(n, dtype=np.complex128)
        for r, vector in enumerate(vectors):
            sign = 1.0 if r % 2 == 0 else -1.0
            v[:kept] = vector[:n]
            a += sign * np.outer(v, v.conj())
        return a
    return template
