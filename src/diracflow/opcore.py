"""Dense Hermitian matrix backbone.

Everything downstream (spectral flow, index extraction, hypersurface
pairings) reduces to a handful of primitives implemented here: Hermitian
eigendecomposition, functional calculus f(H) = V f(L) V*, the bounded
transform H(1+H^2)^(-1/2), hard spectral projections, SVD-based numerical
rank with gap detection, a quadrature route to (1+H^2)^(-1/2), and nested
truncation towers that give finite-dimensional meaning to compactness.

Conventions: complex128 throughout; all tolerances are relative to
max(1, ||input||); reductions are plain left-to-right numpy reductions so
repeated runs in one process are bitwise reproducible.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    AmbiguousRank,
    DomainError,
    GeneratorError,
    InvalidInput,
    NotInvertible,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "HermitianOperator",
    "Projection",
    "TruncationTower",
    "as_hermitian",
    "as_matrix",
    "eigh",
    "apply_function",
    "bounded_transform",
    "positive_projection",
    "null_space",
    "NullSpaceResult",
    "inv_sqrt_via_quadrature",
    "QuadratureResult",
    "tower_instantiate",
    "tail_projector",
    "spectral_norm",
    "spectral_gap",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across all modules.

    eig_tol              eigendecomposition residual bound
    svd_gap_cap          singular values below cap*sigma_max are kernel candidates
    rank_rel_tol         absolute fallback threshold, relative to sigma_max
    proj_gap_tol         minimal spectral gap for a stable positive projection
    integer_residual_tol maximal distance of a trace from the nearest integer
    """

    eig_tol: float = 1e-10
    svd_gap_cap: float = 1e-6
    rank_rel_tol: float = 1e-8
    proj_gap_tol: float = 1e-8
    integer_residual_tol: float = 1e-6

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not getattr(self, name) > 0.0:
                raise InvalidInput(f"tolerance {name} must be strictly positive")


DEFAULT_TOL = Tolerances()


def _check_finite(a, what="matrix"):
    if not np.isfinite(a).all():
        raise InvalidInput(f"{what} has non-finite entries")


def as_matrix(x) -> np.ndarray:
    """Return the complex matrix behind ``x`` (HermitianOperator, Projection
    or plain array-like)."""
    if isinstance(x, (HermitianOperator, Projection)):
        return x.entries
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return a


def _hermitised(h) -> np.ndarray:
    """(A + A*)/2 of the finite-checked matrix A behind ``h``.  Exact on an
    already hermitised A, so a HermitianOperator passes through unchanged."""
    a = as_matrix(h)
    _check_finite(a, "operator")
    return (a + a.conj().T) / 2.0


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

    Construction validates ||P^2 - P||_F <= 1e-10 and ||P - P*||_F <= 1e-10
    (Frobenius norms, upper bounds of the spectral ones); degraded inputs
    are rejected rather than repaired.
    """

    __slots__ = ("entries", "dim", "idem_residual", "herm_residual")

    def __init__(self, entries):
        p = as_matrix(entries)
        _check_finite(p, "projection")
        self.herm_residual = float(np.linalg.norm(p - p.conj().T))
        self.idem_residual = float(np.linalg.norm(p @ p - p))
        if self.herm_residual > 1e-10:
            raise InvalidInput(
                f"projection is not Hermitian: ||P - P*||_F = {self.herm_residual:.3e}")
        if self.idem_residual > 1e-10:
            raise InvalidInput(
                f"projection is not idempotent: ||P^2 - P||_F = {self.idem_residual:.3e}")
        self.entries = (p + p.conj().T) / 2.0
        self.dim = p.shape[0]

    @classmethod
    def zero(cls, dim):
        return cls(np.zeros((dim, dim), dtype=np.complex128))

    def rank(self) -> int:
        return int(round(float(np.trace(self.entries).real)))

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank()})"


def as_hermitian(x) -> HermitianOperator:
    return x if isinstance(x, HermitianOperator) else HermitianOperator(as_matrix(x))


def eigh(h, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian operator.

    Returns (eigenvalues ascending, unitary eigenvector matrix V) with
    H V = V diag(w).  The residual ||H V - V diag(w)||_F relative to
    max(1, max |w|) and the unitarity defect ||V* V - 1||_F are checked
    against ``tol.eig_tol``.
    """
    a = _hermitised(h)
    w, v = np.linalg.eigh(a)
    scale = max(1.0, float(np.abs(w).max()) if w.size else 1.0)
    resid = float(np.linalg.norm(a @ v - v * w)) / scale
    unit = float(np.linalg.norm(v.conj().T @ v - np.eye(a.shape[0])))
    if resid > tol.eig_tol or unit > tol.eig_tol:
        raise InvalidInput(
            f"eigendecomposition residual {resid:.3e} / unitarity {unit:.3e} "
            f"exceed eig_tol={tol.eig_tol:.1e}")
    return w, v


def apply_function(h, f: Callable[[float], float], tol: Tolerances = DEFAULT_TOL):
    """Continuous functional calculus: f(H) = V f(diag) V*.

    ``f`` is a real scalar rule sampled at the eigenvalues; a non-finite
    value at any eigenvalue raises DomainError.
    """
    w, v = eigh(h, tol)
    try:
        fw = np.array([float(f(x)) for x in w], dtype=float)
    except (ArithmeticError, ValueError) as exc:
        raise DomainError(f"function undefined at an eigenvalue: {exc}") from exc
    if not np.all(np.isfinite(fw)):
        bad = w[~np.isfinite(fw)]
        raise DomainError(f"function non-finite at eigenvalues {bad}")
    return HermitianOperator((v * fw) @ v.conj().T)


def bounded_transform(h, tol: Tolerances = DEFAULT_TOL):
    """The contraction H (1 + H^2)^(-1/2); its spectrum lies in (-1, 1)."""
    return apply_function(h, lambda x: x / np.sqrt(1.0 + x * x), tol)


def positive_projection(h, gap_tol: Optional[float] = None,
                        tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Hard spectral projection onto (0, inf).

    Requires a spectral gap: no eigenvalue may lie in (-gap_tol, gap_tol),
    otherwise NotInvertible is raised.  The hard step at 0 is legitimate
    exactly because every caller guarantees such a gap.
    """
    if gap_tol is None:
        gap_tol = tol.proj_gap_tol
    w, v = eigh(h, tol)
    if w.size and float(np.abs(w).min()) < gap_tol:
        raise NotInvertible(
            f"eigenvalue {w[np.abs(w).argmin()]:.3e} inside gap (+-{gap_tol:.1e})")
    mask = (w > 0.0).astype(float)
    return Projection((v * mask) @ v.conj().T)


class NullSpaceResult(NamedTuple):
    basis: np.ndarray          # (n, dim) orthonormal kernel basis
    dim: int                   # numerical kernel dimension
    singular_values: np.ndarray  # descending
    gap_ratio: float           # confidence diagnostic (>= 10 means decisive)
    threshold: float


def _kernel_cut(s: np.ndarray, cap: float, fallback_rel: float):
    """Choose a kernel cut in the descending singular values ``s``.

    The cut is placed at the largest multiplicative jump whose lower side
    sits below ``cap * s[0]``; if no candidate jump exists, the absolute
    level ``fallback_rel * s[0]`` is used.  Returns (kernel_dim, gap_ratio,
    threshold, candidates) where candidates collects the competing kernel
    dimensions when the decision is ambiguous.
    """
    n = s.size
    if n == 0:
        return 0, float("inf"), 0.0, ()
    smax = float(s[0])
    if smax == 0.0:
        return n, float("inf"), 0.0, ()
    cap_level = cap * smax
    if float(s[-1]) > cap_level:
        # clean full rank: nothing remotely small
        return 0, float("inf"), fallback_rel * smax, ()
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
    # fallback: absolute level
    thr = fallback_rel * smax
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


def null_space(m, tol: Tolerances = DEFAULT_TOL, want_basis=True) -> NullSpaceResult:
    """Numerical kernel of a rectangular complex matrix via SVD.

    The kernel dimension is the number of singular values below a
    threshold placed at the largest relative gap among the small singular
    values (below ``svd_gap_cap * sigma_max``), falling back to the
    absolute level ``rank_rel_tol * sigma_max``.  A gap ratio below 10
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
    small, ratio, thr, candidates = _kernel_cut(s, tol.svd_gap_cap, tol.rank_rel_tol)
    if candidates:
        raise AmbiguousRank(
            f"no decisive singular-value gap (ratio {ratio:.2f} < 10); "
            f"candidate kernel dims {tuple(c + ncols - s.size for c in candidates)}",
            candidates=tuple(c + ncols - s.size for c in candidates),
            gap_ratio=ratio, singular_values=s)
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
    operator: HermitianOperator
    error: float        # spectral-norm distance to the eigh-based exact value
    n_nodes: int


def inv_sqrt_via_quadrature(h, n_nodes: int, tol: Tolerances = DEFAULT_TOL) -> QuadratureResult:
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
    hop = as_hermitian(h)
    a = hop.entries
    n = hop.dim
    h2 = a @ a
    step = (np.pi / 2.0) / n_nodes
    acc = np.zeros_like(a)
    eye = np.eye(n, dtype=np.complex128)
    for i in range(n_nodes):
        theta = (i + 0.5) * step
        sec2 = 1.0 / np.cos(theta) ** 2
        acc += sec2 * np.linalg.solve(sec2 * eye + h2, eye)
    approx = (2.0 / np.pi) * step * acc
    exact = apply_function(hop, lambda x: 1.0 / np.sqrt(1.0 + x * x), tol)
    err = float(np.linalg.norm(approx - exact.entries, 2))
    return QuadratureResult(HermitianOperator(approx), err, n_nodes)


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


def tail_projector(n: int, start: int) -> np.ndarray:
    """The real n x n coordinate projection onto e_start, ..., e_(n-1)."""
    p = np.zeros((n, n))
    p[start:, start:] = np.eye(n - start)
    return p


def spectral_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=np.complex128), 2))


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


def decaying_rank_template(rank: int, rate: float, seed: int) -> Callable[[int], np.ndarray]:
    """Hermitian rank-``rank`` perturbation built from exponentially decaying
    vectors with seeded random phases; nested by construction."""
    def template(n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        a = np.zeros((n, n), dtype=np.complex128)
        for r in range(rank):
            # draw a long vector once per rank index so truncations nest
            raw = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
            sign = 1.0 if r % 2 == 0 else -1.0
            v = raw[:n] * np.exp(-rate * np.arange(1.0, n + 1.0))
            a += sign * np.outer(v, v.conj())
        return a
    return template
