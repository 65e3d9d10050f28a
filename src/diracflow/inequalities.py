"""Operator-inequality suites over seeded random matrices and towers.

Each check_* function turns one operator-theoretic statement into a
deterministic predicate: interpolation bounds for conjugated norms, the
quantitative 4-epsilon stability of the bounded transform under
resolvent-small perturbations, the relative-bound schedule ||R psi|| <=
eps ||T psi|| + eps*n ||psi||, and the compactness statements for
functional-calculus differences f(T+R) - f(T).

Compactness has no literal finite-dimensional meaning, so it is
operationalized as tail decay along nested truncation towers, decided by
the one rule `opcore.tails_vanish`; every report states the proxy norms
it measured rather than claiming the operator-theoretic statement
itself.  A functional-calculus tower whose differences are not compact
fails its check.  A non-compact template, or an oversized epsilon, fails
a precondition: a skip (HypothesisUnmet), never reported as a violation
of the inequalities.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import (
    HypothesisUnmet,
    InvalidInput,
    NotInvertible,
    NotRelativelyCompact,
)
from .opcore import (
    TruncationTower,
    _hermitised,
    _projection_above,
    _transform_of,
    as_matrix,
    bounded_transform,
    eigh,
    resolvent_tails,
    spectral_norm,
    tails_vanish,
    tower_instantiate,
)

__all__ = [
    "random_hermitian_stack",
    "random_unitary",
    "check_compact_strong_convergence",
    "CompactConvergenceReport",
    "PositiveDecomposition",
    "positive_decomposition",
    "check_interpolation_stack",
    "InterpolationReport",
    "check_conjugation_stack",
    "ConjugationReport",
    "check_stability_stack",
    "StabilityReport",
    "resolvent_at_i",
    "scale_perturbation_stack",
    "check_relative_bound_schedule",
    "ScheduleReport",
    "check_functional_calculus_tails",
    "TailReport",
]


def _phase_fixed_q(a: np.ndarray) -> np.ndarray:
    """Q of the QR decomposition of a matrix, or of each matrix of a stack,
    with the phase convention that makes the factorization unique."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Gaussian matrix."""
    return _phase_fixed_q(rng.standard_normal((dim, dim))
                          + 1j * rng.standard_normal((dim, dim)))


def random_hermitian_stack(seeds: Sequence[int], dim: int,
                           envelope: Tuple[float, float] = (-1.0, 1.0)) -> np.ndarray:
    """Seeded random Hermitian dim x dim operators with eigenvalues in
    ``envelope`` = (lo, hi), one per seed, as a hermitised stack
    (m, dim, dim).  Identical seeds reproduce the operators bitwise.

    Each seed draws from its own generator: a complex Gaussian matrix, whose
    phase-fixed QR factor is U, then the eigenvalues w.  The QR, the phase
    fix and the product U diag(w) U* run once for the stack, matrix by
    matrix bitwise equal to a stack of one.
    """
    if dim <= 0:
        raise InvalidInput("dim must be positive")
    if not envelope[0] <= envelope[1]:
        raise InvalidInput("envelope must be ordered (lo, hi)")
    gauss = np.empty((len(seeds), dim, dim), dtype=np.complex128)
    w = np.empty((len(seeds), dim))
    for j, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        gauss[j] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        w[j] = rng.uniform(*envelope, size=dim)
    u = _phase_fixed_q(gauss)
    return _hermitised((u * w[:, None, :]) @ u.conj().swapaxes(-1, -2), stack=True)


def _stack(x, like=None, what="") -> np.ndarray:
    """The (m, n, n) stack behind a matrix (m = 1) or a stack; with
    ``like``, it must have like's shape."""
    a = as_matrix(x, stack=True)
    a = a[None] if a.ndim == 2 else a
    if like is not None and a.shape != like.shape:
        raise InvalidInput(f"{what} has shape {a.shape}, expected {like.shape}")
    return a


# ---------------------------------------------------------------------------
# Strong convergence composed with a compact template.

# The compact template is embedded at this multiple of the largest dim.
_AMBIENT_FACTOR = 2


@dataclass(frozen=True)
class CompactConvergenceReport:
    dims: tuple
    right_norms: tuple      # ||K (1 - Pi_n)||


def check_compact_strong_convergence(dims: Sequence[int],
                                     template: Callable[[int], np.ndarray]
                                     ) -> CompactConvergenceReport:
    """Tail norms of a Hermitian compact template against coordinate
    projections.

    Embeds everything at the ambient dimension 2 * max(dims) and measures
    ||K (1 - Pi_n)|| along the tower, where 1 - Pi_n keeps the coordinates
    from n on: K's columns from n on.  The template must be exactly
    Hermitian (InvalidInput otherwise), as the stock templates are by
    construction, so this also equals ||(1 - Pi_n) K||.
    The sequence must pass `opcore.tails_vanish`; otherwise the template
    is not compact, the hypothesis fails and HypothesisUnmet is raised.
    """
    dims = tuple(int(d) for d in dims)
    ambient = _AMBIENT_FACTOR * max(dims)
    k = np.asarray(template(ambient), dtype=np.complex128)
    if not np.array_equal(k, k.conj().T):
        raise InvalidInput("template is not Hermitian: K != K*")
    right = [spectral_norm(k[:, n:]) for n in dims]
    if not tails_vanish(right):
        raise HypothesisUnmet(f"template is not compact: tail norms "
                              f"{['%.3e' % x for x in right]}")
    return CompactConvergenceReport(dims=dims, right_norms=tuple(right))


# ---------------------------------------------------------------------------
# Interpolation inequalities for conjugated norms.

class PositiveDecomposition(NamedTuple):
    """A stack of positive definite T with its certified eigenpairs and
    T^(-1/2), taken once for both conjugated-norm checks."""

    t: np.ndarray           # (m, n, n), as given
    w: np.ndarray           # (m, n) eigenvalues, ascending, all >= 1e-8
    v: np.ndarray           # (m, n, n) eigenvectors
    half_inv: np.ndarray    # (m, n, n) T^(-1/2)


def positive_decomposition(t, trials) -> PositiveDecomposition:
    """Decompose a positive definite T, or each matrix of a stack, by one
    certified `eigh`.  ``trials[j]`` is the trial number of matrix j; a
    matrix with an eigenvalue below 1e-8 raises InvalidInput naming it."""
    tm = _stack(t)
    w, v = eigh(tm)
    low = w.min(axis=1)
    bad = np.flatnonzero(low < 1e-8)
    if bad.size:
        j = bad[0]
        raise InvalidInput(f"T must be positive definite (trial {int(trials[j])}: "
                           f"min eig {low[j]:.3e})")
    half_inv = (v * (1.0 / np.sqrt(w))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return PositiveDecomposition(tm, w, v, half_inv)


@dataclass(frozen=True)
class InterpolationReport:
    """A stack's measurements, one array entry per trial."""

    lhs: np.ndarray         # ||T^(-1/2) S T^(-1/2)||
    rhs: np.ndarray         # ||S T^(-1)||
    conj_equal_residual: np.ndarray  # | ||T S T^(-1)|| - ||T^(-1) S T|| | (relative)
    adjoint_residual: np.ndarray     # ||(T^(-1) S T)* - T S T^(-1)|| (relative)
    passed: np.ndarray

    @property
    def margin(self):
        """rhs - lhs: how far the inequality holds (negative: violated)."""
        return self.rhs - self.lhs


# The two conjugated-norm inequalities may miss by this share of max(1,
# the larger side): rounding in the norms, not a violation.
_SLACK = 1e-10


def check_interpolation_stack(pos: PositiveDecomposition, s) -> InterpolationReport:
    """||T^(-1/2) S T^(-1/2)|| <= ||S T^(-1)|| for positive invertible T,
    for every trial of a stack at once: trial j pairs T = pos.t[j] with
    S = s[j], and each field of the report is an array over the trials.

    Also asserts the norm equality ||T S T^(-1)|| = ||T^(-1) S T|| (1e-9
    relative) and the adjoint identity (T^(-1) S T)* = T S T^(-1) (1e-10
    relative), which cover the domain-theoretic parts that are automatic
    in finite dimensions.

    The inequality is scale-invariant in T (both sides pick up the same
    1/c under T -> cT), so no normalization ||T^(-1)|| <= 1 is needed.
    """
    w, v, tm = pos.w, pos.v, pos.t
    sm = _stack(s, tm, "S")
    t_inv = (v * (1.0 / w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    lhs = spectral_norm(pos.half_inv @ sm @ pos.half_inv)
    rhs = spectral_norm(sm @ t_inv)
    scale = np.maximum(1.0, rhs)
    tst = tm @ sm @ t_inv
    tst_rev = t_inv @ sm @ tm
    conj_resid = np.abs(spectral_norm(tst) - spectral_norm(tst_rev)) / scale
    adj_resid = spectral_norm(tst_rev.conj().swapaxes(-1, -2) - tst) / scale
    passed = (lhs <= rhs + _SLACK * scale) & (conj_resid <= 1e-9) & (adj_resid <= 1e-10)
    return InterpolationReport(lhs=lhs, rhs=rhs, conj_equal_residual=conj_resid,
                               adjoint_residual=adj_resid, passed=passed)


@dataclass(frozen=True)
class ConjugationReport:
    """A stack's measurements, one array entry per trial."""

    norm_f: np.ndarray
    conjugated_norm: np.ndarray  # ||T^(-1/2) F T^(1/2)||
    reverse_equal_residual: np.ndarray
    passed: np.ndarray

    @property
    def margin(self):
        """||T^(-1/2) F T^(1/2)|| - ||F|| (negative: violated)."""
        return self.conjugated_norm - self.norm_f


def check_conjugation_stack(pos: PositiveDecomposition, f) -> ConjugationReport:
    """||F|| <= ||T^(-1/2) F T^(1/2)|| for positive invertible T and
    Hermitian F, with the two conjugated norms equal (1e-9 relative), for
    every trial of a stack at once: trial j pairs T = pos.t[j] with
    F = f[j]."""
    w, v = pos.w, pos.v
    fm = _stack(f, pos.t, "F")
    t_h = (v * np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    fwd = spectral_norm(pos.half_inv @ fm @ t_h)
    rev = spectral_norm(t_h @ fm @ pos.half_inv)
    norm_f = spectral_norm(fm)
    scale = np.maximum(1.0, fwd)
    resid = np.abs(fwd - rev) / scale
    passed = (norm_f <= fwd + _SLACK * scale) & (resid <= 1e-9)
    return ConjugationReport(norm_f=norm_f, conjugated_norm=fwd,
                             reverse_equal_residual=resid, passed=passed)


# ---------------------------------------------------------------------------
# Quantitative stability of the bounded transform.

@dataclass(frozen=True)
class StabilityReport:
    """A stack's measurements, one array entry per trial."""

    eps: float
    hypothesis_norms: tuple      # the two resolvent-smallness norms, each an array
    transform_diff: np.ndarray   # ||F_T - F_Tn||
    bound: float                 # 4 * eps
    passed: np.ndarray

    @property
    def margin(self):
        """4 eps - ||F_T - F_Tn|| (negative: violated)."""
        return self.bound - self.transform_diff


def resolvent_at_i(t) -> np.ndarray:
    """(T + i)^(-1) of each matrix of a stack (m, n, n), in one batched
    `inv`; a single matrix gives a stack of one."""
    tm = _stack(t)
    return np.linalg.inv(tm + 1j * np.eye(tm.shape[-1], dtype=np.complex128))


# The scaled perturbation's resolvent-smallness norms sit at this share of eps.
_SAFETY = 0.999


def scale_perturbation_stack(t, r_raw, eps: float, res) -> np.ndarray:
    """Scale a raw Hermitian perturbation so both resolvent-smallness norms
    sit just below eps, for every trial of a stack at once, as a
    hermitised stack.  ``res`` is `resolvent_at_i` of ``t``."""
    tm = _stack(t)
    rm = _stack(r_raw, tm, "R")
    worst = np.maximum(spectral_norm(rm @ res), spectral_norm(res @ rm))
    zero = worst == 0.0
    factor = np.where(zero, 1.0, _SAFETY * eps / np.where(zero, 1.0, worst))
    return _hermitised(rm * factor[:, None, None], stack=True)


def check_stability_stack(t, t_n, eps: float, res, f_t, trials) -> StabilityReport:
    """||F_T - F_Tn|| <= 4*eps whenever both resolvent-smallness norms
    ||(T - Tn)(T + i)^(-1)|| and ||(T + i)^(-1)(T - Tn)|| are <= eps < 1/2,
    for every trial of a stack at once: trial j, numbered ``trials[j]``,
    compares T = t[j] with Tn = t_n[j].

    ``res`` and ``f_t`` are (T + i)^(-1) (`resolvent_at_i`) and F_T
    (`opcore.bounded_transform`) of ``t``, taken once for every eps.  The
    hypothesis norms are always measured on T - Tn.  Unmet hypotheses
    (eps >= 1/2 or oversized norms) raise HypothesisUnmet, naming the
    trial, and are never counted as violations of the bound.
    """
    if not eps < 0.5:
        raise HypothesisUnmet(f"eps = {eps:g} is not < 1/2")
    tm = _stack(t)
    tnm = _stack(t_n, tm, "Tn")
    diff = tm - tnm
    h1 = spectral_norm(diff @ res)
    h2 = spectral_norm(res @ diff)
    over = np.flatnonzero(np.maximum(h1, h2) > eps)
    if over.size:
        j = over[0]
        raise HypothesisUnmet(
            f"trial {int(trials[j])}: resolvent-smallness norms "
            f"({h1[j]:.3e}, {h2[j]:.3e}) exceed eps={eps:g}")
    dist = spectral_norm(f_t - bounded_transform(tnm))
    return StabilityReport(eps=eps, hypothesis_norms=(h1, h2),
                           transform_diff=dist, bound=4.0 * eps,
                           passed=dist <= 4.0 * eps)


# ---------------------------------------------------------------------------
# Relative-bound schedule.

def _one_perturbation(tower: TruncationTower, n: int):
    """(T_n, R_n) of a tower with exactly one perturbation template."""
    t_n, perturbations = tower_instantiate(tower, n)
    if len(perturbations) != 1:
        raise InvalidInput(
            f"need a tower with one perturbation, got {len(perturbations)}")
    return t_n, perturbations[0]


# The schedule tests this many seeded vectors per eps, and gives up on
# shifts n beyond _SHIFT_CAP.
_N_VECTORS = 100
_SHIFT_CAP = 10 ** 6


@dataclass(frozen=True)
class ScheduleReport:
    entries: tuple          # per eps: (eps, n, C = eps*n, worst slack)
    tail_norms: tuple       # per tower dim: `resolvent_tails`, at the shift i
    passed: bool


def check_relative_bound_schedule(tower: TruncationTower,
                                  eps_list: Sequence[float], seed: int = 0) -> ScheduleReport:
    """Verify ||R psi|| <= eps ||T psi|| + eps*n ||psi|| with the minimal
    integer n <= 10^6 making ||R (T - i n)^(-1)|| < eps.

    T and R are the operator and the one perturbation of ``tower``.  The
    schedule runs at the base tower dimension on 100 test vectors per eps,
    drawn from ``seed``.  The tower first has to pass
    `opcore.resolvent_tails`, the relative-compactness test at the shift i:
    the tails ||R (T - i)^(-1) Pi_tail|| past n/2 must decay along the
    tower, otherwise NotRelativelyCompact is raised.
    """
    base = tower.dims[0]
    tm, rm = _one_perturbation(tower, base)
    tails = resolvent_tails(tower)

    def res_norm(n_shift):
        """||R (T - i n)^(-1)|| at the base dimension."""
        return spectral_norm(rm @ np.linalg.inv(tm - 1j * n_shift * np.eye(base)))

    rng = np.random.default_rng(seed)
    entries = []
    for eps in eps_list:
        n_hi = 1
        while res_norm(n_hi) >= eps:
            n_hi *= 2
            if n_hi > _SHIFT_CAP:
                raise NotRelativelyCompact(
                    f"no shift below {_SHIFT_CAP} achieves resolvent norm < {eps:g}")
        n_lo = n_hi // 2 if n_hi > 1 else 1
        while n_lo < n_hi:
            mid = (n_lo + n_hi) // 2
            if res_norm(mid) < eps:
                n_hi = mid
            else:
                n_lo = mid + 1
        n_min = n_hi
        c_eps = eps * n_min
        worst = -np.inf
        for _ in range(_N_VECTORS):
            psi = rng.standard_normal(base) + 1j * rng.standard_normal(base)
            lhs = float(np.linalg.norm(rm @ psi))
            rhs = eps * float(np.linalg.norm(tm @ psi)) \
                + c_eps * float(np.linalg.norm(psi))
            worst = max(worst, lhs - rhs)
        entries.append((float(eps), n_min, c_eps, worst))
    passed = all(worst <= 1e-10 for (_, _, _, worst) in entries)
    return ScheduleReport(entries=tuple(entries), tail_norms=tails, passed=passed)


# ---------------------------------------------------------------------------
# Functional-calculus tails along a tower.

# The functional-calculus tails compare ordered singular values beyond the
# first _STRUCTURAL_RANK, and the hard step needs T and T+R gapped by at
# least _GAP_FLOOR.
_STRUCTURAL_RANK = 8
_GAP_FLOOR = 1e-3


@dataclass(frozen=True)
class TailReport:
    dims: tuple
    tail_norms: dict         # per function label: tuple of tail norms
    sigma_comparisons: dict  # per label: True when ordered decay holds
    resolvent_residual: float
    passed: bool


def check_functional_calculus_tails(tower: TruncationTower) -> TailReport:
    """Tail decay of f(T+R) - f(T) along a tower, for f the bounded
    transform, the resolvents (x +- i)^(-1), and the hard step at 0; T and
    R are the operator and the one perturbation of ``tower``.

    Per dimension the tails ||(f(T+R) - f(T)) Pi_(>n/2)|| are recorded,
    and each f's tails must pass `opcore.tails_vanish`: a converged tower's
    tails sit at rounding (2.4e-15 to 4.2e-15 at n = 64 and 128 on the
    appendix scenario's tower), below its 1e-8.

    The ordered singular values beyond the first 8 must not grow from one
    dimension to the next (slack 1e-8), and the exact resolvent identity
    (T+R+-i)^(-1) - (T+-i)^(-1) = -(T+R+-i)^(-1) R (T+-i)^(-1) must hold
    to 1e-12.  The hard-step leg requires both T and T+R invertible with
    gap >= 1e-3.  Per dimension, one certified `eigh` of T and one of T+R
    give the gap test, F and the step.
    """
    dims = tower.dims
    labels = ("bounded-transform", "resolvent", "step")
    tails = {lab: [] for lab in labels}
    sigmas = {lab: [] for lab in labels}
    resolvent_residual = 0.0
    for n in dims:
        tn, rn = _one_perturbation(tower, n)
        tr = tn + rn
        # the resolvents at +-i (the tail is taken at +i) are dropped before
        # the eigh of T and T+R, so that fewer n x n arrays are alive at
        # once: this check sets the appendix scenario's peak memory
        diffs = {}
        eye = np.eye(n, dtype=np.complex128)
        for sign in (1j, -1j):
            inv_tr, inv_tn = np.linalg.inv(tr + sign * eye), np.linalg.inv(tn + sign * eye)
            diff = inv_tr - inv_tn
            resolvent_residual = max(resolvent_residual, spectral_norm(
                diff + inv_tr @ rn @ inv_tn))
            diffs.setdefault("resolvent", diff)
        del eye, inv_tr, inv_tn, diff
        # F and the step of T (entry 0) and of T+R (entry 1), one eigh each
        transforms, steps = [], []
        for m, label in ((tn, "T"), (tr, "T+R")):
            w, v = eigh(m)
            try:
                steps.append(_projection_above(w, v, 0.0, _GAP_FLOOR).entries)
            except NotInvertible as exc:
                raise NotInvertible(
                    f"{label} at dim {n} has gap below {_GAP_FLOOR:g}; "
                    f"the hard-step leg needs invertibility") from exc
            transforms.append(_transform_of(w, v))
        diffs["bounded-transform"] = transforms[1] - transforms[0]
        diffs["step"] = steps[1] - steps[0]
        for lab in labels:
            # the columns past n/2: the difference times Pi_(>n/2)
            tails[lab].append(spectral_norm(diffs[lab][:, n // 2:]))
            sigmas[lab].append(np.linalg.svd(diffs[lab], compute_uv=False))
    # the dims increase, so each earlier list is the shorter
    sigma_ok = {lab: all(not np.any(b[_STRUCTURAL_RANK:a.size] > a[_STRUCTURAL_RANK:] + 1e-8)
                         for a, b in zip(seq, seq[1:]))
                for lab, seq in sigmas.items()}
    tails_ok = all(tails_vanish(seq) for seq in tails.values())
    passed = tails_ok and all(sigma_ok.values()) and resolvent_residual <= 1e-12
    return TailReport(dims=dims,
                      tail_norms={lab: tuple(v) for lab, v in tails.items()},
                      sigma_comparisons=sigma_ok,
                      resolvent_residual=resolvent_residual,
                      passed=passed)
