"""Operator-inequality suites over seeded random matrices and towers.

Each check_* function turns one operator-theoretic statement into a
deterministic predicate: interpolation bounds for conjugated norms, the
quantitative 4-epsilon stability of the bounded transform under
resolvent-small perturbations, the relative-bound schedule ||R psi|| <=
eps ||T psi|| + eps*n ||psi||, and the compactness statements for
functional-calculus differences f(T+R) - f(T).

Compactness has no literal finite-dimensional meaning, so it is
operationalized as tail decay along nested truncation towers with
explicit rates; every report states the proxy norms it measured rather
than claiming the operator-theoretic statement itself.  Negative controls
(non-compact templates, oversized epsilon) fail their preconditions and
are never reported as violations of the inequalities.
"""

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import (
    CompactTemplateInvalid,
    HypothesisUnmet,
    InvalidInput,
    NotInvertible,
    NotRelativelyCompact,
)
from .opcore import (
    DEFAULT_TOL,
    HermitianOperator,
    Tolerances,
    as_matrix,
    bounded_transform,
    eigh,
    positive_projection,
    spectral_gap,
    spectral_norm,
)

__all__ = [
    "RandomSpec",
    "random_hermitian",
    "random_unitary",
    "check_compact_strong_convergence",
    "CompactConvergenceReport",
    "check_interpolation_inequality",
    "InterpolationReport",
    "check_conjugation_norm_bound",
    "ConjugationReport",
    "check_bounded_transform_stability",
    "StabilityReport",
    "scale_perturbation_to_eps",
    "check_relative_bound_schedule",
    "ScheduleReport",
    "check_functional_calculus_tails",
    "TailReport",
]


@dataclass(frozen=True)
class RandomSpec:
    """Deterministic recipe for a dense random Hermitian operator.

    Identical seed and spec reproduce the operator bitwise within one
    process (plain numpy reductions, fixed call order).
    """

    seed: int
    dim: int
    envelope: Tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidInput("dim must be positive")
        if not self.envelope[0] <= self.envelope[1]:
            raise InvalidInput("envelope must be ordered (lo, hi)")


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Gaussian matrix,
    with the phase convention that makes the factorization unique."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(spec: RandomSpec) -> HermitianOperator:
    """Seeded random Hermitian operator with eigenvalues in the envelope."""
    rng = np.random.default_rng(spec.seed)
    u = random_unitary(rng, spec.dim)
    w = rng.uniform(*spec.envelope, size=spec.dim)
    return HermitianOperator((u * w) @ u.conj().T)


# ---------------------------------------------------------------------------
# Strong convergence composed with a compact template.

@dataclass(frozen=True)
class CompactConvergenceReport:
    dims: tuple
    right_norms: tuple      # ||K (Pi_n - 1)||
    left_norms: tuple       # ||(Pi_n - 1) K||
    final_bound: float
    passed: bool


def check_compact_strong_convergence(dims: Sequence[int],
                                     template: Callable[[int], np.ndarray],
                                     ambient_factor: int = 2,
                                     tail_bound: float = 1e-6) -> CompactConvergenceReport:
    """Tail norms of a compact template against coordinate projections.

    Embeds everything at an ambient dimension ambient_factor * max(dims)
    and measures ||K (Pi_n - 1)|| and ||(Pi_n - 1) K|| along the tower.
    Both sequences must decay monotonically (within factor 2) and the
    final values must fall below ``tail_bound``; otherwise the template is
    rejected as CompactTemplateInvalid.
    """
    dims = tuple(int(d) for d in dims)
    ambient = ambient_factor * max(dims)
    k = np.asarray(template(ambient), dtype=np.complex128)
    right, left = [], []
    for n in dims:
        co = np.zeros((ambient, ambient))
        co[n:, n:] = np.eye(ambient - n)
        right.append(spectral_norm(k @ co))
        left.append(spectral_norm(co @ k))
    for seq in (right, left):
        monotone = all(b <= 2.0 * a + 1e-15 for a, b in zip(seq, seq[1:]))
        decayed = seq[-1] <= tail_bound
        if not (monotone and decayed):
            raise CompactTemplateInvalid(
                f"no tail decay: norms {['%.3e' % x for x in seq]} "
                f"(bound {tail_bound:.1e})")
    return CompactConvergenceReport(dims=dims, right_norms=tuple(right),
                                    left_norms=tuple(left),
                                    final_bound=tail_bound, passed=True)


# ---------------------------------------------------------------------------
# Interpolation inequalities for conjugated norms.

@dataclass(frozen=True)
class InterpolationReport:
    lhs: float              # ||T^(-1/2) S T^(-1/2)||
    rhs: float              # ||S T^(-1)||
    conj_equal_residual: float   # | ||T S T^(-1)|| - ||T^(-1) S T|| | (relative)
    adjoint_residual: float      # ||(T^(-1) S T)* - T S T^(-1)|| (relative)
    normalized: bool
    passed: bool


def check_interpolation_inequality(t, s, tol: Tolerances = DEFAULT_TOL,
                                   slack: float = 1e-10) -> InterpolationReport:
    """||T^(-1/2) S T^(-1/2)|| <= ||S T^(-1)|| for positive invertible T.

    Also asserts the norm equality ||T S T^(-1)|| = ||T^(-1) S T|| (1e-9
    relative) and the adjoint identity (T^(-1) S T)* = T S T^(-1) (1e-10
    relative), which cover the domain-theoretic parts that are automatic
    in finite dimensions.

    The inequality is scale-invariant in T (both sides pick up the same
    1/c under T -> cT), so no normalization ||T^(-1)|| <= 1 is needed;
    the report still records whether the input happened to be normalized.
    """
    tm = as_matrix(t)
    sm = as_matrix(s)
    w, v = eigh(tm, tol)
    if w.min() < 1e-8:
        raise InvalidInput(f"T must be positive definite (min eig {w.min():.3e})")
    t_inv = (v * (1.0 / w)) @ v.conj().T
    t_half_inv = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    lhs = spectral_norm(t_half_inv @ sm @ t_half_inv)
    rhs = spectral_norm(sm @ t_inv)
    scale = max(1.0, rhs)
    tst = tm @ sm @ t_inv
    tst_rev = t_inv @ sm @ tm
    conj_resid = abs(spectral_norm(tst) - spectral_norm(tst_rev)) / scale
    adj_resid = spectral_norm(tst_rev.conj().T - tst) / scale
    passed = (lhs <= rhs + slack * scale) and conj_resid <= 1e-9 \
        and adj_resid <= 1e-10
    return InterpolationReport(lhs=lhs, rhs=rhs,
                               conj_equal_residual=conj_resid,
                               adjoint_residual=adj_resid,
                               normalized=bool(w.min() >= 1.0),
                               passed=passed)


@dataclass(frozen=True)
class ConjugationReport:
    norm_f: float
    conjugated_norm: float       # ||T^(-1/2) F T^(1/2)||
    reverse_equal_residual: float
    passed: bool


def check_conjugation_norm_bound(t, f, tol: Tolerances = DEFAULT_TOL,
                                 slack: float = 1e-10) -> ConjugationReport:
    """||F|| <= ||T^(-1/2) F T^(1/2)|| for positive invertible T and
    Hermitian F, with the two conjugated norms equal (1e-9 relative)."""
    tm = as_matrix(t)
    fm = as_matrix(f)
    w, v = eigh(tm, tol)
    if w.min() < 1e-8:
        raise InvalidInput(f"T must be positive definite (min eig {w.min():.3e})")
    t_h = (v * np.sqrt(w)) @ v.conj().T
    t_h_inv = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    fwd = spectral_norm(t_h_inv @ fm @ t_h)
    rev = spectral_norm(t_h @ fm @ t_h_inv)
    norm_f = spectral_norm(fm)
    scale = max(1.0, fwd)
    resid = abs(fwd - rev) / scale
    passed = norm_f <= fwd + slack * scale and resid <= 1e-9
    return ConjugationReport(norm_f=norm_f, conjugated_norm=fwd,
                             reverse_equal_residual=resid, passed=passed)


# ---------------------------------------------------------------------------
# Quantitative stability of the bounded transform.

@dataclass(frozen=True)
class StabilityReport:
    eps: float
    hypothesis_norms: tuple      # the two resolvent-smallness norms
    transform_diff: float        # ||F_T - F_Tn||
    bound: float                 # 4 * eps
    passed: bool


def scale_perturbation_to_eps(t, r_raw, eps: float,
                              safety: float = 0.999) -> HermitianOperator:
    """Scale a raw Hermitian perturbation so both resolvent-smallness
    norms sit just below eps."""
    tm = as_matrix(t)
    rm = as_matrix(r_raw)
    eye = np.eye(tm.shape[0], dtype=np.complex128)
    res = np.linalg.inv(tm + 1j * eye)
    h1 = spectral_norm(rm @ res)
    h2 = spectral_norm(res @ rm)
    worst = max(h1, h2)
    if worst == 0.0:
        return HermitianOperator(rm)
    return HermitianOperator(rm * (safety * eps / worst))


def check_bounded_transform_stability(t, t_n, eps: float,
                                      tol: Tolerances = DEFAULT_TOL) -> StabilityReport:
    """||F_T - F_Tn|| <= 4*eps whenever both resolvent-smallness norms
    ||(T - Tn)(T + i)^(-1)|| and ||(T + i)^(-1)(T - Tn)|| are <= eps < 1/2.

    Unmet hypotheses (eps >= 1/2 or oversized norms) raise HypothesisUnmet
    and are never counted as violations of the bound.
    """
    if not eps < 0.5:
        raise HypothesisUnmet(f"eps = {eps:g} is not < 1/2")
    tm = as_matrix(t)
    tnm = as_matrix(t_n)
    eye = np.eye(tm.shape[0], dtype=np.complex128)
    res = np.linalg.inv(tm + 1j * eye)
    diff = tm - tnm
    h1 = spectral_norm(diff @ res)
    h2 = spectral_norm(res @ diff)
    if max(h1, h2) > eps:
        raise HypothesisUnmet(
            f"resolvent-smallness norms ({h1:.3e}, {h2:.3e}) exceed eps={eps:g}")
    f_t = bounded_transform(tm, tol).entries
    f_tn = bounded_transform(tnm, tol).entries
    dist = spectral_norm(f_t - f_tn)
    return StabilityReport(eps=eps, hypothesis_norms=(h1, h2),
                           transform_diff=dist, bound=4.0 * eps,
                           passed=dist <= 4.0 * eps)


# ---------------------------------------------------------------------------
# Relative-bound schedule.

@dataclass(frozen=True)
class ScheduleReport:
    entries: tuple          # per eps: (eps, n, C = eps*n, worst slack)
    tail_norms: tuple       # dim-scaling stage: resolvent tails along dims
    passed: bool


def check_relative_bound_schedule(t_template: Callable[[int], np.ndarray],
                                  r_template: Callable[[int], np.ndarray],
                                  dims: Sequence[int],
                                  eps_list: Sequence[float],
                                  n_vectors: int = 100, seed: int = 0,
                                  n_cap: int = 10 ** 6,
                                  tol: Tolerances = DEFAULT_TOL) -> ScheduleReport:
    """Verify ||R psi|| <= eps ||T psi|| + eps*n ||psi|| with the minimal
    integer n making ||R (T - i n)^(-1)|| < eps.

    The schedule runs at the base tower dimension on ``n_vectors`` seeded
    test vectors per eps.  A dim-scaling stage then checks that the
    resolvent tails ||R (T - i n)^(-1) Pi_tail|| keep decaying along the
    tower: templates whose tails stagnate are rejected as
    NotRelativelyCompact (the finite-section stand-in for failure of
    relative compactness).
    """
    dims = tuple(int(d) for d in dims)
    base = dims[0]
    tm = np.asarray(t_template(base), dtype=np.complex128)
    rm = np.asarray(r_template(base), dtype=np.complex128)
    eye = np.eye(base, dtype=np.complex128)

    def res_norm(n_shift, tmat, rmat, projector=None):
        m = np.linalg.inv(tmat - 1j * n_shift * np.eye(tmat.shape[0]))
        if projector is not None:
            m = m @ projector
        return spectral_norm(rmat @ m)

    rng = np.random.default_rng(seed)
    entries = []
    n_probe = 1
    for eps in eps_list:
        n_hi = 1
        while res_norm(n_hi, tm, rm) >= eps:
            n_hi *= 2
            if n_hi > n_cap:
                raise NotRelativelyCompact(
                    f"no shift below {n_cap} achieves resolvent norm < {eps:g}")
        n_lo = n_hi // 2 if n_hi > 1 else 1
        while n_lo < n_hi:
            mid = (n_lo + n_hi) // 2
            if res_norm(mid, tm, rm) < eps:
                n_hi = mid
            else:
                n_lo = mid + 1
        n_min = n_hi
        n_probe = max(n_probe, n_min)
        c_eps = eps * n_min
        worst = -np.inf
        for _ in range(n_vectors):
            psi = rng.standard_normal(base) + 1j * rng.standard_normal(base)
            lhs = float(np.linalg.norm(rm @ psi))
            rhs = eps * float(np.linalg.norm(tm @ psi)) \
                + c_eps * float(np.linalg.norm(psi))
            worst = max(worst, lhs - rhs)
        entries.append((float(eps), n_min, c_eps, worst))
    tails = []
    for n in dims:
        tn = np.asarray(t_template(n), dtype=np.complex128)
        rn = np.asarray(r_template(n), dtype=np.complex128)
        proj = np.zeros((n, n))
        proj[n // 2:, n // 2:] = np.eye(n - n // 2)
        tails.append(res_norm(n_probe, tn, rn, proj))
    stagnant = all(b > 0.75 * a for a, b in zip(tails, tails[1:])) \
        and tails[-1] > 1e-8
    if stagnant:
        raise NotRelativelyCompact(
            f"resolvent tails do not decay along the tower: "
            f"{['%.3e' % x for x in tails]}")
    passed = all(worst <= 1e-10 for (_, _, _, worst) in entries)
    return ScheduleReport(entries=tuple(entries), tail_norms=tuple(tails),
                          passed=passed)


# ---------------------------------------------------------------------------
# Functional-calculus tails along a tower.

@dataclass(frozen=True)
class TailReport:
    dims: tuple
    tail_norms: dict         # per function label: tuple of tail norms
    sigma_comparisons: dict  # per label: True when ordered decay holds
    resolvent_residual: float
    structural_rank: int
    passed: bool


def check_functional_calculus_tails(t_template, r_template,
                                    dims: Sequence[int],
                                    structural_rank: int = 8,
                                    gap_floor: float = 1e-3,
                                    tol: Tolerances = DEFAULT_TOL) -> TailReport:
    """Tail decay of f(T+R) - f(T) along a tower, for f the bounded
    transform, the resolvents (x +- i)^(-1), and the hard step at 0.

    Per dimension the tails ||(f(T+R) - f(T)) Pi_(>n/2)|| are recorded
    (they must at least halve per dimension doubling and end below 1e-5),
    the ordered singular values beyond ``structural_rank`` must not grow
    from one dimension to the next (slack 1e-8), and the exact resolvent
    identity (T+R+-i)^(-1) - (T+-i)^(-1) = -(T+R+-i)^(-1) R (T+-i)^(-1)
    must hold to 1e-12.  The hard-step leg requires both T and T+R
    invertible with gap >= ``gap_floor``.
    """
    dims = tuple(int(d) for d in dims)
    labels = ("bounded-transform", "resolvent", "step")
    tails = {lab: [] for lab in labels}
    sigmas = {lab: [] for lab in labels}
    resolvent_residual = 0.0
    for n in dims:
        tn = np.asarray(t_template(n), dtype=np.complex128)
        rn = np.asarray(r_template(n), dtype=np.complex128)
        tr = tn + rn
        for m, label in ((tn, "T"), (tr, "T+R")):
            if spectral_gap(m) < gap_floor:
                raise NotInvertible(
                    f"{label} at dim {n} has gap below {gap_floor:g}; "
                    f"the hard-step leg needs invertibility")
        eye = np.eye(n, dtype=np.complex128)
        proj = np.zeros((n, n))
        proj[n // 2:, n // 2:] = np.eye(n - n // 2)
        diffs = {}
        diffs["bounded-transform"] = (bounded_transform(tr, tol).entries
                                      - bounded_transform(tn, tol).entries)
        res_d = np.linalg.inv(tr + 1j * eye) - np.linalg.inv(tn + 1j * eye)
        diffs["resolvent"] = res_d
        diffs["step"] = (positive_projection(tr, gap_floor, tol).entries
                         - positive_projection(tn, gap_floor, tol).entries)
        for lab in labels:
            tails[lab].append(spectral_norm(diffs[lab] @ proj))
            sigmas[lab].append(np.linalg.svd(diffs[lab], compute_uv=False))
        for sign in (1.0, -1.0):
            lhs = np.linalg.inv(tr + sign * 1j * eye) - np.linalg.inv(tn + sign * 1j * eye)
            rhs = -np.linalg.inv(tr + sign * 1j * eye) @ rn @ np.linalg.inv(tn + sign * 1j * eye)
            resolvent_residual = max(resolvent_residual, spectral_norm(lhs - rhs))
    sigma_ok = {}
    for lab in labels:
        ok = True
        for s_prev, s_next in zip(sigmas[lab], sigmas[lab][1:]):
            j = structural_rank
            upto = min(s_prev.size, s_next.size)
            if j < upto and np.any(s_next[j:upto] > s_prev[j:upto] + 1e-8):
                ok = False
        sigma_ok[lab] = ok
    tails_ok = all(
        all(b <= 0.5 * a + 1e-15 for a, b in zip(seq, seq[1:])) and seq[-1] <= 1e-5
        for seq in tails.values())
    passed = tails_ok and all(sigma_ok.values()) and resolvent_residual <= 1e-12
    return TailReport(dims=dims,
                      tail_norms={lab: tuple(v) for lab, v in tails.items()},
                      sigma_comparisons=sigma_ok,
                      resolvent_residual=resolvent_residual,
                      structural_rank=structural_rank,
                      passed=passed)
