"""Finite-difference realization of the 1-D operator -i d/dt - i*lam*S(t).

Two discretizations serve two distinct purposes:

* APS assembly (index extraction).  A midpoint one-sided scheme per grid
  cell keeps the matrix rectangular, with boundary node components
  restricted to the spectral subspaces of the endpoint potentials
  (incoming-negative at the left end, outgoing-positive at the right).
  The domain/codomain dimension difference then equals the expected index
  by bookkeeping; the genuine numerical content is that the extracted
  kernel and cokernel dimensions individually match closed-form oracles
  and survive grid refinement.  Second-order central schemes are avoided
  here on purpose: they square the matrix and hide the index.

  The assembly keeps the per-cell blocks of its block-bidiagonal matrix,
  and index extraction runs in O(n_cells k^3) on them.  Each cell is a
  Cayley (Crank-Nicolson) step psi_{j+1} = -B_j^{-1} A_j psi_j, so the
  kernel is a k x k problem: carry the left boundary subspace across the
  grid and test where it lands (Robbin-Salamon).  The carry is a chain of
  plain products with a QR only where the steps' condition numbers have
  grown past a bound set by machine epsilon and the SVD route's relative
  cut opcore._SVD_GAP_CAP (1e-6).
  That count of exact kernel vectors is accepted only when Sturm counts of
  D's singular values confirm that exactly the implied number lies below
  the cut _SVD_GAP_CAP * sigma_max.  The counts come from odd-even
  reduction of the block tridiagonal DD* - tau^2, one batched Cholesky
  factorisation per round (eigh where it fails), so O(log n_cells) numpy
  calls per level.  Their rounding is about eps * sigma_max^2, so they
  decide only cuts whose square lies a thousandfold above that
  (_LEVEL_FLOOR); a cut below it goes to the dense SVD.
  A singular value that is tiny but not zero (tunnelling between two
  nearby crossings) lies below that cut while the exact kernel misses it;
  then, or when some B_j is singular, the dense SVD decides, as it always
  did.

* Dirichlet assembly (quadratic-form bounds).  A square central-difference
  matrix on interior nodes with the potential sampled at nodes.  Its
  spurious grid-oscillation branch sees the derivative with flipped sign
  and therefore reproduces exactly the adjoint problem, so the count of
  small singular values equals dim ker + dim coker of the APS problem,
  and D*D + f^2 and DD* + f^2 built from it obey the same lower bounds
  as the continuum operator.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import (
    HypothesisUnmet,
    InvalidInput,
    NotDiagonalizable,
    NotInvertible,
)
from . import opcore
from .opcore import (
    eigh,
    null_space,
    spectral_norm,
)
from .specflow import PotentialPath

__all__ = [
    "GridSpec",
    "DiscretizedDiracSchroedinger",
    "IndexReport",
    "FredholmBoundReport",
    "assemble",
    "bound_constants",
    "index_report",
    "path_index_report",
    "kernel_vectors",
    "kernel_oracle_diagonal",
    "OracleIndex",
    "fredholm_bounds",
    "quintic_plateau",
    "smoothstep",
]

@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the symmetric interval [-L, L] with n_cells cells."""

    length: float
    n_cells: int

    def __post_init__(self):
        if not self.length > 0 or self.n_cells < 4:
            raise InvalidInput("need length > 0 and n_cells >= 4")

    @property
    def h(self) -> float:
        return 2.0 * self.length / self.n_cells

    def nodes(self) -> np.ndarray:
        return np.linspace(-self.length, self.length, self.n_cells + 1)

    def midpoints(self) -> np.ndarray:
        return self.nodes()[:-1] + 0.5 * self.h

    def refined(self) -> "GridSpec":
        return GridSpec(self.length, 2 * self.n_cells)

    @classmethod
    def auto(cls, path: PotentialPath) -> "GridSpec":
        """Cells of width at most 0.15 on [-L, L], with L from the decay
        rule exp(-c*(L - b)) <= 1e-6, where c is the smallest invertibility
        margin outside the support hull [a, b]."""
        hull = path.hull()
        c = path.least_gap_outside()[1]
        if not np.isfinite(c) or c <= 0.0:
            raise NotInvertible(
                "path has no invertible region outside its support")
        reach = math.log(1e6) / c
        if hull is None:
            lo, hi = path.span()
            length = max(abs(lo), abs(hi), 1.0) + 1.0
        else:
            length = max(abs(hull[0]), abs(hull[1])) + reach
        n_cells = max(16, int(math.ceil(2.0 * length / 0.15)))
        n_cells += n_cells % 2
        return cls(length, n_cells)


@dataclass(frozen=True)
class DiscretizedDiracSchroedinger:
    """An assembled operator together with its boundary bookkeeping.

    An APS assembly keeps the blocks of its block-bidiagonal matrix D.  Row
    block j (cell j, midpoint m_j) reads A_j psi_j + B_j psi_{j+1} with
    A_j = (i/h) I - (i lam/2) S(m_j) and B_j = (-i/h) I - (i lam/2) S(m_j).
    The boundary nodes are psi_0 = L c_0 and psi_n = R c_n in the bases L
    of Ran P_-(S(-L)) and R of Ran P_+(S(+L)), so D's first block is A_0 L
    and its last B_{n-1} R.  ``matrix`` is the dense D (or the Dirichlet
    matrix), built on first read.
    """

    bc: str                   # "aps" | "dirichlet"
    grid: GridSpec
    path: PotentialPath
    lam: float
    left_basis: Optional[np.ndarray]    # negative subspace of S(-L) (APS)
    right_basis: Optional[np.ndarray]   # positive subspace of S(+L) (APS)
    cell_a: Optional[np.ndarray] = None   # (n_cells, k, k) blocks A_j (APS)
    cell_b: Optional[np.ndarray] = None   # (n_cells, k, k) blocks B_j (APS)

    @property
    def k(self) -> int:
        return self.path.k

    @property
    def shape(self) -> Tuple[int, int]:
        k, n = self.k, self.grid.n_cells
        if self.bc == "dirichlet":
            return (n - 1) * k, (n - 1) * k
        return n * k, self.left_basis.shape[1] + (n - 1) * k + self.right_basis.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        if self.bc == "dirichlet":
            return _dirichlet_matrix(self.path, self.grid, self.lam)
        k, n = self.k, self.grid.n_cells
        full = np.zeros((n * k, (n + 1) * k), dtype=np.complex128)
        for j in range(n):
            full[j * k:(j + 1) * k, j * k:(j + 1) * k] = self.cell_a[j]
            full[j * k:(j + 1) * k, (j + 1) * k:(j + 2) * k] = self.cell_b[j]
        cols = [full[:, :k] @ self.left_basis]
        if n > 1:
            cols.append(full[:, k:n * k])
        cols.append(full[:, n * k:] @ self.right_basis)
        return np.concatenate(cols, axis=1)

    @property
    def structural_index(self) -> int:
        """Domain minus codomain dimension: k - n_+(S(-L)) - n_-(S(+L))."""
        return self.shape[1] - self.shape[0]

    def domain_to_nodes(self, vec: np.ndarray) -> np.ndarray:
        """Expand a domain vector to node values psi_0 .. psi_n (APS) or
        pad the interior values with the zero boundary nodes (Dirichlet)."""
        k, n = self.k, self.grid.n_cells
        out = np.zeros(((n + 1), k), dtype=np.complex128)
        if self.bc == "dirichlet":
            out[1:n] = vec.reshape(n - 1, k)
            return out.reshape(-1)
        kl = self.left_basis.shape[1]
        kr = self.right_basis.shape[1]
        out[0] = self.left_basis @ vec[:kl]
        if n > 1:
            out[1:n] = vec[kl:kl + (n - 1) * k].reshape(n - 1, k)
        out[n] = self.right_basis @ vec[kl + (n - 1) * k:]
        return out.reshape(-1)


def _aps_operator(path, grid, lam):
    """The APS assembly of ``assemble``, without the path's declaration
    check (it depends on the path only, not on the grid)."""
    k, h = path.k, grid.h
    nodes = grid.nodes()
    eye = np.eye(k, dtype=np.complex128)
    # one stack: the cell midpoints, then the two end nodes
    s = path.samples(np.concatenate([grid.midpoints(), nodes[[0, -1]]]))
    cell_a = (1j / h) * eye - (0.5j * lam) * s[:-2]
    cell_b = (-1j / h) * eye - (0.5j * lam) * s[:-2]
    wl, vl = eigh(s[-2])
    wr, vr = eigh(s[-1])
    for w, label in ((wl, "left"), (wr, "right")):
        if float(np.abs(w).min()) < opcore._PROJ_GAP_TOL:
            raise NotInvertible(f"potential not invertible at the {label} endpoint")
    return DiscretizedDiracSchroedinger(
        bc="aps", grid=grid, path=path, lam=lam,
        left_basis=vl[:, wl < 0.0],      # P_+(S(-L)) psi(-L) = 0
        right_basis=vr[:, wr > 0.0],     # P_-(S(+L)) psi(+L) = 0
        cell_a=cell_a, cell_b=cell_b)


def _dirichlet_matrix(path, grid, lam):
    k, n, h = path.k, grid.n_cells, grid.h
    nodes = grid.nodes()
    eye = np.eye(k, dtype=np.complex128)
    m = (n - 1) * k
    a = np.zeros((m, m), dtype=np.complex128)
    s = path.samples(nodes[1:-1])
    for j in range(1, n):
        r = (j - 1) * k
        a[r:r + k, r:r + k] = (-1j * lam) * s[j - 1]
        if j + 1 <= n - 1:
            a[r:r + k, r + k:r + 2 * k] = (-1j / (2.0 * h)) * eye
        if j - 1 >= 1:
            a[r:r + k, r - k:r] = (1j / (2.0 * h)) * eye
    return a


def assemble(path: PotentialPath, grid: GridSpec, bc: str = "aps",
             lam: float = 1.0) -> DiscretizedDiracSchroedinger:
    """Assemble the discretized operator -i d/dt - i*lam*S(t) on [-L, L].

    ``bc`` selects the APS (rectangular, index-carrying) or Dirichlet
    (square, form-level) realization; see the module docstring.  The path
    extends constantly by its endpoint values beyond its declared grid.

    Raises NotInvertible when the path breaks its own declaration that S is
    invertible outside its support K: some grid sample outside K has a
    spectral gap below ``opcore._PROJ_GAP_TOL``.  An APS assembly further
    raises NotInvertible when S is singular at an endpoint of [-L, L].
    """
    if bc not in ("aps", "dirichlet"):
        raise InvalidInput(f"unknown boundary condition {bc!r}")
    if not lam > 0:
        raise InvalidInput("coupling lam must be positive")
    t_worst, gap = path.least_gap_outside()
    if gap < opcore._PROJ_GAP_TOL:
        raise NotInvertible(
            f"path declared invertible outside its support {path.support} "
            f"has gap {gap:.3e} at t={t_worst:g}, below proj_gap_tol "
            f"{opcore._PROJ_GAP_TOL:.3e}")
    if bc == "aps":
        return _aps_operator(path, grid, lam)
    return DiscretizedDiracSchroedinger(
        bc=bc, grid=grid, path=path, lam=lam,
        left_basis=None, right_basis=None)


@dataclass(frozen=True)
class IndexReport:
    """Index of an APS assembly with the certificate of its dimensions.

    ``index`` = ``structural_index`` = cols - rows on both routes: the
    transfer route sets dim coker = rows - cols + dim ker, and the SVD
    route counts the cokernel by rank-nullity.  So ``structural_agrees``
    always holds, and any check that compares ``index`` compares an
    integer fixed by the endpoint signatures.  The measured content is
    ``dim_ker`` (and the refinement agreement).

    ``route`` names what decided (dim ker, dim coker):

    * ``"transfer"``: the Cayley transfer kernel, certified by Sturm counts
      of the singular values of D.  ``threshold`` is opcore._SVD_GAP_CAP
      times the Rayleigh lower bound of sigma_max (the root of DD*'s
      largest diagonal entry): exactly dim ker - (cols - min(rows, cols))
      singular values lie below it.  ``sigma_next`` is _SVD_GAP_CAP times
      the Gershgorin upper bound of sigma_max (the root of DD*'s largest
      absolute row sum), a lower bound of every other singular value.
      ``gap_ratio`` is the ratio, in the transfer test matrix, of
      the smallest principal-angle cosine kept to the largest one counted
      as zero (inf when either side is empty).  No singular value is
      computed, so ``sigma_kernel`` is empty.
    * ``"svd"``: the dense SVD.  ``sigma_kernel`` holds the singular values
      assigned to the kernel cluster, ``sigma_next`` the smallest one above
      the cut, ``gap_ratio`` the jump at the cut and ``threshold`` the cut
      (see ``opcore.null_space``).
    """

    index: int
    dim_ker: int
    dim_coker: int
    structural_index: int
    structural_agrees: bool
    refined_agrees: Optional[bool]
    sigma_kernel: tuple
    sigma_next: float
    gap_ratio: float
    threshold: float
    shape: tuple
    lam: float
    route: str                # "transfer" | "svd"


def _dims_from_svd(matrix):
    res = null_space(matrix, want_basis=False)
    rows, cols = matrix.shape
    rank = cols - res.dim
    dim_coker = rows - rank
    s = res.singular_values
    small = res.dim - (cols - s.size)
    sigma_kernel = tuple(float(x) for x in s[s.size - small:]) if small > 0 else ()
    sigma_next = float(s[s.size - small - 1]) if s.size - small - 1 >= 0 else float("inf")
    return res.dim, dim_coker, sigma_kernel, sigma_next, res.gap_ratio, res.threshold


# The Sturm counts work on DD* - tau^2, whose computed eigenvalues carry
# errors of a few eps * sigma_max^2 (from forming DD* and from the
# reduction), so a count at tau is trusted only where tau^2 clears that by a
# thousandfold: tau >= _LEVEL_FLOOR * sigma_max, about 4.7e-7 * sigma_max.
# On the k = 16 tower fibers and the tunnelling chain(3866) the counts are
# still right at tau^2 = 0.45 eps * sigma_max^2 and wrong below 0.05.  The
# cut opcore._SVD_GAP_CAP = 1e-6 clears the floor whenever the sigma_max
# bracket has lo >= 0.47 hi; over the 2498 index decisions of the `all`
# config and the benchmark workloads at all pool seeds
# (tests/index_decisions.py) the smallest lo / hi is 0.601, and 0.627 on
# k = 32 and 64 tower fibers.  A bracket wider than that, or a cut below
# 4.7e-7, leaves the count to the dense SVD.
_LEVEL_FLOOR = math.sqrt(1e3 * np.finfo(float).eps)


def _transfer_kernel(op):
    """(dim ker D, gap ratio) by Cayley transfer.

    Every kernel vector starts at psi_0 in Ran L and follows
    psi_{j+1} = M_j psi_j with M_j = -B_j^{-1} A_j, so ker D is the set of
    starts whose psi_n lies in Ran R.  Each M_j is the Cayley transform of
    the Hermitian S(m_j), hence normal, and one batched SVD gives every
    cond(M_j).  Cells whose A_j and B_j are bitwise equal to the previous
    cell's (`opcore._repeats`; a potential that is constant outside its
    support makes long runs of them) reuse that cell's M_j and cond, so the
    solve and the SVD see only the distinct cells.  The orthonormal basis L
    is carried along by plain products of the steps scaled to norm 1, one
    per cell, repeats included, with a QR only when the product g of the
    conds since the last QR would pass 1e-3 * _SVD_GAP_CAP / eps, and one
    at the end.  Rounding in such a product reaches the weakest carried
    direction amplified by up to g, so a cosine drifts by about eps * g
    before the closing QR; the limit holds that drift a thousand times
    below the cut opcore._SVD_GAP_CAP (g <= 4.5e6 at its value 1e-6).
    The singular values of (1 - R R*) Q_n are the cosines of the principal
    angles between Ran Q_n and Ran P_-(S(+L)), and those below
    _SVD_GAP_CAP count as zero.  Raises LinAlgError when some B_j is singular
    (lam * s * h / 2 = -1 for an eigenvalue s of S(m_j)).
    """
    left, right = op.left_basis, op.right_basis
    if left.shape[1] == 0:
        return 0, float("inf")
    new = ~(opcore._repeats(op.cell_a) & opcore._repeats(op.cell_b))
    steps = np.linalg.solve(op.cell_b[new], -op.cell_a[new])
    s = np.linalg.svd(steps, compute_uv=False)
    steps /= np.where(s[:, 0] > 0.0, s[:, 0], 1.0)[:, None, None]
    conds = np.divide(s[:, 0], s[:, -1], out=np.full(s.shape[0], np.inf),
                      where=s[:, -1] > 0.0)
    cap = opcore._SVD_GAP_CAP
    limit = 1e-3 * cap / np.finfo(float).eps
    q, growth = left, 1.0
    steps, conds = list(steps), conds.tolist()
    for j in (np.cumsum(new) - 1).tolist():
        step, cond = steps[j], conds[j]
        # growth 1 means q is orthonormal up to scale: nothing to restore
        if growth > 1.0 and growth * cond > limit:
            q, growth = np.linalg.qr(q)[0], 1.0
        q, growth = step @ q, growth * cond
    q = np.linalg.qr(q)[0]
    cos = np.linalg.svd(q - right @ (right.conj().T @ q), compute_uv=False)
    if not np.all(np.isfinite(cos)):
        raise np.linalg.LinAlgError("transfer overflowed")
    rank = int(np.sum(cos >= cap))
    zero_max = float(cos[rank]) if rank < cos.size else 0.0
    ratio = float(cos[rank - 1]) / zero_max if rank and zero_max > 0.0 else float("inf")
    return left.shape[1] - rank, ratio


def _dd_star(cell_a, cell_b, left, right):
    """(gram, coupling): the blocks of DD* for the block-bidiagonal D whose
    row block j holds cell_a[j] in column block j and cell_b[j] in column
    block j + 1, with column block 0 restricted by ``left`` and column
    block n by ``right``: D's first block is cell_a[0] @ left and its last
    cell_b[-1] @ right.

    DD* is block tridiagonal.  gram[j] = a_j a_j* + b_j b_j* is its
    diagonal block j, with the end blocks restricted by left and right,
    and coupling[j] = b_j a_{j+1}* its block (j, j + 1).  Entries past the
    floating-point range come out non-finite, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        first, last = cell_a[0] @ left, cell_b[-1] @ right
        gram = cell_a @ cell_a.conj().swapaxes(1, 2)
        coupling = cell_b[:-1] @ cell_a[1:].conj().swapaxes(1, 2)
        gram[0] = first @ first.conj().T
        end = gram[-1] + last @ last.conj().T
        gram += cell_b @ cell_b.conj().swapaxes(1, 2)
        gram[-1] = end
    return gram, coupling


def _sigma_max_bracket(gram, coupling):
    """(lo, hi) with lo <= sigma_max(D) <= hi, from the blocks of DD*.

    lo^2 is DD*'s largest diagonal entry, the Rayleigh quotient ||D* e||^2
    of a unit vector e.  hi^2 is DD*'s largest absolute row sum, which
    bounds its spectrum (Gershgorin); block row j sums |gram[j]|,
    |coupling[j]| and |coupling[j - 1]|^T.  A non-finite DD* gives a
    non-finite or nan bracket.
    """
    lo2 = float(np.abs(np.einsum("jaa->ja", gram)).max(initial=0.0))
    with np.errstate(over="ignore"):
        row = np.abs(gram).sum(axis=2)
        moduli = np.abs(coupling)
        row[:-1] += moduli.sum(axis=2)
        row[1:] += moduli.sum(axis=1)
        return math.sqrt(lo2), math.sqrt(float(row.max(initial=0.0)))


def _inverse_cholesky(pivots):
    """L^{-1} for the batched Cholesky factor P = L L* of ``pivots``, or
    None when one of them is not numerically positive definite (the
    factorisation raises or comes out non-finite)."""
    try:
        factor = np.linalg.cholesky(pivots)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.inv(factor) if np.isfinite(factor).all() else None


def _negative_pivots(w, pivmin):
    """Number of pivot eigenvalues ``w`` below pivmin, which the clamp to
    -pivmin makes negative; LinAlgError when one is not finite."""
    if not np.isfinite(w).all():
        raise np.linalg.LinAlgError("Sturm pivots out of floating-point range")
    return int(np.sum(w < pivmin))


def _sturm_counts(gram, coupling, levels, scale):
    """Number of eigenvalues of the block tridiagonal DD* (blocks from
    ``_dd_star``) below tau^2 for each tau in ``levels`` (all > 0).
    ``scale`` is DD*'s largest diagonal entry.

    DD*'s eigenvalues are the squares of D's singular values and
    rows - min(rows, cols) zeros, so a count at tau is #(sigma < tau) +
    max(0, rows - cols).  The count nu(T) of negative eigenvalues of
    T = DD* - tau^2 follows from odd-even block reduction (Buzbee, Golub
    and Nielson 1970): eliminating every other block of a block tridiagonal
    matrix is a congruence, so by Sylvester's law nu is the count over the
    eliminated pivots plus that of the Schur complement, which is again
    block tridiagonal.  Each round eliminates the blocks 0, 2, 4, ... of T
    and applies each pivot inverse P^{-1} to the couplings F of its two
    neighbours.  The kept blocks 1, 3, 5, ... and their new couplings form
    the next T.  With an even block count the last block is kept with no
    pivot to its right, which is what padding with a decoupled -1 block
    would give after subtracting that block's k negative eigenvalues.  One
    block is left at the end, and its eigenvalues are counted directly.

    A round takes its pivots' inertia from one batched Cholesky
    factorisation P = L L*.  If it succeeds with finite factors, no pivot
    is negative, and P^{-1} F is L^{-*} (L^{-1} F).  Otherwise the round
    takes one batched eigh P = U diag(w) U* and applies U* F and x / w.  A
    pivot eigenvalue of modulus below pivmin is then set to -pivmin and
    counts as negative, as in LAPACK's bisection (dstebz); a non-finite
    one raises LinAlgError.  As in dstebz, pivmin is the smallest normal
    number times the square of the largest entry, which for the positive
    semidefinite DD* is ``scale``.  The two rules differ only within
    rounding: a Cholesky factorisation that succeeds in floating point is
    the exact one of some P + E with ||E|| <= c k eps ||P|| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section
    10.1), and eigh's eigenvalues carry errors of the same order, so the
    two can disagree only on a pivot eigenvalue within that band of zero.
    As scale^2 is finite, pivmin < 1.5e-154 * scale, far inside the
    rounding of about eps * scale that every pivot carries from DD*
    itself, so the clamp decides no pivot that the factorisation would
    decide otherwise.

    The levels are reduced one after another, each on its own copy of
    DD* - tau^2 updated in place, so memory stays at a few copies of the
    blocks.  When the square of ``scale`` is not finite, LinAlgError is
    raised.
    """
    if not scale * scale < np.inf:
        raise np.linalg.LinAlgError("Sturm pivots out of floating-point range")
    pivmin = np.finfo(float).tiny * max(1.0, scale * scale)
    k = gram.shape[1]
    counts = []
    for tau in np.asarray(levels, dtype=float):
        diag, upper = gram - tau * tau * np.eye(k), coupling
        negative = 0
        while diag.shape[0] > 1:
            # pivot 2i meets block 2i + 1 through upper[2i] and, for i > 0,
            # block 2i - 1 through upper[2i - 1]*; with an even count the
            # last block is kept and has no right pivot
            kept, to_right, to_left = diag[1::2], upper[0::2], upper[1::2]
            right, left = len(to_right), len(to_left)
            inv = _inverse_cholesky(diag[0::2])
            if inv is not None:
                # P^{-1} = L^{-*} L^{-1}: x = L^{-1} F, z = G L^{-*}
                x = y = inv[:right] @ to_right
                z = v = to_left @ inv[1:left + 1].conj().swapaxes(1, 2)
            else:
                w, u = np.linalg.eigh(diag[0::2])
                negative += _negative_pivots(w, pivmin)
                w = np.where(np.abs(w) < pivmin, -pivmin, w)
                x = u[:right].conj().swapaxes(1, 2) @ to_right
                z = to_left @ u[1:left + 1]
                y = x / w[:right, :, None]
                v = z / w[1:left + 1, None, :]
            kept -= x.conj().swapaxes(1, 2) @ y
            kept[:left] -= v @ z.conj().swapaxes(1, 2)
            # the new couplings are -v x; the sign is dropped, because
            # negating every coupling is a similarity by diag(1, -1, 1, ...),
            # and it cancels exactly in every later update
            diag, upper = kept, v[:len(kept) - 1] @ x[1:]
        negative += _negative_pivots(np.linalg.eigvalsh(diag[0]), pivmin)
        counts.append(negative)
    return np.array(counts)


def _transfer_dims(op):
    """Index dimensions by the transfer route, or None when it cannot
    certify them.  The blocks of DD* are built once; they give the bracket
    lo <= sigma_max <= hi (``_sigma_max_bracket``) and the Sturm counts at
    the two levels opcore._SVD_GAP_CAP times lo and hi.  None when the
    lower level lies below the floor _LEVEL_FLOOR * hi where Sturm counts
    are reliable, when DD* or the square of its largest diagonal entry is
    out of floating-point range, when some B_j is singular, or when a count
    differs from dim coker, the number of DD*'s eigenvalues that the
    transfer kernel implies are zero."""
    rows, cols = op.shape
    gram, coupling = _dd_star(op.cell_a, op.cell_b, op.left_basis, op.right_basis)
    lo, hi = _sigma_max_bracket(gram, coupling)
    levels = (opcore._SVD_GAP_CAP * lo, opcore._SVD_GAP_CAP * hi)
    if not levels[0] >= _LEVEL_FLOOR * hi:
        return None
    try:
        dim_ker, ratio = _transfer_kernel(op)
        counts = _sturm_counts(gram, coupling, levels, lo * lo)
    except np.linalg.LinAlgError:
        return None
    dim_coker = rows - cols + dim_ker
    if np.any(counts != dim_coker):
        return None
    return dim_ker, dim_coker, (), levels[1], ratio, levels[0], "transfer"


def _index_dims(op):
    """(dim_ker, dim_coker, sigma_kernel, sigma_next, gap_ratio, threshold,
    route): the certified transfer route, else the dense SVD."""
    fast = _transfer_dims(op)
    if fast is not None:
        return fast
    return _dims_from_svd(op.matrix) + ("svd",)


def index_report(op: DiscretizedDiracSchroedinger,
                 refine_check: bool = True) -> IndexReport:
    """Numerical index of an APS assembly: dim ker - dim coker.

    The dimensions come from the Cayley transfer kernel when block Sturm
    counts of D's singular values confirm its count of exact zeros at
    opcore._SVD_GAP_CAP * sigma_max, in O(n_cells k^3); otherwise from the
    singular-value clusters of the dense D (``opcore.null_space``, whose
    AmbiguousRank propagates).  ``IndexReport.route`` says which decided.

    The report carries the structural identity check
    index = k - n_+(S(-L)) - n_-(S(+L)) and, when ``refine_check`` is on,
    whether the extracted dimensions survive an h -> h/2 rerun.
    """
    if op.bc != "aps":
        raise InvalidInput("index_report requires an APS assembly")
    dim_ker, dim_coker, sig_ker, sig_next, ratio, thr, route = _index_dims(op)
    index = dim_ker - dim_coker
    structural = op.structural_index
    refined_agrees = None
    if refine_check:
        refined = _aps_operator(op.path, op.grid.refined(), op.lam)
        dk2, dc2, *_ = _index_dims(refined)
        refined_agrees = (dk2 == dim_ker and dc2 == dim_coker)
    return IndexReport(index=index, dim_ker=dim_ker, dim_coker=dim_coker,
                       structural_index=structural,
                       structural_agrees=(index == structural),
                       refined_agrees=refined_agrees,
                       sigma_kernel=sig_ker, sigma_next=sig_next,
                       gap_ratio=ratio, threshold=thr,
                       shape=op.shape, lam=op.lam, route=route)


def _resolve_grid(grid: Optional[GridSpec], path: PotentialPath) -> GridSpec:
    """``grid``, or ``GridSpec.auto(path)`` when it is None."""
    return GridSpec.auto(path) if grid is None else grid


def path_index_report(path: PotentialPath, grid=None, lam: float = 1.0) -> IndexReport:
    """``index_report`` of the APS assembly of ``path``, without the h/2
    refinement rerun.  ``grid`` is a GridSpec, or None for
    ``GridSpec.auto``."""
    return index_report(assemble(path, _resolve_grid(grid, path), "aps", lam),
                        refine_check=False)


def kernel_vectors(op: DiscretizedDiracSchroedinger) -> list:
    """Numerical kernel of an APS assembly as node-space functions
    (one complex array over the n_cells+1 grid nodes per kernel vector)."""
    res = null_space(op.matrix, want_basis=True)
    return [op.domain_to_nodes(res.basis[:, j]) for j in range(res.dim)]


@dataclass(frozen=True)
class OracleIndex:
    dim_ker: int
    dim_coker: int
    index: int


def kernel_oracle_diagonal(path: PotentialPath) -> OracleIndex:
    """Closed-form index for simultaneously diagonalizable paths.

    Each scalar branch s(t) of the commuting family solves psi' = -s psi
    up to a positive coupling, so it contributes a kernel vector exactly
    when s changes sign upward (s(start) < 0 < s(end)) and a cokernel
    vector when it changes sign downward.  The common eigenbasis V is that
    of a randomly weighted sum of the samples; a sample whose off-diagonal
    part in V exceeds 1e-10 (Frobenius norm, relative to the largest
    sample norm) raises NotDiagonalizable.
    """
    samples = path.samples(path.grid)
    scale = max(1.0, float(np.linalg.norm(samples, axis=(1, 2)).max()))
    rng = np.random.default_rng(0x5EED)
    weights = rng.uniform(0.5, 1.5, size=len(samples))
    _, v = eigh(sum(w * s for w, s in zip(weights, samples)))
    rotated = v.conj().T @ samples @ v
    diagonal = np.einsum("jaa->ja", rotated)
    off = np.linalg.norm(rotated * (1.0 - np.eye(path.k)), axis=(1, 2)) / scale
    worst = int(np.argmax(off))
    if off[worst] > 1e-10:
        raise NotDiagonalizable(
            f"sample at t={path.grid[worst]:g} is not diagonal in the common "
            f"eigenbasis: off-diagonal residual {off[worst]:.3e}")
    start, end = diagonal[0].real, diagonal[-1].real
    dim_ker = int(np.sum((start < 0) & (end > 0)))
    dim_coker = int(np.sum((start > 0) & (end < 0)))
    return OracleIndex(dim_ker=dim_ker, dim_coker=dim_coker,
                       index=dim_ker - dim_coker)


# ---------------------------------------------------------------------------
# Quantitative Fredholm bounds.

def _lagrange_slope(ts, samples, at):
    """Derivative at ts[at] of the quadratic through three samples: the
    three-point formula, second-order on any grid."""
    t0, t1, t2 = ts
    s0, s1, s2 = samples
    x = ts[at]
    return (s0 * (2.0 * x - t1 - t2) / ((t0 - t1) * (t0 - t2))
            + s1 * (2.0 * x - t0 - t2) / ((t1 - t0) * (t1 - t2))
            + s2 * (2.0 * x - t0 - t1) / ((t2 - t0) * (t2 - t1)))


def _piece_slopes(ts, samples):
    """S' at each sample of one piece (two samples or more) from that
    piece alone: the three-point formula on each sample and its two
    neighbours inside, on the first or last three samples at the ends,
    the two-point one for a two-sample piece."""
    n = len(ts)
    if n == 2:
        ds = (samples[1] - samples[0]) / (ts[1] - ts[0])
        return [ds, ds]
    return ([_lagrange_slope(ts[:3], samples[:3], 0)]
            + [_lagrange_slope(ts[j - 1:j + 2], samples[j - 1:j + 2], 1)
               for j in range(1, n - 1)]
            + [_lagrange_slope(ts[:-4:-1], samples[:-4:-1], 0)])


def _path_derivative_norms(path: PotentialPath,
                           k_hat: Optional[Tuple[float, float]]):
    """delta_t = max over resolvent signs of ||S'(t) (S(t) +- i)^{-1}|| on
    the sample grid.

    The endpoints of ``k_hat`` and of the declared support intervals cut
    the grid into pieces; the intervals are closed, so a sample on an
    endpoint belongs to that interval.  S may have a kink at a cut, so S'
    at a sample uses samples of its own piece only: the three-point
    formula on the sample and its neighbours where both are in the piece,
    otherwise the three-point one-sided formula, and the two-point one
    when the piece has exactly two samples.  A piece holding a single
    sample raises InvalidInput.
    """
    ts = path.grid
    samples = path.samples(ts)
    intervals = list(path.support) + ([k_hat] if k_hat is not None else [])
    # two samples share a label iff no cut lies between them: t joins
    # [a, b] once a <= t and leaves it once b < t
    label = sum(((ts >= a).astype(int) + (ts > b).astype(int) for a, b in intervals),
                np.zeros(ts.size, dtype=int))
    slopes = []
    for piece in np.split(np.arange(ts.size), np.flatnonzero(np.diff(label)) + 1):
        if piece.size == 1:
            cuts = sorted({e for iv in intervals for e in iv})
            raise InvalidInput(
                f"the piece of the grid around t={ts[piece[0]]:g} (cut at {cuts}) "
                f"holds a single sample; S' there would need samples across a cut")
        slopes += _piece_slopes(ts[piece], samples[piece[0]:piece[-1] + 1])
    eye = np.eye(path.k, dtype=np.complex128)
    # S' (S +- i)^{-1} of every sample, as the adjoint of a solve against (S +- i)^*
    slopes_h = np.stack(slopes).conj().swapaxes(1, 2)
    delta = np.maximum(*(
        spectral_norm(np.linalg.solve((samples + z * eye).conj().swapaxes(1, 2), slopes_h)
                      .conj().swapaxes(1, 2))
        for z in (1j, -1j)))
    return [(float(t), float(d)) for t, d in zip(ts, delta)]


def smoothstep(u):
    """Quintic smoothstep: 0 for u <= 0, 1 for u >= 1, C^2 at the joints.
    Elementwise on an array; a number gives a numpy float."""
    u = np.asarray(u, dtype=float)
    c = np.clip(u, 0.0, 1.0)   # equal to u where the polynomial is kept
    return np.where(u <= 0.0, 0.0, np.where(
        u >= 1.0, 1.0, c * c * c * (10.0 - 15.0 * c + 6.0 * c * c)))[()]


def quintic_plateau(t, lo, hi, ramp):
    """1 on [lo, hi], quintic-smoothstep down to 0 over ``ramp`` > 0
    outside.  Elementwise on an array; a number gives a numpy float."""
    t = np.asarray(t, dtype=float)
    d = np.where(t < lo, lo - t, t - hi)
    return np.where((lo <= t) & (t <= hi), 1.0, np.where(
        d >= ramp, 0.0, smoothstep(1.0 - d / ramp)))[()]


def bound_constants(path: PotentialPath, k_hat: Optional[Tuple[float, float]] = None):
    """(c, delta_out, delta_K, lambda0): the uniform invertibility bound and
    derivative-resolvent sups outside/inside the compact region, and the
    minimal coupling making the lower-bound threshold positive.  The gaps
    are read from the path's certified grid spectra."""
    if k_hat is None:
        k_hat = path.hull()
    deltas = _path_derivative_norms(path, k_hat)

    def outside(t):
        return k_hat is None or not (k_hat[0] <= t <= k_hat[1])

    gaps = np.abs(path._grid_spectra()[0]).min(axis=1)
    gaps_out = [float(g) for (t, _), g in zip(deltas, gaps) if outside(t)]
    if not gaps_out:
        raise InvalidInput("no sample lies outside the compact region")
    c_hat = min(gaps_out)
    if c_hat < opcore._PROJ_GAP_TOL:
        raise NotInvertible("potential is not uniformly invertible outside K")
    delta_hat = max((d for (t, d) in deltas if outside(t)), default=0.0)
    delta_k = max((d for (t, d) in deltas if not outside(t)), default=0.0)
    lambda0 = delta_hat * (c_hat + 1.0) / (c_hat ** 2)
    return c_hat, delta_hat, delta_k, lambda0


@dataclass(frozen=True)
class FredholmBoundReport:
    c_hat: float            # uniform invertibility bound outside K
    delta_hat: float        # sup of the derivative-resolvent norm outside K
    delta_k: float          # same sup over K
    lambda0: float          # minimal coupling making the bound positive
    epsilon: float          # 0.5*(lam^2 c^2 - delta_hat^2 (1 + 1/c)^2)
    min_eig: float          # smallest eigenvalue of the doubled square + f^2
    f_amplitude: float
    disc_slack: float       # the discretisation slack _DISC_SLACK
    second_statement: bool  # delta_hat < c^2/(c+1), so lambda0 = 1 suffices
    passed: bool


# The assembled bound may fall short of epsilon by this share: the
# Dirichlet matrix is a discretisation of the doubled operator.
_DISC_SLACK = 0.2


def fredholm_bounds(path: PotentialPath, lam: float,
                    grid: Optional[GridSpec] = None,
                    k_hat: Optional[Tuple[float, float]] = None) -> FredholmBoundReport:
    """Verify the quantitative lower bound on the doubled operator.

    Computes c = inf gap(S) and delta = sup ||S'(S +- i)^{-1}|| outside the
    compact region k_hat (default: the support hull), the threshold
    epsilon = (lam^2 c^2 - delta^2(1+1/c)^2)/2, and checks that the
    assembled doubled square plus the cutoff satisfies
    min eig >= epsilon * (1 - _DISC_SLACK).

    The cutoff f is sqrt(epsilon + (lam^2 + delta_K^2)/2) times a
    quintic-smoothstep plateau that is 1 on k_hat and falls to 0 over
    min(2, half the room between k_hat and the grid's end), so f^2 equals
    the level the bound requires on k_hat; without a compact region
    (k_hat None) f is zero.
    """
    if k_hat is None:
        k_hat = path.hull()
    c_hat, delta_hat, delta_k, lambda0 = bound_constants(path, k_hat)
    epsilon = 0.5 * (lam ** 2 * c_hat ** 2 - delta_hat ** 2 * (1.0 + 1.0 / c_hat) ** 2)
    if epsilon <= 0.0:
        raise HypothesisUnmet(
            f"coupling lam={lam:g} below the positivity threshold "
            f"lambda0={lambda0:g}")
    second = delta_hat < c_hat ** 2 / (c_hat + 1.0)
    grid = _resolve_grid(grid, path)
    nodes = grid.nodes()
    if k_hat is None:
        amplitude = 0.0
        f_sq = np.zeros_like(nodes)
    else:
        amplitude = math.sqrt(epsilon + 0.5 * (lam ** 2 + delta_k ** 2))
        ramp = min(2.0, 0.5 * (grid.length - max(abs(k_hat[0]), abs(k_hat[1]))))
        if ramp <= 0:
            raise InvalidInput("grid too short for a compactly supported cutoff")
        f_sq = (amplitude * quintic_plateau(nodes, k_hat[0], k_hat[1], ramp)) ** 2
    op = assemble(path, grid, "dirichlet", lam)
    d = op.matrix
    f_sq = np.repeat(f_sq[1:-1], path.k)
    m1 = d.conj().T @ d + np.diag(f_sq)
    m2 = d @ d.conj().T + np.diag(f_sq)
    min_eig = float(min(np.linalg.eigvalsh(m1).min(), np.linalg.eigvalsh(m2).min()))
    passed = min_eig >= epsilon * (1.0 - _DISC_SLACK)
    return FredholmBoundReport(
        c_hat=c_hat, delta_hat=delta_hat, delta_k=delta_k, lambda0=lambda0,
        epsilon=epsilon, min_eig=min_eig, f_amplitude=amplitude,
        disc_slack=_DISC_SLACK, second_statement=second, passed=passed)
