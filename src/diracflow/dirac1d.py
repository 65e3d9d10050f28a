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
  grown past a bound set by machine epsilon and svd_gap_cap.
  That count of exact kernel vectors is accepted only when Sturm counts of
  D's singular values confirm that exactly the implied number lies below
  the SVD route's cut svd_gap_cap * sigma_max.  The counts come from
  odd-even reduction of the block tridiagonal DD* - tau^2, one batched
  eigh per round, so O(log n_cells) numpy calls per level.  Their rounding
  is about eps * sigma_max^2, so they decide only cuts whose square lies a
  thousandfold above that; a smaller svd_gap_cap goes to the dense SVD.
  A singular value that is tiny but not zero (tunnelling between two
  nearby crossings) lies below that cut while the exact kernel misses it;
  then, or when some B_j is singular, the dense SVD decides, as it always
  did.

* Dirichlet assembly (quadratic-form bounds).  A square central-difference
  matrix on interior nodes with the potential sampled at nodes.  Its
  spurious grid-oscillation branch sees the derivative with flipped sign
  and therefore reproduces exactly the adjoint problem, so the count of
  small singular values equals dim ker + dim coker of the APS problem,
  and the doubled graded operator built from it obeys the same lower
  bounds as the continuum operator.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    CutoffTooSmall,
    HypothesisUnmet,
    InvalidInput,
    NotDiagonalizable,
    NotInvertible,
)
from .opcore import (
    DEFAULT_TOL,
    Tolerances,
    eigh,
    null_space,
    spectral_gap,
)
from .specflow import PotentialPath

__all__ = [
    "GridSpec",
    "DiscretizedDiracSchroedinger",
    "DoubledOperator",
    "IndexReport",
    "FredholmBoundReport",
    "assemble",
    "bound_constants",
    "index_report",
    "path_index_report",
    "kernel_vectors",
    "kernel_oracle_diagonal",
    "OracleIndex",
    "doubled",
    "fredholm_bounds",
    "make_cutoff",
    "lambda_sweep",
    "SweepReport",
    "perturbation_invariance",
    "PerturbationReport",
]

DECAY_TARGET = 1e-8


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
    def auto(cls, path: PotentialPath, h_target: float = 0.1,
             decay: float = DECAY_TARGET) -> "GridSpec":
        """Truncation length from the decay rule exp(-c*(L - b)) <= decay,
        where c is the smallest invertibility margin outside the support
        hull [a, b] and the interval is symmetric about 0."""
        hull = path.hull()
        c = path.min_gap_outside()
        if not np.isfinite(c) or c <= 0.0:
            raise NotInvertible(
                "path has no invertible region outside its support")
        reach = math.log(1.0 / decay) / c
        if hull is None:
            lo, hi = path.span()
            length = max(abs(lo), abs(hi), 1.0) + 1.0
        else:
            length = max(abs(hull[0]), abs(hull[1])) + reach
        n_cells = max(16, int(math.ceil(2.0 * length / h_target)))
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
    n_plus_left: int
    n_minus_right: int
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


def _aps_operator(path, grid, lam, tol):
    """The APS assembly of ``assemble``, without the path's declaration
    check (it depends on the path only, not on the grid)."""
    k, h = path.k, grid.h
    nodes = grid.nodes()
    eye = np.eye(k, dtype=np.complex128)
    s_mid = np.stack([path.sample(m) for m in grid.midpoints()])
    cell_a = (1j / h) * eye - (0.5j * lam) * s_mid
    cell_b = (-1j / h) * eye - (0.5j * lam) * s_mid
    wl, vl = eigh(path.sample(nodes[0]), tol)
    wr, vr = eigh(path.sample(nodes[-1]), tol)
    for w, label in ((wl, "left"), (wr, "right")):
        if float(np.abs(w).min()) < tol.proj_gap_tol:
            raise NotInvertible(f"potential not invertible at the {label} endpoint")
    return DiscretizedDiracSchroedinger(
        bc="aps", grid=grid, path=path, lam=lam,
        left_basis=vl[:, wl < 0.0],      # P_+(S(-L)) psi(-L) = 0
        right_basis=vr[:, wr > 0.0],     # P_-(S(+L)) psi(+L) = 0
        n_plus_left=int(np.sum(wl > 0.0)), n_minus_right=int(np.sum(wr < 0.0)),
        cell_a=cell_a, cell_b=cell_b)


def _dirichlet_matrix(path, grid, lam):
    k, n, h = path.k, grid.n_cells, grid.h
    nodes = grid.nodes()
    eye = np.eye(k, dtype=np.complex128)
    m = (n - 1) * k
    a = np.zeros((m, m), dtype=np.complex128)
    for j in range(1, n):
        r = (j - 1) * k
        a[r:r + k, r:r + k] = (-1j * lam) * path.sample(nodes[j])
        if j + 1 <= n - 1:
            a[r:r + k, r + k:r + 2 * k] = (-1j / (2.0 * h)) * eye
        if j - 1 >= 1:
            a[r:r + k, r - k:r] = (1j / (2.0 * h)) * eye
    return a


def assemble(path: PotentialPath, grid: GridSpec, bc: str = "aps",
             lam: float = 1.0, tol: Tolerances = DEFAULT_TOL) -> DiscretizedDiracSchroedinger:
    """Assemble the discretized operator -i d/dt - i*lam*S(t) on [-L, L].

    ``bc`` selects the APS (rectangular, index-carrying) or Dirichlet
    (square, form-level) realization; see the module docstring.  The path
    extends constantly by its endpoint values beyond its declared grid.

    Raises NotInvertible when the path breaks its own declaration that S is
    invertible outside its support K: some grid sample outside K has a
    spectral gap below ``tol.proj_gap_tol``.  An APS assembly further
    raises NotInvertible when S is singular at an endpoint of [-L, L].
    """
    if bc not in ("aps", "dirichlet"):
        raise InvalidInput(f"unknown boundary condition {bc!r}")
    if not lam > 0:
        raise InvalidInput("coupling lam must be positive")
    t_worst, gap = path.least_gap_outside()
    if gap < tol.proj_gap_tol:
        raise NotInvertible(
            f"path declared invertible outside its support {path.support} "
            f"has gap {gap:.3e} at t={t_worst:g}, below proj_gap_tol "
            f"{tol.proj_gap_tol:.3e}")
    if bc == "aps":
        return _aps_operator(path, grid, lam, tol)
    return DiscretizedDiracSchroedinger(
        bc=bc, grid=grid, path=path, lam=lam,
        left_basis=None, right_basis=None, n_plus_left=0, n_minus_right=0)


@dataclass(frozen=True)
class IndexReport:
    """Index of an APS assembly with the certificate of its dimensions.

    ``route`` names what decided (dim ker, dim coker):

    * ``"transfer"``: the Cayley transfer kernel, certified by Sturm counts
      of the singular values of D.  ``threshold`` is svd_gap_cap times a
      lower bound of sigma_max: exactly dim ker - (cols - min(rows, cols))
      singular values lie below it.  ``sigma_next`` is svd_gap_cap times
      an upper bound of sigma_max, a lower bound of every other singular
      value.  ``gap_ratio`` is the ratio, in the transfer test matrix, of
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


def _dims_from_svd(matrix, tol):
    res = null_space(matrix, tol, want_basis=False)
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
# default svd_gap_cap 1e-6 clears the floor whenever the sigma_max bracket
# has lo >= 0.47 hi; a smaller configured cap leaves the count to the
# dense SVD.
_LEVEL_FLOOR = math.sqrt(1e3 * np.finfo(float).eps)


def _transfer_kernel(op, tol):
    """(dim ker D, gap ratio) by Cayley transfer.

    Every kernel vector starts at psi_0 in Ran L and follows
    psi_{j+1} = M_j psi_j with M_j = -B_j^{-1} A_j, so ker D is the set of
    starts whose psi_n lies in Ran R.  Each M_j is the Cayley transform of
    the Hermitian S(m_j), hence normal, and one batched SVD gives every
    cond(M_j).  The orthonormal basis L is carried along by plain products
    of the steps scaled to norm 1, with a QR only when the product g of the
    conds since the last QR would pass 1e-3 * svd_gap_cap / eps, and one at
    the end.  Rounding in such a product reaches the weakest carried
    direction amplified by up to g, so a cosine drifts by about eps * g
    before the closing QR; the limit holds that drift a thousand times
    below the cut svd_gap_cap (g <= 4.5e6 at the default cap 1e-6).
    The singular values of (1 - R R*) Q_n are the cosines of the principal
    angles between Ran Q_n and Ran P_-(S(+L)), and those below svd_gap_cap
    count as zero.  Raises LinAlgError when some B_j is singular
    (lam * s * h / 2 = -1 for an eigenvalue s of S(m_j)).
    """
    left, right = op.left_basis, op.right_basis
    if left.shape[1] == 0:
        return 0, float("inf")
    steps = np.linalg.solve(op.cell_b, -op.cell_a)
    s = np.linalg.svd(steps, compute_uv=False)
    steps /= np.where(s[:, 0] > 0.0, s[:, 0], 1.0)[:, None, None]
    conds = np.divide(s[:, 0], s[:, -1], out=np.full(s.shape[0], np.inf),
                      where=s[:, -1] > 0.0)
    limit = 1e-3 * tol.svd_gap_cap / np.finfo(float).eps
    q, growth = left, 1.0
    for step, cond in zip(steps, conds):
        # growth 1 means q is orthonormal up to scale: nothing to restore
        if growth > 1.0 and growth * cond > limit:
            q, growth = np.linalg.qr(q)[0], 1.0
        q, growth = step @ q, growth * cond
    q = np.linalg.qr(q)[0]
    cos = np.linalg.svd(q - right @ (right.conj().T @ q), compute_uv=False)
    if not np.all(np.isfinite(cos)):
        raise np.linalg.LinAlgError("transfer overflowed")
    rank = int(np.sum(cos >= tol.svd_gap_cap))
    zero_max = float(cos[rank]) if rank < cos.size else 0.0
    ratio = float(cos[rank - 1]) / zero_max if rank and zero_max > 0.0 else float("inf")
    return left.shape[1] - rank, ratio


def _sigma_max_bracket(op):
    """(lo, hi) with lo <= sigma_max(D) <= hi.

    hi is the Schur test sqrt(max row sum * max column sum) on the moduli
    of the unreduced block matrix, whose norm bounds D's (D restricts its
    columns by the isometry diag(L, 1, ..., 1, R)).  lo is the largest
    ||D x|| / ||x|| met by eight power steps on D*D from the alternating
    node vector, which lies near the top singular vector.  The iterate is
    normalised before D and again before D*, so it grows as sigma_max, not
    sigma_max^2, and stays finite wherever D's entries are.
    """
    a, b, left, right = op.cell_a, op.cell_b, op.left_basis, op.right_basis
    n, k = a.shape[0], a.shape[1]
    row = np.abs(a).sum(axis=2) + np.abs(b).sum(axis=2)
    col = np.zeros((n + 1, k))
    col[:-1] += np.abs(a).sum(axis=1)
    col[1:] += np.abs(b).sum(axis=1)
    hi = math.sqrt(float(row.max()) * float(col.max()))

    def restrict(psi):
        psi[0] = left @ (left.conj().T @ psi[0])
        psi[-1] = right @ (right.conj().T @ psi[-1])
        return psi

    psi = restrict(np.outer((-1.0) ** np.arange(n + 1), np.ones(k)).astype(np.complex128))
    lo = 0.0
    for _ in range(8):
        norm = float(np.linalg.norm(psi))
        if norm == 0.0:
            break
        psi /= norm
        y = np.einsum("jab,jb->ja", a, psi[:-1]) + np.einsum("jab,jb->ja", b, psi[1:])
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            break
        lo = max(lo, norm)
        y /= norm
        psi = np.zeros((n + 1, k), dtype=np.complex128)
        psi[:-1] += np.einsum("jba,jb->ja", a.conj(), y)
        psi[1:] += np.einsum("jba,jb->ja", b.conj(), y)
        restrict(psi)
    return lo, hi


def _sturm_counts(cell_a, cell_b, left, right, levels):
    """Number of singular values below each of ``levels`` (all > 0) of the
    block-bidiagonal D whose row block j holds cell_a[j] in column block j
    and cell_b[j] in column block j + 1, with column block 0 restricted by
    ``left`` and column block n by ``right``: D's first block is
    cell_a[0] @ left and its last cell_b[-1] @ right.

    The Golub-Kahan matrix K = [[0, D], [D*, 0]] has eigenvalues +-sigma
    and max(rows, cols) - min(rows, cols) zeros, and #(sigma < tau) is its
    count nu(K - tau) of negative eigenvalues minus max(rows, cols).  The
    count follows from odd-even block reduction (Buzbee, Golub and Nielson
    1970): eliminating every other block of a block tridiagonal matrix is a
    congruence, so by Sylvester's law nu is the count over the eliminated
    pivots plus that of the Schur complement, which is again block
    tridiagonal.

    * Round 1 eliminates every column block of K, whose pivots are all
      -tau; that accounts for cols negative eigenvalues and leaves
      (DD* - tau^2) / tau on the row blocks.  Scaled by tau > 0 this is
      T = DD* - tau^2, block tridiagonal with diagonal blocks
      a_j a_j* + b_j b_j* (the end blocks restricted by left and right)
      and couplings b_j a_{j+1}*, so #(sigma < tau) = nu(T) -
      max(0, rows - cols).  It is built once for all levels.
    * Each later round eliminates the blocks 0, 2, 4, ... of T with one
      batched eigh P = U diag(w) U* and applies each pivot inverse as
      x = U* F and x / w to the couplings F of its two neighbours.  The
      kept blocks 1, 3, 5, ... and their new couplings form the next T.
      With an even block count the last block is kept with no pivot to
      its right, which is what padding with a decoupled -1 block would
      give after subtracting that block's k negative eigenvalues.  One
      block is left at the end, and its eigenvalues are counted directly.

    The levels are reduced one after another, each on its own copy of
    DD* - tau^2 updated in place, so memory stays at a few copies of the
    blocks.  A pivot eigenvalue of modulus below pivmin is set to -pivmin
    and counts as negative, as in LAPACK's bisection (dstebz).  As there,
    pivmin is the smallest normal number times the square of the largest
    entry, which for the positive semidefinite DD* is its largest diagonal
    entry.  When that square overflows, LinAlgError is raised.
    """
    n, k = cell_a.shape[0], cell_a.shape[1]
    rows, cols = n * k, left.shape[1] + (n - 1) * k + right.shape[1]
    first, last = cell_a[0] @ left, cell_b[-1] @ right
    gram = cell_a @ cell_a.conj().swapaxes(1, 2)                # diagonal blocks of DD*
    coupling = cell_b[:-1] @ cell_a[1:].conj().swapaxes(1, 2)   # block (j, j + 1)
    gram[0] = first @ first.conj().T
    end = gram[-1] + last @ last.conj().T
    gram += cell_b @ cell_b.conj().swapaxes(1, 2)
    gram[-1] = end
    scale = float(np.abs(np.einsum("jaa->ja", gram)).max(initial=0.0))
    if not scale * scale < np.inf:
        raise np.linalg.LinAlgError("Sturm pivots out of floating-point range")
    pivmin = np.finfo(float).tiny * max(1.0, scale * scale)
    counts = []
    for tau in np.asarray(levels, dtype=float):
        diag, upper = gram - tau * tau * np.eye(k), coupling
        negative = -max(0, rows - cols)
        while diag.shape[0] > 1:
            w, u = np.linalg.eigh(diag[0::2])
            w = np.where(np.abs(w) < pivmin, -pivmin, w)
            negative += int(np.sum(w < 0.0))
            # pivot 2i meets block 2i + 1 through upper[2i] and, for i > 0,
            # block 2i - 1 through upper[2i - 1]*; with an even count the
            # last block is kept and has no right pivot
            kept, to_right, to_left = diag[1::2], upper[0::2], upper[1::2]
            x = u[:len(to_right)].conj().swapaxes(1, 2) @ to_right
            z = to_left @ u[1:len(to_left) + 1]
            y = x / w[:len(to_right), :, None]
            v = z / w[1:len(to_left) + 1, None, :]
            kept -= x.conj().swapaxes(1, 2) @ y
            kept[:len(to_left)] -= v @ z.conj().swapaxes(1, 2)
            diag, upper = kept, -v[:len(kept) - 1] @ x[1:]
        # the last block's eigenvalues, a clamped one counting as negative
        negative += int(np.sum(np.linalg.eigvalsh(diag[0]) < pivmin))
        counts.append(negative)
    return np.array(counts)


def _transfer_dims(op, tol):
    """Index dimensions by the transfer route, or None when it cannot
    certify them: the lower level svd_gap_cap * lo lies below the floor
    _LEVEL_FLOOR * hi where Sturm counts are reliable, some B_j is
    singular, or the Sturm counts at both ends of the svd_gap_cap *
    sigma_max bracket differ from the number of exact zero singular values
    that the transfer kernel implies."""
    rows, cols = op.shape
    lo, hi = _sigma_max_bracket(op)
    levels = (tol.svd_gap_cap * lo, tol.svd_gap_cap * hi)
    if not levels[0] >= _LEVEL_FLOOR * hi:
        return None
    try:
        dim_ker, ratio = _transfer_kernel(op, tol)
        counts = _sturm_counts(op.cell_a, op.cell_b, op.left_basis,
                               op.right_basis, levels)
    except np.linalg.LinAlgError:
        return None
    if np.any(counts != dim_ker - (cols - min(rows, cols))):
        return None
    return dim_ker, rows - cols + dim_ker, (), levels[1], ratio, levels[0], "transfer"


def _index_dims(op, tol):
    """(dim_ker, dim_coker, sigma_kernel, sigma_next, gap_ratio, threshold,
    route): the certified transfer route, else the dense SVD."""
    fast = _transfer_dims(op, tol)
    if fast is not None:
        return fast
    return _dims_from_svd(op.matrix, tol) + ("svd",)


def index_report(op: DiscretizedDiracSchroedinger, tol: Tolerances = DEFAULT_TOL,
                 refine_check: bool = True) -> IndexReport:
    """Numerical index of an APS assembly: dim ker - dim coker.

    The dimensions come from the Cayley transfer kernel when block Sturm
    counts of D's singular values confirm its count of exact zeros at
    svd_gap_cap * sigma_max, in O(n_cells k^3); otherwise from the
    singular-value clusters of the dense D (``opcore.null_space``, whose
    AmbiguousRank propagates).  ``IndexReport.route`` says which decided.

    The report carries the structural identity check
    index = k - n_+(S(-L)) - n_-(S(+L)) and, when ``refine_check`` is on,
    whether the extracted dimensions survive an h -> h/2 rerun.
    """
    if op.bc != "aps":
        raise InvalidInput("index_report requires an APS assembly")
    dim_ker, dim_coker, sig_ker, sig_next, ratio, thr, route = _index_dims(op, tol)
    index = dim_ker - dim_coker
    structural = op.structural_index
    refined_agrees = None
    if refine_check:
        refined = _aps_operator(op.path, op.grid.refined(), op.lam, tol)
        dk2, dc2, *_ = _index_dims(refined, tol)
        refined_agrees = (dk2 == dim_ker and dc2 == dim_coker)
    return IndexReport(index=index, dim_ker=dim_ker, dim_coker=dim_coker,
                       structural_index=structural,
                       structural_agrees=(index == structural),
                       refined_agrees=refined_agrees,
                       sigma_kernel=sig_ker, sigma_next=sig_next,
                       gap_ratio=ratio, threshold=thr,
                       shape=op.shape, lam=op.lam, route=route)


def _resolve_grid(grid, path: PotentialPath) -> GridSpec:
    """The grid for ``path``: ``grid`` itself, ``grid(path)`` when it is a
    rule, or ``GridSpec.auto(path)`` when it is None."""
    if grid is None:
        return GridSpec.auto(path)
    return grid(path) if callable(grid) else grid


def path_index_report(path: PotentialPath, grid=None, lam: float = 1.0,
                      tol: Tolerances = DEFAULT_TOL,
                      refine_check: bool = True) -> IndexReport:
    """``index_report`` of the APS assembly of ``path``.  ``grid`` is a
    GridSpec, a rule path -> GridSpec, or None for ``GridSpec.auto``."""
    return index_report(assemble(path, _resolve_grid(grid, path), "aps", lam, tol),
                        tol, refine_check=refine_check)


def kernel_vectors(op: DiscretizedDiracSchroedinger,
                   tol: Tolerances = DEFAULT_TOL) -> list:
    """Numerical kernel of an APS assembly as node-space functions
    (one complex array over the n_cells+1 grid nodes per kernel vector)."""
    res = null_space(op.matrix, tol, want_basis=True)
    return [op.domain_to_nodes(res.basis[:, j]) for j in range(res.dim)]


@dataclass(frozen=True)
class OracleIndex:
    dim_ker: int
    dim_coker: int
    index: int


def kernel_oracle_diagonal(path: PotentialPath,
                           tol: Tolerances = DEFAULT_TOL) -> OracleIndex:
    """Closed-form index for simultaneously diagonalizable paths.

    Each scalar branch s(t) of the commuting family solves psi' = -s psi
    up to a positive coupling, so it contributes a kernel vector exactly
    when s changes sign upward (s(start) < 0 < s(end)) and a cokernel
    vector when it changes sign downward.  The common eigenbasis V is that
    of a randomly weighted sum of the samples; a sample whose off-diagonal
    part in V exceeds 1e-10 (Frobenius norm, relative to the largest
    sample norm) raises NotDiagonalizable.
    """
    samples = np.stack([path.sample(t) for t in path.grid])
    scale = max(1.0, float(np.linalg.norm(samples, axis=(1, 2)).max()))
    rng = np.random.default_rng(0x5EED)
    weights = rng.uniform(0.5, 1.5, size=len(samples))
    _, v = eigh(sum(w * s for w, s in zip(weights, samples)), tol)
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


@dataclass(frozen=True)
class DoubledOperator:
    """Graded doubling [[0, D*], [D, 0]] of a square Dirichlet assembly.

    Anticommutes exactly with the grading diag(+1, -1) by block structure,
    and its spectrum is symmetric about 0 (eigenvalues are +-singular
    values of D).
    """

    matrix: np.ndarray
    grading: np.ndarray
    block_dim: int

    def anticommutator_norm(self) -> float:
        g, m = self.grading, self.matrix
        return float(np.linalg.norm(g @ m + m @ g, 2))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def doubled(op: DiscretizedDiracSchroedinger) -> DoubledOperator:
    if op.bc != "dirichlet":
        raise InvalidInput("doubled() requires a square Dirichlet assembly")
    d = op.matrix
    m = d.shape[0]
    mat = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    mat[:m, m:] = d.conj().T
    mat[m:, :m] = d
    grading = np.diag(np.concatenate([np.ones(m), -np.ones(m)])).astype(np.complex128)
    return DoubledOperator(matrix=mat, grading=grading, block_dim=m)


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
    samples = [path.sample(t) for t in ts]
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
    out = []
    for t, s, ds in zip(ts, samples, slopes):
        d_plus = float(np.linalg.norm(
            np.linalg.solve((s + 1j * eye).conj().T, ds.conj().T).conj().T, 2))
        d_minus = float(np.linalg.norm(
            np.linalg.solve((s - 1j * eye).conj().T, ds.conj().T).conj().T, 2))
        out.append((float(t), max(d_plus, d_minus)))
    return out, samples


def quintic_plateau(t, lo, hi, ramp):
    """1 on [lo, hi], quintic-smoothstep down to 0 over ``ramp`` outside."""
    if lo <= t <= hi:
        return 1.0
    d = (lo - t) if t < lo else (t - hi)
    if d >= ramp:
        return 0.0
    u = 1.0 - d / ramp
    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


def make_cutoff(k_hat: Tuple[float, float], amplitude: float,
                ramp: float) -> Callable[[float], float]:
    """Compactly supported cutoff: amplitude times a quintic-smoothstep
    plateau over the compact region, falling to 0 over ``ramp``."""
    lo, hi = k_hat

    def f(t: float) -> float:
        return amplitude * quintic_plateau(t, lo, hi, ramp)

    return f


def bound_constants(path: PotentialPath, k_hat: Optional[Tuple[float, float]] = None,
                    tol: Tolerances = DEFAULT_TOL):
    """(c, delta_out, delta_K, lambda0): the uniform invertibility bound and
    derivative-resolvent sups outside/inside the compact region, and the
    minimal coupling making the lower-bound threshold positive."""
    if k_hat is None:
        k_hat = path.hull()
    deltas, samples = _path_derivative_norms(path, k_hat)

    def outside(t):
        return k_hat is None or not (k_hat[0] <= t <= k_hat[1])

    gaps_out = [spectral_gap(s) for (t, _), s in zip(deltas, samples) if outside(t)]
    if not gaps_out:
        raise InvalidInput("no sample lies outside the compact region")
    c_hat = min(gaps_out)
    if c_hat < tol.proj_gap_tol:
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
    disc_slack: float
    second_statement: bool  # delta_hat < c^2/(c+1), so lambda0 = 1 suffices
    passed: bool


def fredholm_bounds(path: PotentialPath, lam: float,
                    f: Optional[Callable[[float], float]] = None,
                    grid: Optional[GridSpec] = None,
                    k_hat: Optional[Tuple[float, float]] = None,
                    disc_slack: float = 0.2,
                    tol: Tolerances = DEFAULT_TOL) -> FredholmBoundReport:
    """Verify the quantitative lower bound on the doubled operator.

    Computes c = inf gap(S) and delta = sup ||S'(S +- i)^{-1}|| outside the
    compact region, the threshold epsilon = (lam^2 c^2 - delta^2(1+1/c)^2)/2,
    and checks that the assembled doubled square plus the cutoff satisfies
    min eig >= epsilon * (1 - disc_slack).  The cutoff must dominate
    epsilon + (lam^2 + delta_K^2)/2 pointwise on the compact region.
    """
    if k_hat is None:
        k_hat = path.hull()
    c_hat, delta_hat, delta_k, lambda0 = bound_constants(path, k_hat, tol)
    epsilon = 0.5 * (lam ** 2 * c_hat ** 2 - delta_hat ** 2 * (1.0 + 1.0 / c_hat) ** 2)
    if epsilon <= 0.0:
        raise HypothesisUnmet(
            f"coupling lam={lam:g} below the positivity threshold "
            f"lambda0={lambda0:g}")
    second = delta_hat < c_hat ** 2 / (c_hat + 1.0)
    grid = _resolve_grid(grid, path)
    needed = epsilon + 0.5 * (lam ** 2 + delta_k ** 2)
    amplitude = math.sqrt(needed)
    if f is None:
        if k_hat is None:
            f = lambda t: 0.0
            amplitude = 0.0
        else:
            ramp = min(2.0, 0.5 * (grid.length - max(abs(k_hat[0]), abs(k_hat[1]))))
            if ramp <= 0:
                raise InvalidInput("grid too short for a compactly supported cutoff")
            f = make_cutoff(k_hat, amplitude, ramp)
    else:
        amplitude = max((abs(f(t)) for t in grid.nodes()), default=0.0)
    if k_hat is not None:
        for t in grid.nodes():
            if k_hat[0] <= t <= k_hat[1] and f(t) ** 2 + 1e-12 < needed:
                raise CutoffTooSmall(
                    f"f({t:g})^2 = {f(t) ** 2:g} below required level {needed:g}")
    op = assemble(path, grid, "dirichlet", lam, tol)
    d = op.matrix
    f_sq = np.repeat([f(t) ** 2 for t in grid.nodes()[1:-1]], path.k)
    m1 = d.conj().T @ d + np.diag(f_sq)
    m2 = d @ d.conj().T + np.diag(f_sq)
    min_eig = float(min(np.linalg.eigvalsh(m1).min(), np.linalg.eigvalsh(m2).min()))
    passed = min_eig >= epsilon * (1.0 - disc_slack)
    return FredholmBoundReport(
        c_hat=c_hat, delta_hat=delta_hat, delta_k=delta_k, lambda0=lambda0,
        epsilon=epsilon, min_eig=min_eig, f_amplitude=amplitude,
        disc_slack=disc_slack, second_statement=second, passed=passed)


@dataclass(frozen=True)
class SweepReport:
    lams: tuple
    indices: tuple
    passed: bool


def lambda_sweep(path: PotentialPath, lams, grid: Optional[GridSpec] = None,
                 tol: Tolerances = DEFAULT_TOL) -> SweepReport:
    """Index of the APS assembly across a list of couplings; the integers
    must all coincide."""
    grid = _resolve_grid(grid, path)
    indices = [path_index_report(path, grid, float(lam), tol, refine_check=False).index
               for lam in lams]
    return SweepReport(lams=tuple(float(x) for x in lams),
                       indices=tuple(indices),
                       passed=len(set(indices)) == 1)


@dataclass(frozen=True)
class PerturbationReport:
    base_index: int
    perturbed_index: int
    passed: bool


def perturbation_invariance(path: PotentialPath, perturbed: PotentialPath,
                            lam: float = 1.0, grid: Optional[GridSpec] = None,
                            tol: Tolerances = DEFAULT_TOL) -> PerturbationReport:
    """Exact index equality between a path and a compactly supported
    symmetric perturbation of it (the perturbation must vanish outside the
    support set, which the caller guarantees by construction)."""
    grid = _resolve_grid(grid, path)
    base = path_index_report(path, grid, lam, tol, refine_check=False)
    pert = path_index_report(perturbed, grid, lam, tol, refine_check=False)
    return PerturbationReport(base_index=base.index, perturbed_index=pert.index,
                              passed=base.index == pert.index)
