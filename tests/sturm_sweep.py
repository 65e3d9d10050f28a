"""Reference Sturm counts for the tests: the sequential block LDL* sweep.

``dirac1d._sturm_counts`` counts by odd-even reduction of DD* - tau^2.  This
sweep counts the same singular values the plain way, one O(k^3) pivot per
block of the Golub-Kahan matrix, and stays here as its oracle.
"""

import numpy as np


def sweep_counts(diag, upper, levels):
    """Number of singular values below each of ``levels`` (all > 0) of the
    block-bidiagonal D whose row block j holds diag[j] in column block j
    and upper[j] in column block j + 1.

    The Golub-Kahan matrix K = [[0, D], [D*, 0]] has eigenvalues +-sigma
    and max(rows, cols) - min(rows, cols) zeros, so
    #(sigma < tau) = nu(K - tau) - max(rows, cols), where nu counts the
    negative eigenvalues.  In the block order c_0, r_0, c_1, r_1, ..., c_n
    (column and row blocks of D) K is block tridiagonal with zero diagonal
    and couplings E = diag[j]* (c_j to r_j) and upper[j] (r_j to c_{j+1}).
    By Sylvester's law nu is the number of negative eigenvalues of the
    pivots of its block LDL* sweep, P_0 = -tau and
    P_{i+1} = -tau - E_i* P_i^{-1} E_i, one O(k^3) step per block; all
    levels share the sweep.  A pivot eigenvalue of modulus below pivmin is
    set to -pivmin, as LAPACK's bisection (dstebz) does.
    """
    levels = np.asarray(levels, dtype=float)
    couplings = []
    for a, b in zip(diag, upper):
        couplings += [a.conj().T, b]
    rows = sum(a.shape[0] for a in diag)
    cols = diag[0].shape[1] + sum(b.shape[1] for b in upper)
    entries = np.concatenate([e.ravel() for e in couplings])
    pivmin = np.finfo(float).tiny * max(1.0, float(np.abs(entries).max(initial=0.0)) ** 2)
    shifts = {d: -levels[:, None, None] * np.eye(d)
              for d in {diag[0].shape[1], *(e.shape[1] for e in couplings)}}
    pivot = shifts[diag[0].shape[1]]
    pivots = []
    for e in couplings:
        w, u = np.linalg.eigh(pivot)
        w = np.where(np.abs(w) < pivmin, -pivmin, w)
        pivots.append(w)
        x = u.conj().swapaxes(1, 2) @ e
        pivot = shifts[e.shape[1]] - x.conj().swapaxes(1, 2) @ (x / w[:, :, None])
    pivots.append(np.linalg.eigvalsh(pivot))
    # a clamped eigenvalue counts as negative
    negative = np.sum(np.concatenate(pivots, axis=1) < pivmin, axis=1)
    return negative - max(rows, cols)


def as_cells(diag, upper):
    """The blocks of ``sweep_counts`` in the form ``_sturm_counts`` takes:
    (cell_a, cell_b, left, right) with cell_a[0] @ left = diag[0] and
    cell_b[-1] @ right = upper[-1].  The end blocks are zero-padded to
    k x k and restricted by the first columns of the identity."""
    k = diag[0].shape[0]
    eye = np.eye(k)

    def padded(block):
        out = np.zeros((k, k), dtype=np.complex128)
        out[:, :block.shape[1]] = block
        return out

    cell_a = np.stack([padded(diag[0]), *diag[1:]])
    cell_b = np.stack([*upper[:-1], padded(upper[-1])])
    return cell_a, cell_b, eye[:, :diag[0].shape[1]], eye[:, :upper[-1].shape[1]]
