"""The transfer route of index_report against the dense SVD route."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diracflow import dirac1d
from diracflow.callias import make_tower_scenario
from diracflow.dirac1d import GridSpec, assemble, index_report
from diracflow.errors import AmbiguousRank
from diracflow.opcore import DEFAULT_TOL
from diracflow.scenarios import callias_case, chain_path, sf_path
from diracflow.specflow import PotentialPath, constant_path, tanh_path

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def ramp_path(seed, k, neg_left, neg_right):
    """Plateaus with neg_left / neg_right negative eigenvalues, joined over
    [0, 2] by a smoothstep ramp plus a random Hermitian bump."""
    rng = np.random.default_rng(seed)

    def plateau(n_neg):
        q, _ = np.linalg.qr(rng.standard_normal((k, k))
                            + 1j * rng.standard_normal((k, k)))
        mags = rng.uniform(1.0, 2.5, size=k)
        signs = np.where(np.arange(k) < n_neg, -1.0, 1.0)
        return (q * (mags * signs)) @ q.conj().T

    left, right = plateau(neg_left), plateau(neg_right)
    b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    bump = 0.8 * (b + b.conj().T) / max(2.0, np.linalg.norm(b + b.conj().T, 2))

    def sampler(t):
        u = min(max(t / 2.0, 0.0), 1.0)
        u = u * u * (3.0 - 2.0 * u)
        return (1.0 - u) * left + u * right + math.sin(math.pi * u) * bump

    return PotentialPath(k, np.linspace(-2.0, 4.0, 49), sampler,
                         support=((0.0, 2.0),), name=f"ramp({seed})")


def routes_agree(op):
    """The transfer route, when it certifies, gives the dense dims; it does
    not certify where the dense route finds no decisive gap."""
    fast = dirac1d._transfer_dims(op, DEFAULT_TOL)
    try:
        dense = dirac1d._dims_from_svd(op.matrix, DEFAULT_TOL)
    except AmbiguousRank:
        assert fast is None
        return fast
    if fast is not None:
        assert fast[:2] == dense[:2]
    return fast


class TestRoutesAgree:
    @SETTINGS
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 4),
           neg=st.tuples(st.integers(0, 4), st.integers(0, 4)))
    def test_ramp_paths_all_shapes(self, seed, k, neg):
        neg_left, neg_right = min(neg[0], k), min(neg[1], k)
        op = assemble(ramp_path(seed, k, neg_left, neg_right),
                      GridSpec(5.0, 60), "aps", 1.3)
        assert op.left_basis.shape[1] == neg_left
        assert op.right_basis.shape[1] == k - neg_right
        routes_agree(op)

    @pytest.mark.parametrize("neg_left, neg_right, shape", [
        (0, 1, "tall"),     # kl = 0
        (2, 3, "tall"),     # kr = 0
        (1, 2, "tall"),
        (2, 1, "wide"),
        (3, 1, "wide"),
        (1, 1, "square"),
        (0, 0, "square"),   # kl = 0
        (3, 3, "square"),   # kr = 0
    ])
    def test_ramp_path_shapes_certified(self, neg_left, neg_right, shape):
        op = assemble(ramp_path(7, 3, neg_left, neg_right),
                      GridSpec(5.0, 60), "aps", 1.3)
        rows, cols = op.shape
        assert shape == ("tall" if rows > cols else "wide" if rows < cols else "square")
        assert routes_agree(op) is not None

    @SETTINGS
    @given(seed=st.integers(0, 100_000), k=st.integers(1, 4),
           m=st.integers(1, 3), lam=st.floats(0.5, 2.5))
    def test_chain_paths(self, seed, k, m, lam):
        path = chain_path(seed, k, n_intervals=m)
        routes_agree(assemble(path, GridSpec.auto(path, 0.25, 1e-4), "aps", lam))

    @SETTINGS
    @given(seed=st.integers(0, 100_000), k=st.integers(1, 5))
    def test_sf_paths(self, seed, k):
        routes_agree(assemble(sf_path(seed, k), GridSpec(3.0, 64), "aps"))

    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 40))
    def test_tower_fibers(self, seed):
        builder, _ = make_tower_scenario(seed, n_fibers=2, base_dim=16)
        for path in builder(16).paths:
            routes_agree(assemble(path, GridSpec(9.0, 30), "aps"))

    def test_reports_name_the_route(self):
        op = assemble(tanh_path(), GridSpec(8.0, 160), "aps")
        rep = index_report(op)
        assert rep.route == "transfer"
        assert (rep.dim_ker, rep.dim_coker) == (1, 0) and rep.refined_agrees
        assert rep.sigma_kernel == ()
        # the certified levels bracket the dense route's cut svd_gap_cap * sigma_max
        smax = np.linalg.svd(op.matrix, compute_uv=False)[0]
        cut = DEFAULT_TOL.svd_gap_cap * smax
        assert 0.5 * cut < rep.threshold <= cut <= rep.sigma_next < 2.0 * cut


class TestFallback:
    def test_tunnelling_pair_falls_back(self):
        # a branch crosses down and back up; tunnelling between the two
        # crossings leaves sigma = 8.3e-6, below the cut 1.35e-5, while the
        # exact discrete kernel is {0}
        path, lam, _, _ = callias_case(3866)
        grid = GridSpec.auto(path, h_target=0.15, decay=1e-6)
        op = assemble(path, grid, "aps", lam)
        assert dirac1d._transfer_dims(op, DEFAULT_TOL) is None
        rep = index_report(op, refine_check=False)
        assert rep.route == "svd"
        assert (rep.dim_ker, rep.dim_coker) == (1, 2)

    def test_singular_step_falls_back(self):
        # h = 0.5, lam = 1: the eigenvalue -4 makes B_j = (-i/h)(1 + lam h S / 2)
        # singular in every cell
        path = constant_path(np.diag([-4.0, 1.0]), (-2.0, 2.0))
        op = assemble(path, GridSpec(2.0, 8), "aps", 1.0)
        assert np.abs(op.cell_b[:, 0, 0]).max() == 0.0
        assert dirac1d._transfer_dims(op, DEFAULT_TOL) is None
        rep = index_report(op)
        assert rep.route == "svd"
        assert (rep.dim_ker, rep.dim_coker) == dirac1d._dims_from_svd(
            op.matrix, DEFAULT_TOL)[:2]


def block_bidiagonal(rng, row_sizes, col_sizes):
    """Random blocks and the dense matrix: row block j meets column blocks
    j (diag) and j + 1 (upper)."""
    diag, upper = [], []
    for j, r in enumerate(row_sizes):
        diag.append(rng.standard_normal((r, col_sizes[j]))
                    + 1j * rng.standard_normal((r, col_sizes[j])))
        upper.append(rng.standard_normal((r, col_sizes[j + 1]))
                     + 1j * rng.standard_normal((r, col_sizes[j + 1])))
    rows, cols = np.cumsum([0, *row_sizes]), np.cumsum([0, *col_sizes])
    dense = np.zeros((rows[-1], cols[-1]), dtype=np.complex128)
    for j in range(len(row_sizes)):
        dense[rows[j]:rows[j + 1], cols[j]:cols[j + 1]] = diag[j]
        dense[rows[j]:rows[j + 1], cols[j + 1]:cols[j + 2]] = upper[j]
    return diag, upper, dense


class TestSturmCounts:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), k=st.integers(1, 4),
           ends=st.tuples(st.integers(0, 4), st.integers(0, 4)))
    def test_counts_match_svd(self, seed, n, k, ends):
        rng = np.random.default_rng(seed)
        col_sizes = [min(ends[0], k)] + [k] * (n - 1) + [min(ends[1], k)]
        diag, upper, dense = block_bidiagonal(rng, [k] * n, col_sizes)
        s = np.linalg.svd(dense, compute_uv=False)
        levels = rng.uniform(0.0, 1.2, size=5) * max(float(s.max(initial=0.0)), 1.0)
        # keep clear of the singular values, where rounding decides
        levels = levels[np.abs(levels[:, None] - s[None, :]).min(axis=1, initial=np.inf)
                        > 1e-8 * max(1.0, float(s.max(initial=0.0)))]
        counts = dirac1d._sturm_counts(diag, upper, levels)
        assert list(counts) == [int(np.sum(s < lv)) for lv in levels]

    def test_rank_deficient_blocks(self):
        # a zero block row (two rows) makes two exact zero singular values
        rng = np.random.default_rng(3)
        diag, upper, dense = block_bidiagonal(rng, [2, 2, 2], [1, 2, 2, 2])
        diag[1][:] = 0.0
        upper[1][:] = 0.0
        dense[2:4] = 0.0
        s = np.linalg.svd(dense, compute_uv=False)
        assert int(np.sum(s < 1e-12)) == 2
        counts = dirac1d._sturm_counts(diag, upper, [1e-6, 0.5 * s[s > 1e-12].min()])
        assert list(counts) == [2, 2]


class TestSigmaMaxBracket:
    @pytest.mark.parametrize("k, seed", [(1, 0), (3, 1), (4, 2)])
    def test_brackets_sigma_max(self, k, seed):
        path = chain_path(seed, k, n_intervals=2)
        op = assemble(path, GridSpec(8.0, 80), "aps", 1.7)
        lo, hi = dirac1d._sigma_max_bracket(op)
        smax = np.linalg.svd(op.matrix, compute_uv=False)[0]
        assert lo <= smax * (1 + 1e-12) and smax <= hi * (1 + 1e-12)
        assert hi / lo < 1.5


def test_dense_matrix_is_block_bidiagonal():
    path = chain_path(5, 2)
    op = assemble(path, GridSpec(6.0, 12), "aps", 1.1)
    d = op.matrix
    kl = op.left_basis.shape[1]
    assert d.shape == op.shape
    np.testing.assert_allclose(d[:2, :kl], op.cell_a[0] @ op.left_basis, atol=1e-12)
    np.testing.assert_array_equal(d[2:4, kl:kl + 2], op.cell_a[1])
    np.testing.assert_array_equal(d[2:4, kl + 2:kl + 4], op.cell_b[1])
    h = op.grid.h
    s_mid = path.sample(op.grid.midpoints()[3])
    np.testing.assert_array_equal(op.cell_a[3], (1j / h) * np.eye(2) - (0.5j * 1.1) * s_mid)
