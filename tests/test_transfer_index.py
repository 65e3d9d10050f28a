"""The transfer route of index_report against the dense SVD route."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diracflow import callias, dirac1d, opcore
from diracflow.callias import tower_family, tower_scenario
from diracflow.dirac1d import GridSpec, assemble, index_report
from diracflow.errors import AmbiguousRank
from diracflow.scenarios import callias_case, chain_path
from diracflow.specflow import PotentialPath, constant_path, random_smooth_path, tanh_path
from sturm_sweep import as_cells, sweep_counts

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

    def sampler(ts):
        u = np.clip(ts / 2.0, 0.0, 1.0)[:, None, None]
        u = u * u * (3.0 - 2.0 * u)
        return (1.0 - u) * left + u * right + np.sin(math.pi * u) * bump

    return PotentialPath(k, np.linspace(-2.0, 4.0, 49), sampler,
                         support=((0.0, 2.0),), name=f"ramp({seed})")


def routes_agree(op):
    """The transfer route, when it certifies, gives the dense dims; it does
    not certify where the dense route finds no decisive gap."""
    fast = dirac1d._transfer_dims(op)
    try:
        dense = dirac1d._dims_from_svd(op.matrix)
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
        routes_agree(assemble(path, GridSpec(20.0, 160), "aps", lam))

    @SETTINGS
    @given(seed=st.integers(0, 100_000), k=st.integers(1, 5))
    def test_sf_paths(self, seed, k):
        routes_agree(assemble(random_smooth_path(seed, k), GridSpec(3.0, 64), "aps"))

    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 40))
    def test_tower_fibers(self, seed):
        for path in tower_family(tower_scenario(seed, (16,), n_fibers=2), 16):
            routes_agree(assemble(path, GridSpec(9.0, 30), "aps"))

    def test_reports_name_the_route(self):
        op = assemble(tanh_path(), GridSpec(8.0, 160), "aps")
        rep = index_report(op)
        assert rep.route == "transfer"
        assert (rep.dim_ker, rep.dim_coker) == (1, 0) and rep.refined_agrees
        assert rep.sigma_kernel == ()
        # the certified levels bracket the dense route's cut svd_gap_cap * sigma_max
        smax = np.linalg.svd(op.matrix, compute_uv=False)[0]
        cut = opcore._SVD_GAP_CAP * smax
        assert 0.5 * cut < rep.threshold <= cut <= rep.sigma_next < 2.0 * cut


class TestFallback:
    def test_tunnelling_pair_falls_back(self):
        # a branch crosses down and back up; tunnelling between the two
        # crossings leaves sigma = 8.3e-6, below the cut 1.35e-5, while the
        # exact discrete kernel is {0}
        (path,), lam, _, _ = callias_case(3866)
        grid = GridSpec.auto(path)
        op = assemble(path, grid, "aps", lam)
        assert dirac1d._transfer_dims(op) is None
        rep = index_report(op, refine_check=False)
        assert rep.route == "svd"
        assert (rep.dim_ker, rep.dim_coker) == (1, 2)

    def test_singular_step_falls_back(self):
        # h = 0.5, lam = 1: the eigenvalue -4 makes B_j = (-i/h)(1 + lam h S / 2)
        # singular in every cell
        path = constant_path(np.diag([-4.0, 1.0]), (-2.0, 2.0))
        op = assemble(path, GridSpec(2.0, 8), "aps", 1.0)
        assert np.abs(op.cell_b[:, 0, 0]).max() == 0.0
        assert dirac1d._transfer_dims(op) is None
        rep = index_report(op)
        assert rep.route == "svd"
        assert (rep.dim_ker, rep.dim_coker) == dirac1d._dims_from_svd(op.matrix)[:2]


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


def rough_blocks(rng, n, k, ends, zero_rows, scaled):
    """block_bidiagonal with n row blocks of k rows and end column blocks
    restricted to min(ends, k) columns, ``zero_rows`` of its block rows
    zero and, when ``scaled``, the others scaled over 1e-3 .. 1e3."""
    col_sizes = [min(ends[0], k)] + [k] * (n - 1) + [min(ends[1], k)]
    diag, upper, dense = block_bidiagonal(rng, [k] * n, col_sizes)
    if scaled:
        for j, f in enumerate(10.0 ** rng.uniform(-3.0, 3.0, size=n)):
            diag[j] *= f
            upper[j] *= f
            dense[j * k:(j + 1) * k] *= f
    for j in rng.choice(n, size=min(zero_rows, n), replace=False):
        diag[j][:] = 0.0
        upper[j][:] = 0.0
        dense[j * k:(j + 1) * k] = 0.0
    return diag, upper, dense


def sturm_counts(diag, upper, levels):
    """dirac1d._sturm_counts on the blocks of ``sweep_counts`` as
    #(sigma < tau): DD*'s counts less its max(0, rows - cols) zero
    eigenvalues beyond D's singular values."""
    gram, coupling = dirac1d._dd_star(*as_cells(diag, upper))
    lo, _ = dirac1d._sigma_max_bracket(gram, coupling)
    rows = sum(a.shape[0] for a in diag)
    cols = diag[0].shape[1] + sum(b.shape[1] for b in upper)
    return dirac1d._sturm_counts(gram, coupling, levels, lo * lo) - max(0, rows - cols)


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
        counts = sturm_counts(diag, upper, levels)
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
        counts = sturm_counts(diag, upper, [1e-6, 0.5 * s[s > 1e-12].min()])
        assert list(counts) == [2, 2]


class TestCyclicReduction:
    """_sturm_counts against the sequential sweep it replaced and the SVD."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), k=st.integers(1, 3),
           ends=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           zero_rows=st.integers(0, 3), scaled=st.booleans())
    def test_counts_match_sweep_and_svd(self, seed, n, k, ends, zero_rows, scaled):
        rng = np.random.default_rng(seed)
        diag, upper, dense = rough_blocks(rng, n, k, ends, zero_rows, scaled)
        s = np.linalg.svd(dense, compute_uv=False)
        smax = float(s.max(initial=0.0))
        if smax == 0.0:
            return
        levels = smax * 10.0 ** rng.uniform(-4.0, 0.1, size=6)
        # keep clear of the singular values, where rounding decides
        levels = levels[np.abs(levels[:, None] - s[None, :]).min(axis=1, initial=np.inf)
                        > 1e-6 * smax]
        counts = sturm_counts(diag, upper, levels)
        assert list(counts) == list(sweep_counts(diag, upper, levels))
        assert list(counts) == [int(np.sum(s < lv)) for lv in levels]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33])
    def test_block_counts_odd_and_even(self, n):
        # odd and even block counts in every round, on square and tall D
        rng = np.random.default_rng(n)
        for ends in ((2, 2), (0, 1), (2, 0)):
            diag, upper, dense = block_bidiagonal(
                rng, [2] * n, [ends[0]] + [2] * (n - 1) + [ends[1]])
            s = np.linalg.svd(dense, compute_uv=False)
            levels = 0.5 * (np.sort(s)[:-1] + np.sort(s)[1:])
            counts = sturm_counts(diag, upper, levels)
            assert list(counts) == list(sweep_counts(diag, upper, levels))
            assert list(counts) == [int(np.sum(s < lv)) for lv in levels]


    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_exact_ties_count_as_below_like_the_sweep(self, n):
        # D = 2 * shift: every singular value is exactly 2 (one is 0 when
        # kr = 0), so at tau = 2 every pivot of DD* - tau^2 is exactly 0;
        # the clamp counts those as negative, as the sweep does
        for kl, kr in ((1, 1), (0, 1), (1, 0)):
            diag = [np.zeros((1, kl if j == 0 else 1)) for j in range(n)]
            upper = [np.full((1, kr if j == n - 1 else 1), 2.0) for j in range(n)]
            counts = sturm_counts(diag, upper, [2.0, 1.0])
            assert list(counts) == list(sweep_counts(diag, upper, [2.0, 1.0]))
            assert list(counts) == [n, 0 if kr else 1]


def dd_star(op):
    return dirac1d._dd_star(op.cell_a, op.cell_b, op.left_basis, op.right_basis)


def magnified(op, factor):
    """op with D multiplied by ``factor``."""
    return dataclasses.replace(op, cell_a=factor * op.cell_a, cell_b=factor * op.cell_b)


def counting(monkeypatch, *names):
    """Count calls of the named numpy.linalg kernels."""
    calls = Counter()
    for name in names:
        kernel = getattr(np.linalg, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestCallCounts:
    """The index route takes O(log n_cells) eigh calls and few QRs."""

    def test_sturm_counts_take_log_many_eigh_calls(self, monkeypatch):
        n = 640
        op = assemble(tanh_path(), GridSpec(8.0, n), "aps")
        calls = counting(monkeypatch, "eigh", "eigvalsh")
        gram, coupling = dd_star(op)
        lo, _ = dirac1d._sigma_max_bracket(gram, coupling)
        counts = dirac1d._sturm_counts(gram, coupling, [1e-5, 2e-5], lo * lo)
        assert list(counts) == [0, 0]
        assert calls["eigh"] + calls["eigvalsh"] <= 2 * (math.ceil(math.log2(n)) + 2)

    @pytest.mark.parametrize("path, lam, dim_ker", [
        (tanh_path(), 1.0, 1),
        (ramp_path(7, 3, 1, 2), 1.3, 0),    # k = 3: the steps' conds exceed 1
    ])
    def test_transfer_takes_few_qrs(self, monkeypatch, path, lam, dim_ker):
        n = 640
        op = assemble(path, GridSpec(8.0, n), "aps", lam)
        calls = counting(monkeypatch, "qr")
        assert dirac1d._transfer_kernel(op)[0] == dim_ker
        assert calls["qr"] <= n / 4


def transfer_kernel_loop(op):
    """`dirac1d._transfer_kernel` with every cell solved, repeats included:
    (dim ker, gap ratio)."""
    left, right = op.left_basis, op.right_basis
    if left.shape[1] == 0:
        return 0, float("inf")
    steps = np.linalg.solve(op.cell_b, -op.cell_a)
    s = np.linalg.svd(steps, compute_uv=False)
    steps /= np.where(s[:, 0] > 0.0, s[:, 0], 1.0)[:, None, None]
    conds = np.divide(s[:, 0], s[:, -1], out=np.full(s.shape[0], np.inf),
                      where=s[:, -1] > 0.0)
    cap = opcore._SVD_GAP_CAP
    limit = 1e-3 * cap / np.finfo(float).eps
    q, growth = left, 1.0
    for step, cond in zip(steps, conds):
        if growth > 1.0 and growth * cond > limit:
            q, growth = np.linalg.qr(q)[0], 1.0
        q, growth = step @ q, growth * cond
    q = np.linalg.qr(q)[0]
    cos = np.linalg.svd(q - right @ (right.conj().T @ q), compute_uv=False)
    rank = int(np.sum(cos >= cap))
    zero_max = float(cos[rank]) if rank < cos.size else 0.0
    ratio = float(cos[rank - 1]) / zero_max if rank and zero_max > 0.0 else float("inf")
    return left.shape[1] - rank, ratio


class TestRepeatedCells:
    @pytest.mark.parametrize("fiber", [0, 1])
    def test_tower_fiber_solves_only_its_distinct_cells(self, monkeypatch, fiber):
        path = tower_family(tower_scenario(3, (16,), n_fibers=2), 16)[fiber]
        op = assemble(path, callias._TOWER_GRID, "aps")
        expected = transfer_kernel_loop(op)
        # the fiber is constant for t <= -1 and for t >= 1, so only the
        # cells with a midpoint in (-1, 1) and the first cell on either
        # side differ from the cell before them
        distinct = int(np.sum(np.abs(callias._TOWER_GRID.midpoints()) < 1.0)) + 2
        assert distinct < callias._TOWER_GRID.n_cells / 4
        solved = []
        solve = np.linalg.solve

        def counted(a, b):
            solved.append(a.shape[0])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        assert dirac1d._transfer_kernel(op) == expected
        assert solved == [distinct]


class TestGrowthBoundedTransfer:
    def test_qr_after_every_cell_when_every_step_exceeds_the_limit(self, monkeypatch):
        # S = diag(c, tanh 2t) with lam h c / 2 = 1 - 1e-8: every step damps
        # e1 by 5e-9 and keeps e2, so cond(M_j) ~ 2e8 exceeds the limit
        grid = GridSpec(4.0, 40)
        c = 2.0 * (1.0 - 1e-8) / grid.h
        path = PotentialPath(2, np.linspace(-4.0, 4.0, 81),
                             lambda ts: np.stack([np.diag([c, math.tanh(2.0 * t)])
                                                 for t in ts.tolist()]),
                             support=((-1.0, 1.0),))
        op = assemble(path, grid, "aps")
        s = np.linalg.svd(np.linalg.solve(op.cell_b, -op.cell_a), compute_uv=False)
        assert np.all(s[:, 0] / s[:, -1] > 1e-3 * opcore._SVD_GAP_CAP / np.finfo(float).eps)
        calls = counting(monkeypatch, "qr")
        fast = dirac1d._transfer_dims(op)
        assert calls["qr"] == grid.n_cells
        assert fast is not None
        assert fast[:2] == dirac1d._dims_from_svd(op.matrix)[:2] == (1, 0)

    def test_limit_follows_the_configured_cap(self, monkeypatch):
        # a smaller cap lowers the growth limit, so the carry takes more QRs
        op = assemble(ramp_path(7, 3, 1, 2), GridSpec(8.0, 640), "aps", 1.3)
        calls = counting(monkeypatch, "qr")
        qrs = []
        for cap in (1e-6, 1e-9):
            monkeypatch.setattr(opcore, "_SVD_GAP_CAP", cap)
            calls.clear()
            assert dirac1d._transfer_kernel(op)[0] == 0
            qrs.append(calls["qr"])
        assert qrs[1] > qrs[0]

    def test_tower_fiber_k16_matches_dense(self):
        for path in tower_family(tower_scenario(3, (16,), n_fibers=2), 16):
            op = assemble(path, GridSpec(9.0, 64), "aps")
            assert op.k == 16
            fast = dirac1d._transfer_dims(op)
            assert fast is not None
            assert fast[:2] == dirac1d._dims_from_svd(op.matrix)[:2]


class TestCountFloor:
    """Sturm counts of DD* - tau^2 decide only above tau^2 ~ 1e3 eps sigma_max^2."""

    @pytest.mark.parametrize("make", [
        lambda: assemble(tanh_path(), GridSpec(8.0, 160), "aps"),
        lambda: assemble(ramp_path(7, 3, 1, 2), GridSpec(5.0, 60), "aps", 1.3),
        lambda: assemble(tower_family(tower_scenario(3, (16,), n_fibers=2), 16)[1],
                         GridSpec(9.0, 30), "aps"),
    ])
    def test_cap_below_the_floor_takes_the_dense_route(self, make, monkeypatch):
        op = make()
        assert dirac1d._transfer_dims(op) is not None
        monkeypatch.setattr(opcore, "_SVD_GAP_CAP", 1e-9)
        assert dirac1d._transfer_dims(op) is None
        rep = index_report(op, refine_check=False)
        assert rep.route == "svd"
        assert (rep.dim_ker, rep.dim_coker) == dirac1d._dims_from_svd(op.matrix)[:2]

    # no step of DD*, the bracket, the counts or the SVD may overflow on the
    # way (pyproject.toml turns every RuntimeWarning into an error)
    def test_huge_entries_take_the_dense_route(self):
        # sigma_max ~ 1e81: the square in pivmin overflows, the dense SVD decides
        big = magnified(assemble(tanh_path(), GridSpec(8.0, 160), "aps"), 1e80)
        gram, coupling = dd_star(big)
        lo, _ = dirac1d._sigma_max_bracket(gram, coupling)
        with pytest.raises(np.linalg.LinAlgError):
            dirac1d._sturm_counts(gram, coupling, [1e75], lo * lo)
        assert dirac1d._transfer_dims(big) is None
        rep = index_report(big, refine_check=False)
        assert rep.route == "svd" and (rep.dim_ker, rep.dim_coker) == (1, 0)

    def test_overflowing_dd_star_takes_the_dense_route(self):
        # entries ~1e161: DD*'s entries ~1e322 overflow, the dense SVD decides
        big = magnified(assemble(tanh_path(), GridSpec(8.0, 160), "aps"), 1e160)
        gram, _ = dd_star(big)
        assert not np.all(np.isfinite(gram))
        assert dirac1d._transfer_dims(big) is None
        rep = index_report(big, refine_check=False)
        assert rep.route == "svd" and (rep.dim_ker, rep.dim_coker) == (1, 0)


def d_blocks(op):
    """D's blocks in the form ``sweep_counts`` takes: (diag, upper)."""
    return ([op.cell_a[0] @ op.left_basis, *op.cell_a[1:]],
            [*op.cell_b[:-1], op.cell_b[-1] @ op.right_basis])


def rounds_of(monkeypatch):
    """Log the type of each reduction round of _sturm_counts: "cholesky"
    when the batched factorisation gives the inertia, else "eigh"."""
    rounds = []
    inverse_cholesky = dirac1d._inverse_cholesky

    def logged(pivots):
        inv = inverse_cholesky(pivots)
        rounds.append("eigh" if inv is None else "cholesky")
        return inv

    monkeypatch.setattr(dirac1d, "_inverse_cholesky", logged)
    return rounds


def n_rounds(blocks):
    """Number of odd-even reduction rounds from ``blocks`` blocks to one."""
    return max(0, int(blocks).bit_length() - 1)


class TestPivotInertia:
    """Each reduction round takes its pivots' inertia from one batched
    Cholesky factorisation, and from eigh where that fails."""

    @pytest.mark.parametrize("make", [
        lambda: assemble(tanh_path(), GridSpec(8.0, 160), "aps"),
        lambda: assemble(ramp_path(7, 3, 1, 2), GridSpec(5.0, 60), "aps", 1.3),
        lambda: assemble(tower_family(tower_scenario(3, (16,), n_fibers=2), 16)[1],
                         GridSpec(9.0, 30), "aps"),
    ])
    def test_every_round_factorises_on_a_fibre(self, monkeypatch, make):
        # at the route's own levels every pivot of DD* - tau^2 is positive
        # definite here, so no eigh runs; the ramp's D is tall, and its one
        # negative eigenvalue is counted in the last block
        op = make()
        gram, coupling = dd_star(op)
        lo, hi = dirac1d._sigma_max_bracket(gram, coupling)
        levels = [opcore._SVD_GAP_CAP * lo, opcore._SVD_GAP_CAP * hi]
        rounds = rounds_of(monkeypatch)
        calls = counting(monkeypatch, "eigh", "eigvalsh")
        counts = dirac1d._sturm_counts(gram, coupling, levels, lo * lo)
        assert rounds == ["cholesky"] * (2 * n_rounds(op.grid.n_cells))
        assert calls == {"eigvalsh": 2}
        rows, cols = op.shape
        assert list(counts) == [max(0, rows - cols)] * 2
        assert list(counts - max(0, rows - cols)) == list(sweep_counts(*d_blocks(op), levels))

    @pytest.mark.parametrize("n", [2, 5, 8, 17])
    @pytest.mark.parametrize("ends", [(2, 0), (0, 1), (2, 2)])
    def test_indefinite_pivots_take_an_eigh_round(self, monkeypatch, n, ends):
        # between the singular values DD* - tau^2 is indefinite, and on a
        # tall D (rows > cols) it has the eigenvalue -tau^2; above sigma_max
        # it is negative definite, and so is every pivot: each round is eigh
        rng = np.random.default_rng(n)
        diag, upper, dense = block_bidiagonal(rng, [2] * n, [ends[0]] + [2] * (n - 1) + [ends[1]])
        s = np.sort(np.linalg.svd(dense, compute_uv=False))
        rounds = rounds_of(monkeypatch)
        for level in [*(0.5 * (s[:-1] + s[1:])), 2.0 * s[-1]]:
            rounds.clear()
            counts = sturm_counts(diag, upper, [level])
            assert list(counts) == list(sweep_counts(diag, upper, [level]))
            assert list(counts) == [int(np.sum(s < level))]
        assert rounds == ["eigh"] * n_rounds(n)

    def test_non_finite_blocks_raise_and_leave_the_route(self, monkeypatch):
        # a nan coupling with a finite diagonal passes the scale test and the
        # first round's factorisation, then fills the Schur complement: the
        # second round falls back to eigh, whose pivots are not finite
        op = assemble(tanh_path(), GridSpec(8.0, 160), "aps")
        gram, coupling = dd_star(op)
        coupling[5] = np.nan
        lo, _ = dirac1d._sigma_max_bracket(gram, coupling)
        assert math.isfinite(lo)
        rounds = rounds_of(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError, match="Sturm pivots"):
            dirac1d._sturm_counts(gram, coupling, [1e-5], lo * lo)
        assert rounds == ["cholesky", "eigh"]
        monkeypatch.setattr(dirac1d, "_dd_star", lambda *cells: (gram, coupling))
        assert dirac1d._transfer_kernel(op)[0] == 1
        assert dirac1d._transfer_dims(op) is None


class TestSigmaMaxBracket:
    @pytest.mark.parametrize("k, seed", [(1, 0), (3, 1), (4, 2)])
    def test_brackets_sigma_max(self, k, seed):
        path = chain_path(seed, k, n_intervals=2)
        op = assemble(path, GridSpec(8.0, 80), "aps", 1.7)
        lo, hi = dirac1d._sigma_max_bracket(*dd_star(op))
        smax = np.linalg.svd(op.matrix, compute_uv=False)[0]
        assert lo <= smax * (1 + 1e-12) and smax <= hi * (1 + 1e-12)
        assert hi / lo < 1.5

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), k=st.integers(1, 4),
           ends=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           zero_rows=st.integers(0, 3), scaled=st.booleans())
    def test_brackets_sigma_max_of_random_blocks(self, seed, n, k, ends, zero_rows,
                                                 scaled):
        rng = np.random.default_rng(seed)
        diag, upper, dense = rough_blocks(rng, n, k, ends, zero_rows, scaled)
        lo, hi = dirac1d._sigma_max_bracket(*dirac1d._dd_star(*as_cells(diag, upper)))
        smax = float(np.linalg.svd(dense, compute_uv=False).max(initial=0.0))
        assert lo <= smax * (1 + 1e-12) and smax <= hi * (1 + 1e-12)

    def test_huge_entries_keep_the_bracket(self):
        # sigma_max ~ 1e81: DD*'s entries ~1e162 stay in range
        op = assemble(tanh_path(), GridSpec(8.0, 160), "aps")
        lo, hi = dirac1d._sigma_max_bracket(*dd_star(op))
        big_lo, big_hi = dirac1d._sigma_max_bracket(*dd_star(magnified(op, 1e80)))
        assert big_lo / 1e80 == pytest.approx(lo, rel=1e-12)
        assert big_hi / 1e80 == pytest.approx(hi, rel=1e-12)


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
