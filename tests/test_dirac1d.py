import math

import numpy as np
import pytest

from diracflow import dirac1d, opcore
from diracflow.dirac1d import (
    GridSpec,
    assemble,
    bound_constants,
    fredholm_bounds,
    index_report,
    kernel_oracle_diagonal,
    kernel_vectors,
    path_index_report,
)
from diracflow.errors import (
    HypothesisUnmet,
    InvalidInput,
    NotDiagonalizable,
    NotInvertible,
)
from diracflow.scenarios import chain_path, engineered_threshold_path
from diracflow.specflow import (
    PotentialPath,
    constant_path,
    conjugated_path,
    diagonal_path,
    tanh_path,
)

GRID = GridSpec(8.0, 320)  # h = 0.05


def neg_tanh_path():
    return diagonal_path([lambda t: -math.tanh(t)], (-10, 10), 161,
                         support=((-1.5, 1.5),), name="neg-tanh")


def pair_path():
    return diagonal_path([math.tanh, lambda t: -math.tanh(t)], (-10, 10), 161,
                         support=((-1.5, 1.5),), name="diag-pair")


class TestGridSpec:
    def test_spacing(self):
        g = GridSpec(8.0, 320)
        assert g.h == pytest.approx(0.05)
        assert g.nodes().size == 321
        assert g.midpoints().size == 320

    def test_auto_obeys_decay_rule(self):
        p = tanh_path()
        g = GridSpec.auto(p)
        c = p.least_gap_outside()[1]
        b = max(abs(x) for x in p.hull())
        assert math.exp(-c * (g.length - b)) <= 1e-6 * (1 + 1e-9)

    def test_auto_needs_invertible_outside(self):
        p = PotentialPath(1, np.linspace(-1, 1, 9),
                          lambda ts: ts[:, None, None], support=((-1, 1),))
        with pytest.raises(NotInvertible):
            GridSpec.auto(p)


class TestAssembly:
    def test_dirichlet_shape_bookkeeping(self):
        p = constant_path(np.array([[1.0]]), (-2, 2))
        op = assemble(p, GridSpec(2.0, 4), "dirichlet")
        assert op.matrix.shape == (3, 3)

    def test_aps_dimension_difference_tanh(self):
        op = assemble(tanh_path(), GRID, "aps")
        assert op.shape == (320, 321)
        assert op.structural_index == 1

    def test_aps_dimension_difference_pair(self):
        op = assemble(pair_path(), GRID, "aps")
        assert op.structural_index == 0

    def test_aps_requires_invertible_endpoints(self):
        p = PotentialPath(1, np.linspace(-1, 1, 9), lambda ts: ts[:, None, None])
        with pytest.raises(NotInvertible):
            assemble(p, GridSpec(1.0, 16), "aps")

    def test_aps_rejects_singular_endpoint(self):
        # keeps its declaration (gap >= 0.625 on the grid outside K), but the
        # left node -1 clamps to t = 0, where S = 0
        p = PotentialPath(1, np.linspace(0, 1, 9), lambda ts: ts[:, None, None],
                          support=((0, 0.5),))
        with pytest.raises(NotInvertible, match="left endpoint"):
            assemble(p, GridSpec(1.0, 16), "aps")

    @pytest.mark.parametrize("bc", ["aps", "dirichlet"])
    def test_broken_declaration_names_sample_and_gap(self, bc):
        p = PotentialPath(1, np.linspace(-1, 1, 9), lambda ts: ts[:, None, None])
        with pytest.raises(NotInvertible) as err:
            assemble(p, GridSpec(1.0, 16), bc)
        msg = str(err.value)
        assert "gap 0.000e+00 at t=0," in msg
        assert "proj_gap_tol 1.000e-08" in msg

    def test_adjoint_is_reverse_negated_assembly(self):
        # D* equals the assembly of t -> -S(-t) up to index reversal
        p = chain_path(3, 2)
        grid = GridSpec(6.0, 48)
        op = assemble(p, grid, "aps", 1.3)
        rev = PotentialPath(p.k, -p.grid[::-1], lambda ts: -p.samples(-ts),
                            support=tuple(sorted((-b, -a) for a, b in p.support)))
        op2 = assemble(rev, grid, "aps", 1.3)
        k, n = p.k, grid.n_cells
        row_rev = np.arange(n * k).reshape(n, k)[::-1].reshape(-1)
        # column blocks: boundary coefficient blocks swap ends
        kl = op.left_basis.shape[1]
        kr = op.right_basis.shape[1]
        interior = np.arange((n - 1) * k).reshape(n - 1, k)[::-1].reshape(-1)
        col_rev = np.concatenate([
            kl + (n - 1) * k + np.arange(kr), kl + interior, np.arange(kl)])
        reconstructed = op2.matrix[np.ix_(row_rev, col_rev)]
        s1 = np.linalg.svd(op.matrix, compute_uv=False)
        s2 = np.linalg.svd(op.matrix.conj().T, compute_uv=False)
        assert np.allclose(s1, s2, atol=1e-12)
        # the adjoint columns may differ by the eigenbasis phase convention
        # inside the boundary blocks, so compare singular values exactly
        s3 = np.linalg.svd(reconstructed, compute_uv=False)
        assert np.allclose(s1, s3, atol=1e-10)


class TestIndexReport:
    def test_tanh(self):
        rep = index_report(assemble(tanh_path(), GRID, "aps"))
        assert (rep.index, rep.dim_ker, rep.dim_coker) == (1, 1, 0)
        assert rep.structural_agrees and rep.refined_agrees

    def test_neg_tanh(self):
        rep = index_report(assemble(neg_tanh_path(), GRID, "aps"))
        assert (rep.index, rep.dim_ker, rep.dim_coker) == (-1, 0, 1)

    def test_constant_invertible(self):
        p = constant_path(np.array([[1.0]]), (-8, 8))
        rep = index_report(assemble(p, GRID, "aps"))
        assert (rep.index, rep.dim_ker, rep.dim_coker) == (0, 0, 0)

    def test_kernel_vector_matches_sech(self):
        op = assemble(tanh_path(), GRID, "aps")
        vec = kernel_vectors(op)[0]
        nodes = GRID.nodes()
        exact = 1.0 / np.cosh(nodes)
        exact /= np.linalg.norm(exact)
        vec = vec / np.linalg.norm(vec)
        phase = np.vdot(vec, exact)
        vec = vec * (phase / abs(phase))
        err = np.linalg.norm(vec - exact) / np.linalg.norm(exact)
        assert err <= 1e-3

    def test_kernel_error_halves_with_h(self):
        errs = []
        for grid in (GridSpec(8.0, 160), GridSpec(8.0, 320), GridSpec(8.0, 640)):
            op = assemble(tanh_path(), grid, "aps")
            vec = kernel_vectors(op)[0]
            nodes = grid.nodes()
            exact = 1.0 / np.cosh(nodes)
            exact /= np.linalg.norm(exact)
            vec = vec / np.linalg.norm(vec)
            phase = np.vdot(vec, exact)
            vec = vec * (phase / abs(phase))
            errs.append(np.linalg.norm(vec - exact))
        for a, b in zip(errs, errs[1:]):
            assert b <= 1.5 * 0.5 * a  # at least halves, within factor 3

    def test_unitary_conjugation_invariance(self):
        p = pair_path()

        def unitary(ts):
            c, s = np.cos(0.3 * ts), np.sin(0.3 * ts)
            return np.array([[c, -s], [s, c]], dtype=complex).transpose(2, 0, 1)

        rep1 = index_report(assemble(p, GridSpec(8.0, 160), "aps"),
                            refine_check=False)
        rep2 = index_report(assemble(conjugated_path(p, unitary),
                                     GridSpec(8.0, 160), "aps"),
                            refine_check=False)
        assert rep1.index == rep2.index == 0


class TestDiagonalOracle:
    def test_tanh(self):
        o = kernel_oracle_diagonal(tanh_path())
        assert (o.dim_ker, o.dim_coker, o.index) == (1, 0, 1)

    def test_double_tanh(self):
        p = diagonal_path([math.tanh, math.tanh], (-10, 10), 81,
                          support=((-1.5, 1.5),))
        o = kernel_oracle_diagonal(p)
        assert (o.dim_ker, o.dim_coker, o.index) == (2, 0, 2)

    def test_always_positive(self):
        p = diagonal_path([lambda t: 1 + t * t], (-3, 3), 41)
        o = kernel_oracle_diagonal(p)
        assert (o.dim_ker, o.dim_coker, o.index) == (0, 0, 0)

    def test_non_commuting_rejected(self):
        def sampler(ts):
            c, s = np.cos(ts), np.sin(ts)
            u = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)
            return u @ np.diag([1.0, -1.0]) @ u.transpose(0, 2, 1)

        p = PotentialPath(2, np.linspace(0, 1, 9), sampler)
        with pytest.raises(NotDiagonalizable):
            kernel_oracle_diagonal(p)

    def test_rejection_names_sample_and_residual(self):
        # diagonal everywhere except one off-diagonal entry at t = 0.5
        def sampler(ts):
            return np.array([[1.0 + ts, np.where(ts == 0.5, 0.3, 0.0)],
                             [0.0 * ts, -1.0 + 0.0 * ts]]).transpose(2, 0, 1)

        p = PotentialPath(2, np.linspace(0, 1, 5), sampler)
        with pytest.raises(NotDiagonalizable, match=r"t=0\.5 .*residual [0-9.]+e-0[12]"):
            kernel_oracle_diagonal(p)


class TestDoubled:
    """The doubled operator [[0, D*], [D, 0]] of a square Dirichlet assembly
    D has eigenvalues +-sigma(D), so these read the singular values of D."""

    def test_constant_gap(self):
        p = constant_path(np.array([[1.0]]), (-8, 8))
        op = assemble(p, GridSpec(8.0, 200), "dirichlet")
        assert np.linalg.svd(op.matrix, compute_uv=False).min() >= 0.9

    def test_near_zero_mode_decays_with_length(self):
        # On an even number of cells the odd symmetry of tanh about the
        # grid's centre makes the mode exact (sigma at rounding level at
        # every length); on an odd number it is a truncation effect and
        # decays with the length.
        smallest = []
        for length in (4.0, 6.0, 8.0):
            n = int(40 * length)
            for cells in (n, n + 1):
                op = assemble(tanh_path(), GridSpec(length, cells), "dirichlet")
                s = np.linalg.svd(op.matrix, compute_uv=False)
                if cells == n:
                    assert s[-1] <= 1e-14 * s[0]
                else:
                    smallest.append(s[-1])
        assert smallest[2] < smallest[1] < smallest[0]

    def test_dirichlet_small_singular_values_count_kernel_plus_cokernel(self):
        fine = GridSpec(8.0, 1000)
        for path, expected in ((tanh_path(), 1), (neg_tanh_path(), 1),
                               (pair_path(), 2)):
            op = assemble(path, fine, "dirichlet")
            s = np.linalg.svd(op.matrix, compute_uv=False)
            assert int(np.sum(s < 1e-4)) == expected


class TestFredholmBounds:
    def test_threshold_formula_at_unit_gap(self):
        path, k_hat = engineered_threshold_path(alpha=0.4)
        rep = fredholm_bounds(path, 1.0, k_hat=k_hat)
        assert rep.c_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.delta_hat == pytest.approx(0.4, abs=1e-3)
        threshold = rep.c_hat ** 2 / (rep.c_hat + 1.0)
        assert threshold == pytest.approx(0.5, abs=1e-12)
        assert rep.second_statement
        assert rep.passed
        # the positivity threshold on the coupling stays below 1
        assert rep.lambda0 < 1.0
        assert rep.epsilon == pytest.approx(
            0.5 * (rep.c_hat ** 2 - rep.delta_hat ** 2 * (1 + 1 / rep.c_hat) ** 2))

    def test_constant_invertible_without_cutoff(self):
        p = constant_path(np.diag([1.5, -2.0]), (-4, 4))
        rep = fredholm_bounds(p, 1.0, grid=GridSpec(4.0, 120), k_hat=None)
        assert rep.f_amplitude == 0.0
        gap = 1.5
        assert rep.min_eig >= (1 - rep.disc_slack) * gap ** 2

    def test_tanh_with_strong_coupling(self):
        rep = fredholm_bounds(tanh_path(), 3.0, grid=GridSpec(8.0, 200))
        assert rep.passed
        assert rep.min_eig >= 0.8 * rep.epsilon
        # the cutoff's plateau is the level the bound needs on K
        assert rep.f_amplitude ** 2 == pytest.approx(
            rep.epsilon + 0.5 * (3.0 ** 2 + rep.delta_k ** 2), rel=1e-15)

    def test_real_potential_takes_real_arithmetic(self, monkeypatch):
        # S = tanh(t) sz + 0.3 sech(t) sx is real; V S V* with a complex
        # diagonal unitary V is not, and has the same lower bound
        def real(ts):
            out = np.zeros((ts.size, 2, 2), dtype=np.complex128)
            out[:, 0, 0], out[:, 1, 1] = np.tanh(ts), -np.tanh(ts)
            out[:, 0, 1] = out[:, 1, 0] = 0.3 / np.cosh(ts)
            return out

        path = PotentialPath(2, np.linspace(-8.0, 8.0, 161), real, support=((-1.0, 1.0),))
        phase = np.diag([1.0, np.exp(0.7j)])
        rotated = conjugated_path(path, lambda ts: np.broadcast_to(phase, (ts.size, 2, 2)))
        dtypes = []
        eigvalsh = np.linalg.eigvalsh

        def logged(a):
            dtypes.append(a.dtype)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", logged)
        grid = GridSpec(8.0, 160)
        rep = fredholm_bounds(path, 3.0, grid=grid)
        assert dtypes[-2:] == [np.float64] * 2
        dtypes.clear()
        ref = fredholm_bounds(rotated, 3.0, grid=grid)
        assert dtypes[-2:] == [np.complex128] * 2
        assert rep.min_eig == pytest.approx(ref.min_eig, rel=1e-12)
        assert rep.epsilon == pytest.approx(ref.epsilon, rel=1e-12)

    def test_coupling_below_threshold(self):
        path, k_hat = engineered_threshold_path(alpha=0.4)
        with pytest.raises(HypothesisUnmet):
            fredholm_bounds(path, 0.1, k_hat=k_hat)

    def test_bounds_certify_against_the_callers_eig_tol(self, monkeypatch):
        # the grid pass of chain(3, 4) has defects near 1e-15
        monkeypatch.setattr(opcore, "_EIG_TOL", 1e-20)
        with pytest.raises(InvalidInput, match="exceed eig_tol=1.0e-20"):
            bound_constants(chain_path(3, 4))
        with pytest.raises(InvalidInput, match="exceed eig_tol=1.0e-20"):
            fredholm_bounds(chain_path(3, 4), 3.0, GridSpec(8.0, 200))

    def test_bound_constants_zero_derivative_outside(self):
        p = chain_path(2, 2)
        c, dh, dk, lam0 = bound_constants(p)
        assert dh <= 0.05  # constant plateaus: derivative vanishes outside K
        assert c >= 0.9
        assert lam0 <= 0.2

    @pytest.mark.parametrize("n_samples", [65, 81])  # cuts off / on samples
    def test_bound_constants_hull_wider_than_support(self, n_samples):
        # K = [0, 2] u [4, 6]; the plateau (2, 4) lies in the hull [0, 6]
        p = chain_path(1, 2, n_intervals=2, n_samples=n_samples)
        assert p.hull() == (0.0, 6.0) and len(p.support) == 2
        c, dh, dk, lam0 = bound_constants(p)
        assert dh <= 1e-12
        assert dk > 0.5
        assert c >= 0.9

    def test_sample_on_cut_belongs_to_interval(self):
        # S jumps at both ends of K = [0, 1], which are grid samples; the
        # closed interval takes them, so no outside stencil sees a jump
        def sampler(ts):
            return np.where(ts < 0, 1.0, np.where(ts > 1, 5.0, 2.0 + ts))[:, None, None]

        p = PotentialPath(1, np.linspace(-1, 2, 13), sampler, support=((0, 1),))
        c, dh, dk, lam0 = bound_constants(p)
        assert (c, dh) == (1.0, 0.0)
        assert dk > 0.0

    def test_single_sample_piece_rejected(self):
        # t = 0 is the only sample between the two support intervals
        p = PotentialPath(1, np.linspace(-2, 2, 41),
                          lambda ts: (1.0 + ts * ts)[:, None, None],
                          support=((-1.0, -0.05), (0.05, 1.0)))
        with pytest.raises(InvalidInput, match="around t=0 "):
            bound_constants(p)

    def test_one_sided_slopes_exact_on_quadratics(self):
        ts = np.array([0.0, 0.1, 0.3, 0.35, 0.7])
        samples = [np.array([[t * t]]) for t in ts]
        slopes = dirac1d._piece_slopes(ts, samples)
        assert slopes[0][0, 0] == pytest.approx(0.0, abs=1e-12)
        assert slopes[-1][0, 0] == pytest.approx(1.4, abs=1e-12)
        for t, ds in zip(ts[1:-1], slopes[1:-1]):
            assert ds[0, 0] == pytest.approx(2.0 * t, abs=1e-12)


def index_at(path, lam, grid):
    return path_index_report(path, grid, lam).index


class TestSweepAndPerturbation:
    def test_tanh_sweep(self):
        indices = [index_at(tanh_path(), lam, GridSpec(8.0, 200))
                   for lam in (1.0, 2.0, 5.0, 10.0)]
        assert indices == [1] * 4

    def test_constant_sweep(self):
        p = constant_path(np.array([[1.0]]), (-8, 8))
        assert [index_at(p, lam, GridSpec(8.0, 160)) for lam in (1.0, 10.0)] == [0, 0]

    def test_zero_perturbation(self):
        p = tanh_path()
        assert index_at(p, 1.0, GridSpec(8.0, 160)) == index_at(p, 1.0, GridSpec(8.0, 160)) == 1

    def test_interior_bump(self):
        from diracflow.scenarios import bump_perturbation
        from diracflow.specflow import perturbed_path

        p = tanh_path()
        bump, r = bump_perturbation(0, p)
        grid = GridSpec(8.0, 200)
        assert index_at(p, 1.0, grid) == index_at(perturbed_path(p, bump, r), 1.0, grid) == 1
