import numpy as np
import pytest

from diracflow import opcore
from diracflow.errors import (
    AmbiguousRank,
    DomainError,
    GeneratorError,
    InvalidInput,
    NotInvertible,
)
from diracflow.opcore import (
    HermitianOperator,
    Projection,
    TruncationTower,
    apply_function,
    bounded_transform,
    eigh,
    inv_sqrt_via_quadrature,
    null_space,
    positive_projection,
    tower_instantiate,
)


def random_hermitian(seed, dim, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2.0


class TestHermitianOperator:
    def test_symmetrizes_and_records_residual(self):
        a = np.array([[1.0, 2.0], [0.0, -1.0]])
        h = HermitianOperator(a)
        assert np.allclose(h.entries, h.entries.conj().T)
        assert h.herm_residual > 0.1
        # Frobenius norms: an upper bound of the spectral ones, without an SVD
        frobenius = np.linalg.norm(a - a.conj().T) / max(1.0, np.linalg.norm(a))
        assert h.herm_residual == frobenius

    def test_hermitian_input_has_tiny_residual(self):
        h = HermitianOperator(random_hermitian(0, 5))
        assert h.herm_residual <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            HermitianOperator([[np.nan, 0], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInput):
            HermitianOperator(np.zeros((2, 3)))


class TestProjection:
    def test_accepts_genuine_projection(self):
        p = Projection(np.diag([1.0, 0.0, 1.0]))
        assert p.rank() == 2

    def test_rejects_non_idempotent(self):
        with pytest.raises(InvalidInput):
            Projection(np.diag([0.5, 0.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInput):
            Projection(np.array([[1.0, 1e-3], [0.0, 0.0]]))


class TestEigh:
    def test_diagonal_input(self):
        w, v = eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        # eigenvectors are a permutation of the coordinate basis
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_flip_matrix(self):
        w, v = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)))

    def test_reconstruction(self):
        h = random_hermitian(42, 8)
        w, v = eigh(h)
        assert np.linalg.norm((v * w) @ v.conj().T - h, 2) <= 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            eigh(np.array([[np.inf, 0], [0, 1]]))


class TestApplyFunction:
    def test_identity(self):
        h = random_hermitian(1, 4)
        out = apply_function(h, lambda x: x)
        assert np.allclose(out.entries, h, atol=1e-12)

    def test_square(self):
        out = apply_function(np.diag([1.0, -2.0]), lambda x: x * x)
        assert np.allclose(out.entries, np.diag([1.0, 4.0]))

    def test_contraction_rule(self):
        h = random_hermitian(2, 6, scale=3.0)
        out = apply_function(h, lambda x: x / np.sqrt(1 + x * x))
        assert np.linalg.norm(out.entries, 2) < 1.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_undefined_at_eigenvalue(self):
        with pytest.raises(DomainError):
            apply_function(np.diag([1.0, -1.0]), np.sqrt)

    def test_polynomial_homomorphism(self):
        # functional calculus agrees with direct matrix arithmetic
        for seed in range(20):
            dim = 2 + seed % 15
            h = random_hermitian(seed, dim)
            coeffs = np.random.default_rng(seed + 100).uniform(-1, 1, 4)

            def poly(x):
                return coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3

            direct = (coeffs[0] * np.eye(dim) + coeffs[1] * h
                      + coeffs[2] * h @ h + coeffs[3] * h @ h @ h)
            fh = apply_function(h, poly)
            bound = 1e-9 * (1 + np.linalg.norm(h, 2)) ** 3
            assert np.linalg.norm(fh.entries - direct, 2) <= bound


class TestBoundedTransform:
    def test_zero(self):
        out = bounded_transform(np.zeros((3, 3)))
        assert np.allclose(out.entries, 0.0)

    def test_closed_form(self):
        out = bounded_transform(np.diag([1.0, -1.0]))
        assert np.allclose(out.entries, np.diag([1 / np.sqrt(2), -1 / np.sqrt(2)]))

    def test_algebraic_identity(self):
        h = random_hermitian(7, 6, scale=2.0)
        f = bounded_transform(h).entries
        target = h @ h @ np.linalg.inv(np.eye(6) + h @ h)
        assert np.linalg.norm(f @ f - target, 2) <= 1e-10

    def test_preserves_eigenvalue_signs(self):
        for seed in range(10):
            h = random_hermitian(seed, 7, scale=2.0)
            f = bounded_transform(h)
            wh = np.linalg.eigvalsh(h)
            wf = np.linalg.eigvalsh(f.entries)
            assert np.array_equal(np.sign(wh), np.sign(wf))


class TestPositiveProjection:
    def test_diagonal(self):
        p = positive_projection(np.diag([2.0, -3.0]))
        assert np.allclose(p.entries, np.diag([1.0, 0.0]))

    def test_negative_definite_gives_zero(self):
        h = random_hermitian(3, 5)
        h = -(h @ h.conj().T + np.eye(5))
        p = positive_projection(h)
        assert p.rank() == 0

    def test_rank_counts_positive_eigenvalues(self):
        for seed in range(15):
            h = random_hermitian(seed, 8)
            w = np.linalg.eigvalsh(h)
            if np.abs(w).min() < 1e-6:
                continue
            p = positive_projection(h)
            assert p.rank() == int(np.sum(w > 0))

    def test_gap_violation(self):
        with pytest.raises(NotInvertible):
            positive_projection(np.diag([1e-12, 1.0]), gap_tol=1e-8)

    def test_complement_identity(self):
        for seed in range(10):
            h = random_hermitian(seed + 50, 6)
            if opcore.spectral_gap(HermitianOperator(h)) < 1e-6:
                continue
            p_plus = positive_projection(h)
            p_minus = positive_projection(-h)
            assert np.linalg.norm(
                p_plus.entries + p_minus.entries - np.eye(6), 2) <= 1e-10


class TestSpectralGap:
    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_matches_hermitian_operator_route(self, dim):
        # the same hermitised matrix as HermitianOperator, so bitwise equal
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for x in (a, HermitianOperator(a), positive_projection(a + a.conj().T)):
            entries = opcore.as_hermitian(x).entries
            assert opcore.spectral_gap(x) == float(np.abs(np.linalg.eigvalsh(entries)).min())

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            opcore.spectral_gap(np.array([[np.nan]]))


class TestNullSpace:
    def test_zero_matrix(self):
        res = null_space(np.zeros((3, 3)))
        assert res.dim == 3
        assert res.basis.shape == (3, 3)

    def test_identity(self):
        res = null_space(np.eye(4))
        assert res.dim == 0

    def test_constructed_gap(self):
        res = null_space(np.diag([1.0, 1e-14, 2.0]))
        assert res.dim == 1
        assert res.gap_ratio >= 1e12
        assert np.allclose(np.abs(res.basis[:, 0]), [0, 1, 0])

    def test_wide_matrix_counts_structural_kernel(self):
        res = null_space(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert res.dim == 1

    def test_adjoint_singular_values_match(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        s1 = null_space(m, want_basis=False).singular_values
        s2 = null_space(m.conj().T, want_basis=False).singular_values
        assert np.allclose(s1, s2, atol=1e-12)

    def test_ambiguous_rank(self):
        # a smooth geometric slide across the cap with no decisive jump
        vals = 3.0 ** -np.arange(20.0)
        with pytest.raises(AmbiguousRank) as exc:
            null_space(np.diag(vals))
        assert len(exc.value.candidates) >= 2
        assert exc.value.gap_ratio < 10

    def test_kernel_satisfies_definition(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 4))
        m = a @ np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0],
                          [0, 0, 0, 0], [0, 0, 0, 0]])
        res = null_space(m)
        assert res.dim == 2
        assert np.linalg.norm(m @ res.basis, 2) <= 1e-10


class TestQuadrature:
    def test_zero_gives_identity(self):
        rep = inv_sqrt_via_quadrature(np.zeros((3, 3)), 16)
        assert np.linalg.norm(rep.operator.entries - np.eye(3), 2) <= 1e-8

    def test_scalar_closed_form(self):
        rep = inv_sqrt_via_quadrature(np.diag([1.0]), 64)
        assert abs(rep.operator.entries[0, 0] - 1 / np.sqrt(2)) <= 1e-8

    def test_random_matches_eigh(self):
        h = random_hermitian(9, 6, scale=2.0)
        rep = inv_sqrt_via_quadrature(h, 128)
        assert rep.error <= 1e-8

    def test_error_decreases_with_nodes(self):
        h = random_hermitian(10, 5, scale=3.0)
        errs = [inv_sqrt_via_quadrature(h, n).error for n in (16, 32, 64, 128, 256)]
        for a, b in zip(errs, errs[1:]):
            assert b <= 2.0 * a + 1e-14

    def test_too_few_nodes(self):
        with pytest.raises(InvalidInput):
            inv_sqrt_via_quadrature(np.eye(2), 4)


class TestTowers:
    def test_alternating_diagonal(self):
        tower = TruncationTower((4, 8), opcore.alternating_diag_template)
        t4, _ = tower_instantiate(tower, 4)
        assert np.allclose(np.diag(t4).real, [1, -1, 2, -2])

    def test_banded_nesting(self):
        tower = TruncationTower((3, 5), opcore.banded_shift_template)
        t3, _ = tower_instantiate(tower, 3)
        t5, _ = tower_instantiate(tower, 5)
        assert np.array_equal(t5[:3, :3], t3)

    def test_rank_one_norm(self):
        tower = TruncationTower((4, 8, 16), opcore.alternating_diag_template,
                                (opcore.rank_one_template,))
        for n in (4, 8, 16):
            _, (r,) = tower_instantiate(tower, n)
            assert abs(np.linalg.norm(r, 2) - 1.0) <= 1e-12

    def test_nesting_violation(self):
        def bad(n):
            return np.eye(n) * n  # entries depend on the truncation size

        tower = TruncationTower((2, 4), bad)
        with pytest.raises(GeneratorError):
            tower_instantiate(tower, 4)

    def test_dim_not_in_tower(self):
        tower = TruncationTower((2, 4), opcore.alternating_diag_template)
        with pytest.raises(InvalidInput):
            tower_instantiate(tower, 3)

    def test_decaying_rank_template_nests(self):
        template = opcore.decaying_rank_template(2, 1.0, seed=4)
        assert np.array_equal(template(16)[:8, :8], template(8))


class TestTolerances:
    def test_defaults(self):
        t = opcore.DEFAULT_TOL
        assert (t.eig_tol, t.svd_gap_cap, t.rank_rel_tol,
                t.proj_gap_tol, t.integer_residual_tol) == \
            (1e-10, 1e-6, 1e-8, 1e-8, 1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            opcore.Tolerances(eig_tol=0.0)
