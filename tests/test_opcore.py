import numpy as np
import pytest

from diracflow import opcore
from diracflow.errors import (
    AmbiguousRank,
    GeneratorError,
    InvalidInput,
    NotInvertible,
)
from diracflow.opcore import (
    HermitianOperator,
    Projection,
    TruncationTower,
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

    def test_stack_names_its_worst_matrix(self, monkeypatch):
        # diagonal matrices decompose exactly, so only matrix 2 has a defect
        stack = np.stack([np.diag([1.0, 2.0, 3.0])] * 4).astype(np.complex128)
        stack[2] = random_hermitian(5, 3)
        w, v = eigh(stack)
        assert w.shape == (4, 3) and v.shape == (4, 3, 3)
        monkeypatch.setattr(opcore, "_EIG_TOL", 1e-300)
        with pytest.raises(InvalidInput, match="at matrix 2 of the stack"):
            eigh(stack)
        stack[3, 0, 0] = np.nan
        with pytest.raises(InvalidInput, match=r"matrix 3 of the stack"):
            eigh(stack)

    def test_only_eigh_takes_stacks(self):
        with pytest.raises(InvalidInput, match="square matrix, got shape"):
            HermitianOperator(np.zeros((2, 3, 3)))


class TestBoundedTransform:
    def test_zero(self):
        out = bounded_transform(np.zeros((3, 3)))
        assert np.allclose(out, 0.0)

    def test_closed_form(self):
        out = bounded_transform(np.diag([1.0, -1.0]))
        assert np.allclose(out, np.diag([1 / np.sqrt(2), -1 / np.sqrt(2)]))

    def test_algebraic_identity(self):
        h = random_hermitian(7, 6, scale=2.0)
        f = bounded_transform(h)
        target = h @ h @ np.linalg.inv(np.eye(6) + h @ h)
        assert np.linalg.norm(f @ f - target, 2) <= 1e-10

    def test_preserves_eigenvalue_signs(self):
        for seed in range(10):
            h = random_hermitian(seed, 7, scale=2.0)
            f = bounded_transform(h)
            wh = np.linalg.eigvalsh(h)
            wf = np.linalg.eigvalsh(f)
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
            positive_projection(np.diag([1e-12, 1.0]))

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
            entries = opcore._hermitised(x)
            assert opcore.spectral_gap(x) == float(np.abs(np.linalg.eigvalsh(entries)).min())

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            opcore.spectral_gap(np.array([[np.nan]]))


class TestSpectralNorm:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (5, 5), (17, 17), (39, 39), (6, 9)])
    def test_bitwise_equal_to_numpy_norm(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        stack = rng.standard_normal((4,) + shape) + 1j * rng.standard_normal((4,) + shape)
        norms = opcore.spectral_norm(stack)
        assert norms.shape == (4,)
        for j, m in enumerate(stack):
            one = opcore.spectral_norm(m)
            assert type(one) is float
            assert one == np.linalg.norm(m, 2) == norms[j]


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


def quadrature_oracle(h, n_nodes):
    """(operator, error) of `inv_sqrt_via_quadrature`, with the exact value
    f(H) = V diag(f(w)) V* sampled one eigenvalue at a time."""
    hop = HermitianOperator(h)
    a = hop.entries
    h2 = a @ a
    step = (np.pi / 2.0) / n_nodes
    acc = np.zeros_like(a)
    eye = np.eye(hop.dim, dtype=np.complex128)
    for i in range(n_nodes):
        theta = (i + 0.5) * step
        sec2 = 1.0 / np.cos(theta) ** 2
        acc += sec2 * np.linalg.solve(sec2 * eye + h2, eye)
    approx = (2.0 / np.pi) * step * acc
    w, v = eigh(hop)
    fw = np.array([float(1.0 / np.sqrt(1.0 + x * x)) for x in w], dtype=float)
    exact = HermitianOperator((v * fw) @ v.conj().T)
    return HermitianOperator(approx).entries, float(np.linalg.norm(approx - exact.entries, 2))


class TestQuadrature:
    def test_zero_gives_identity(self):
        rep = inv_sqrt_via_quadrature(np.zeros((3, 3)), 16)
        assert np.linalg.norm(rep.operator - np.eye(3), 2) <= 1e-8

    def test_scalar_closed_form(self):
        rep = inv_sqrt_via_quadrature(np.diag([1.0]), 64)
        assert abs(rep.operator[0, 0] - 1 / np.sqrt(2)) <= 1e-8

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

    @pytest.mark.parametrize("seed", [0, 9, 10])
    def test_matches_per_eigenvalue_route(self, seed):
        # operator and error bitwise equal to the route through the
        # per-eigenvalue functional calculus and HermitianOperator, on
        # Hermitian and on non-Hermitian (hermitised) input
        rng = np.random.default_rng(seed)
        for dim, n_nodes in ((1, 8), (6, 128), (9, 33)):
            for h in (random_hermitian(seed, dim, scale=3.0), rng.standard_normal((dim, dim))):
                rep = inv_sqrt_via_quadrature(h, n_nodes)
                operator, error = quadrature_oracle(h, n_nodes)
                assert np.array_equal(rep.operator, operator)
                assert rep.error == error


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

    @pytest.mark.parametrize("rank, rate, n", [(1, 1.2, 1), (2, 1.2, 64), (3, 1.2, 700),
                                               (2, 0.1, 300)])
    def test_decaying_rank_template_draws_once(self, monkeypatch, rank, rate, n):
        def drawn_per_call(n):
            # the values of a template that draws its vectors on every call
            rng = np.random.default_rng(7)
            a = np.zeros((n, n), dtype=np.complex128)
            for r in range(rank):
                raw = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
                v = raw[:n] * np.exp(-rate * np.arange(1.0, n + 1.0))
                a += (1.0 if r % 2 == 0 else -1.0) * np.outer(v, v.conj())
            return a

        expected = drawn_per_call(n)
        template = opcore.decaying_rank_template(rank, rate, seed=7)
        monkeypatch.setattr(np.random, "default_rng", None)
        # bytes, so that even the signs of zeros agree (past n = 621 the
        # decay at rate 1.2 underflows)
        assert template(n).tobytes() == expected.tobytes()

    def test_decaying_rank_template_rejects_long_truncations(self):
        template = opcore.decaying_rank_template(2, 1.2, seed=7)
        with pytest.raises(InvalidInput, match="4096 coordinates, got n = 4100"):
            template(4100)

    @pytest.mark.parametrize("tails", [
        (0.659, 0.358, 0.187),          # circle tower, resolvent tails
        (1.12e-2, 1.58e-8, 3.8e-15),    # circle tower, projection tails
        (1.60e-6, 1.41e-12, 2.77e-15),  # tower scenario at seed 3, projection tails
        (0.0, 0.0, 0.0),
    ])
    def test_decaying_tails_vanish(self, tails):
        assert opcore.tails_vanish(tails)

    def test_stagnant_tails_do_not_vanish(self):
        # R = T against the alternating diagonal: the resolvent tails stay near 1
        assert not opcore.tails_vanish((0.9923, 0.9981, 0.9995))
        # one stagnant step above rounding is enough
        assert not opcore.tails_vanish((0.5, 0.1, 0.09))

    def test_one_tail_shows_no_decay(self):
        with pytest.raises(InvalidInput, match="at least two tails"):
            opcore.tails_vanish((1e-3,))

