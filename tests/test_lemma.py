import numpy as np
import pytest

from nlwe.lemma import lemma_check, preserves_orthogonality
from nlwe.linalg import dft_matrix

from helpers import ket, random_gaussian_operator, random_scaled_unitary, weyl_operators


def cb_basis(d):
    return [ket(i, d) for i in range(d)]


def db_basis(d):
    f = dft_matrix(d)
    return [f[:, i].copy() for i in range(d)]


class TestPreservesOrthogonality:
    def test_identity_preserves_any_basis(self):
        for d in (2, 3):
            assert preserves_orthogonality(np.eye(d), cb_basis(d))
            assert preserves_orthogonality(np.eye(d), db_basis(d))

    def test_diagonal_damping_splits_the_bases(self):
        k = np.diag([1.0, 0.5]).astype(complex)
        assert preserves_orthogonality(k, cb_basis(2))
        assert not preserves_orthogonality(k, db_basis(2))
        # direct arithmetic: <K||0>, K||1>> = (1 - 1/4)/2 = 3/8
        img0 = k @ db_basis(2)[0]
        img1 = k @ db_basis(2)[1]
        assert abs(np.vdot(img0, img1) - 3 / 8) < 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_weyl_family_preserves_both_bases(self, d):
        ops = weyl_operators(d)
        assert len(ops) == d * d
        for w in ops:
            assert preserves_orthogonality(w, cb_basis(d))
            assert preserves_orthogonality(w, db_basis(d))

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        for d in (2, 3):
            k = random_gaussian_operator(d, rng)
            base = preserves_orthogonality(k, db_basis(d))
            assert preserves_orthogonality(5.7e3 * k, db_basis(d)) == base
            assert preserves_orthogonality(1e-6 * k, db_basis(d)) == base

    def test_basis_phase_invariance(self):
        rng = np.random.default_rng(11)
        k = random_gaussian_operator(3, rng)
        basis = db_basis(3)
        rotated = [np.exp(1j * rng.uniform(0, 2 * np.pi)) * b for b in basis]
        assert preserves_orthogonality(k, basis) == preserves_orthogonality(k, rotated)

    def test_zero_operator_degenerate_pass(self):
        assert preserves_orthogonality(np.zeros((2, 2)), cb_basis(2))


def pairwise_reference(k, basis, tol=1e-9):
    """Each pair of images compared on its own, relative to the largest image
    norm."""
    images = [k @ b for b in basis]
    scale = max(np.linalg.norm(u) for u in images)
    return scale == 0.0 or all(
        abs(np.vdot(images[i], images[j])) / scale**2 <= tol
        for i in range(len(images)) for j in range(i + 1, len(images))
    )


class TestGramAgainstPairs:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_agrees_with_the_pairwise_reference(self, d):
        rng = np.random.default_rng(d)
        ops = [random_gaussian_operator(d, rng) for _ in range(5)]
        ops += [random_scaled_unitary(d, rng) for _ in range(5)] + weyl_operators(d)
        ops.append(np.diag(np.linspace(1.0, 0.5, d)))
        for k in ops:
            for basis in (cb_basis(d), db_basis(d)):
                assert preserves_orthogonality(k, basis) == pairwise_reference(k, basis)

    def test_rows_of_a_matrix_are_its_basis(self):
        rng = np.random.default_rng(13)
        for d in (2, 3, 4):
            for k in (random_gaussian_operator(d, rng), random_scaled_unitary(d, rng)):
                assert preserves_orthogonality(k, dft_matrix(d).T) == preserves_orthogonality(
                    k, db_basis(d))
                assert preserves_orthogonality(k, np.eye(d)) == preserves_orthogonality(
                    k, cb_basis(d))


class TestLemmaCheck:
    def test_scaled_unitary_passes_with_tiny_residual(self):
        rng = np.random.default_rng(12)
        for d in (2, 3):
            for _ in range(10):
                result = lemma_check(random_scaled_unitary(d, rng))
                assert result.constraints_hold
                assert result.isotropy_residual <= 1e-12

    def test_damping_operator_fails_constraints(self):
        result = lemma_check(np.diag([1.0, 0.5]))
        assert not result.constraints_hold
        assert result.isotropy_residual > 0.1

    @pytest.mark.parametrize("d", [2, 3])
    def test_monte_carlo_implication(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(100):
            result = lemma_check(random_gaussian_operator(d, rng))
            if result.constraints_hold:
                assert result.isotropy_residual <= 1e-8

    def test_weyl_operators_are_isotropic(self):
        for d in (2, 3):
            for w in weyl_operators(d):
                result = lemma_check(w)
                assert result.constraints_hold
                assert result.isotropy_residual <= 1e-12
