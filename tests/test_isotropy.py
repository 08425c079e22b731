"""The lemma's solution space from one rank: ``isotropy_dimension(d)`` is
the dimension of {E : <i|E|j> = <Fi|E|Fj> = 0 for i != j}, and 1 means
every branch operator K keeping both bases orthogonal has K†K = c*1."""

import numpy as np
import pytest

from nlwe.errors import InvalidDimensionError, TooLargeError
from nlwe.lemma import isotropy_dimension
from nlwe.linalg import dft_matrix

from helpers import isotropy_dimension_dense, random_scaled_unitary, weyl_operators


@pytest.mark.parametrize("d", range(1, 9))
def test_agrees_with_the_dense_constraint_matrix(d):
    assert isotropy_dimension(d) == isotropy_dimension_dense(d)


def test_only_the_multiples_of_the_identity_remain_up_to_300():
    assert [d for d in range(1, 301) if isotropy_dimension(d) != 1] == []


def test_refused_above_the_dense_budget():
    # the d x d DFT matrix is the largest array formed: 2049^2 entries are
    # 64.06 MiB
    assert isotropy_dimension(161) == 1
    assert isotropy_dimension(500) == 1
    with pytest.raises(TooLargeError, match=r"2049 x 2049 complex array \(64\.06 MiB\)"):
        isotropy_dimension(2049)


def test_refuses_a_dimension_below_one():
    with pytest.raises(InvalidDimensionError):
        isotropy_dimension(0)


@pytest.mark.parametrize("tol", ["1e-18", "0.6"])
@pytest.mark.parametrize("d", [2, 7, 45])
def test_the_dimension_is_one_at_every_tolerance(monkeypatch, d, tol):
    # the d - 1 constraint rows are orthonormal, so every singular value is
    # 1 and the rank is d - 1 at the smallest and the largest tolerances
    monkeypatch.setenv("NLWE_TOLERANCE", tol)
    assert isotropy_dimension(d) == 1


def _meets_the_constraints(e, tol=1e-9):
    f = dft_matrix(e.shape[0])
    off = ~np.eye(e.shape[0], dtype=bool)
    return bool(
        np.all(np.abs(e[off]) <= tol) and np.all(np.abs((f.conj().T @ e @ f)[off]) <= tol)
    )


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_the_operator_families_meet_the_constraints_and_are_isotropic(d):
    rng = np.random.default_rng(300 + d)
    ops = weyl_operators(d) + [random_scaled_unitary(d, rng) for _ in range(10)]
    for k in ops:
        e = k.conj().T @ k
        c = np.trace(e) / d
        assert _meets_the_constraints(e / abs(c))
        assert np.max(np.abs(e - c * np.eye(d))) <= 1e-12 * abs(c)


def test_a_non_isotropic_diagonal_breaks_the_dual_constraints():
    assert not _meets_the_constraints(np.diag([1.0, 0.25, 0.25]).astype(complex))
