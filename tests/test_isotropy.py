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


def test_only_the_multiples_of_the_identity_remain_up_to_45():
    assert [d for d in range(1, 46) if isotropy_dimension(d) != 1] == []


def test_refused_above_the_dense_budget():
    # 162 * 161 rows of 162 entries: 64.5 MiB
    assert isotropy_dimension(161) == 1
    with pytest.raises(TooLargeError):
        isotropy_dimension(162)


def test_refuses_a_dimension_below_one():
    with pytest.raises(InvalidDimensionError):
        isotropy_dimension(0)


def test_an_impossible_tolerance_finds_no_solution(monkeypatch):
    # below the rounding of the null direction's singular value the float
    # rank counts it too, so the rank reads d and the dimension 0
    monkeypatch.setenv("NLWE_TOLERANCE", "1e-18")
    assert isotropy_dimension(7) == 0


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
