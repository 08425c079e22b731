import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwe.errors import (
    ContractViolationError,
    ConvergenceError,
    DegenerateCutError,
    DimensionMismatchError,
    InvalidDimensionError,
    PreconditionError,
    TooLargeError,
)
from nlwe.linalg import (
    DENSE_BYTES_BUDGET,
    dft_matrix,
    gram,
    hermitian_eigenvalues,
    jacobi_eigh,
    kron_all,
    orthogonal_complement_basis,
    orthonormalize,
    partial_transpose,
    require_dense_budget,
    span_dimension,
)
from nlwe.report import count_text

from helpers import (
    NON_FINITE_CASES,
    dft_col,
    gs_complement_basis,
    gs_span_dimension,
    ket,
    kron_chain,
    non_finite_matrix,
    random_hermitian,
)

SQ2 = 1 / np.sqrt(2)


class TestDenseBudget:
    @pytest.mark.parametrize("rows, cols, mib", [
        (2049, 2049, "64.06"), (1, 2**22 + 1, "64.00"), (8193, 513, "64.13"),
        # 64.125 and 64.375 MiB, rounded half to even as "%.2f" rounds
        (513, 8192, "64.12"), (515, 8192, "64.38"),
    ])
    def test_message_in_float_range(self, rows, cols, mib):
        assert mib == f"{16 * rows * cols / 2**20:.2f}"
        with pytest.raises(TooLargeError, match=rf"^x needs a {rows} x {cols} complex array "
                           rf"\({mib} MiB\), above the 64 MiB budget$"):
            require_dense_budget(rows, cols, "x")

    def test_shape_past_float_range(self):
        # 2^1204 bytes: a float division of the byte count overflows
        with pytest.raises(TooLargeError) as info:
            require_dense_budget(2**600, 2**600, "x")
        assert f"{2**600} x {2**600} complex array ({2**1184}.00 MiB)" in str(info.value)

    def test_within_the_budget(self):
        require_dense_budget(1, DENSE_BYTES_BUDGET // 16, "x")

    def test_count_past_the_digit_limit(self):
        assert count_text(12345) == "12345"
        assert count_text(10**5000 - 1) in ("about 1.00e+5000", "9" * 5000)


class TestDftMatrix:
    def test_qubit_is_hadamard(self):
        f = dft_matrix(2)
        expected = np.array([[1, 1], [1, -1]]) * SQ2
        assert np.max(np.abs(f - expected)) < 1e-15
        # column 0 is |0+1>, column 1 is |0-1>
        assert np.allclose(f[:, 0], [SQ2, SQ2])
        assert np.allclose(f[:, 1], [SQ2, -SQ2])

    def test_dimension_one(self):
        assert np.array_equal(dft_matrix(1), np.array([[1.0 + 0j]]))

    def test_entries_and_unitarity_d3(self):
        f = dft_matrix(3)
        for l in range(3):
            for n in range(3):
                assert abs(f[l, n] - np.exp(2j * np.pi * n * l / 3) / np.sqrt(3)) < 1e-15
        # brute-force unitarity by direct multiplication
        assert np.max(np.abs(f @ f.conj().T - np.eye(3))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_unitary_family(self, d):
        f = dft_matrix(d)
        assert np.max(np.abs(f.conj().T @ f - np.eye(d))) <= 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            dft_matrix(0)


class TestKronAll:
    def test_cb_bookkeeping(self):
        out = kron_all([ket(0, 2), ket(1, 2)])
        assert np.array_equal(out, np.array([0, 1, 0, 0], dtype=complex))

    def test_identity_case(self):
        assert np.array_equal(kron_all([np.eye(2), np.eye(2)]), np.eye(4))

    def test_superposed_left_factor(self):
        plus = np.array([SQ2, SQ2])
        out = kron_all([plus, ket(0, 2)])
        assert np.allclose(out, [SQ2, 0, SQ2, 0])

    def test_empty_factor_list(self):
        with pytest.raises(DimensionMismatchError):
            kron_all([])


class TestGram:
    def test_cb_identity(self):
        g = gram([ket(i, 3) for i in range(3)])
        assert np.array_equal(g, np.eye(3))

    def test_forced_overlap(self):
        plus = np.array([SQ2, SQ2])
        g = gram([ket(0, 2), plus])
        assert np.allclose(g, [[1, SQ2], [SQ2, 1]])

    def test_conjugate_linearity(self):
        v = np.array([1j, 0])
        g = gram([v, ket(0, 2)])
        assert abs(g[0, 1] - (-1j)) < 1e-15

    def test_zero_vectors_allowed(self):
        g = gram([np.zeros(2), ket(1, 2)])
        assert np.allclose(g, [[0, 0], [0, 1]])

    def test_mismatched_dims(self):
        with pytest.raises(DimensionMismatchError):
            gram([ket(0, 2), ket(0, 3)])

    def test_shift_ensemble_dense(self):
        from nlwe.circuit import generate_basis
        from nlwe.ensembles import shift_circuit

        vecs = [s.dense() for s in generate_basis(shift_circuit()).states]
        assert np.max(np.abs(gram(vecs) - np.eye(8))) <= 1e-12


class TestJacobiEigensolver:
    def test_diagonal_input(self):
        evals = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(evals, [1, 2, 3])

    def test_pauli_x_spectrum(self):
        evals = hermitian_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(evals, [-1, 1])

    def test_bell_partial_transpose_spectrum(self):
        # PT of the 2-qubit |Phi+> projector is SWAP/2: spectrum -1/2, 1/2 x3
        bell = (kron_chain(ket(0, 2), ket(0, 2)) + kron_chain(ket(1, 2), ket(1, 2))) * SQ2
        proj = np.outer(bell, bell.conj())
        pt = partial_transpose(proj, (2, 2), {0})
        evals, _ = jacobi_eigh(pt)
        assert np.allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_against_numpy_oracle(self, n):
        rng = np.random.default_rng(42 + n)
        for _ in range(4):
            a = random_hermitian(rng, n)
            evals, _ = jacobi_eigh(a)
            expected = np.linalg.eigvalsh(a)
            assert np.max(np.abs(evals - expected)) < 1e-10

    def test_eigenpair_reconstruction(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 9)
        scale = np.linalg.norm(a)
        evals, vecs = jacobi_eigh(a)
        for lam, v in zip(evals, vecs.T):
            assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * scale

    def test_trace_consistency(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 7)
        evals, _ = jacobi_eigh(a)
        assert abs(np.sum(evals) - np.trace(a).real) <= 1e-9

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(13)
        # random unitary conjugation of a highly degenerate diagonal
        q, r = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        diag = np.diag([0.0] * 4 + [1.0] * 4 + [2.0])
        a = q @ diag @ q.conj().T
        evals, _ = jacobi_eigh(a)
        assert np.allclose(evals, sorted([0.0] * 4 + [1.0] * 4 + [2.0]), atol=1e-11)

    def test_medium_size_against_numpy(self):
        rng = np.random.default_rng(14)
        a = random_hermitian(rng, 64, scale=3.0)
        evals, _ = jacobi_eigh(a)
        assert np.max(np.abs(evals - np.linalg.eigvalsh(a))) < 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractViolationError):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("case", NON_FINITE_CASES)
    def test_non_finite_rejected(self, case):
        # LAPACK alone returns finite eigenvalues for some of these and
        # fails to converge on others
        with pytest.raises(ContractViolationError):
            hermitian_eigenvalues(non_finite_matrix(case))

    def test_sweep_cap_reported(self):
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ConvergenceError):
            jacobi_eigh(a, max_sweeps=0)


@st.composite
def hermitian_cases(draw):
    """A random Hermitian matrix, or a partial transpose of the uniform
    mixture on the complement of an orthogonal product set.  The set is
    drawn greedily from product states whose local factors are
    computational, dual or random-unitary basis kets, keeping each one
    orthogonal to those kept before it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_hermitian(rng, draw(st.integers(1, 16)))
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3)))
    bases = []
    for d in dims:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        cols = [np.eye(d)[:, k] for k in range(d)] + [dft_col(k, d) for k in range(d)]
        bases.append(cols + [q[:, k] for k in range(d)])
    total = int(np.prod(dims))
    members = []
    for _ in range(draw(st.integers(1, total - 1))):
        v = kron_chain(*(basis[draw(st.integers(0, len(basis) - 1))] for basis in bases))
        if all(abs(np.vdot(w, v)) <= 1e-12 for w in members):
            members.append(v)
    proj = sum(np.outer(v, v.conj()) for v in members)
    rho = (np.eye(total) - proj) / (total - len(members))
    n = len(dims)
    subset = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return partial_transpose((rho + rho.conj().T) / 2, dims, subset)


class TestLapackAgreesWithJacobi:
    @settings(max_examples=60, deadline=None)
    @given(hermitian_cases())
    def test_spectra_agree(self, a):
        evals, _ = jacobi_eigh(a)
        assert np.max(np.abs(hermitian_eigenvalues(a) - evals)) <= 1e-10


class TestPartialTranspose:
    def test_identity_invariant(self):
        rho = np.eye(8) / 8
        for cut in ({0}, {1}, {2}, {0, 1}):
            assert np.array_equal(partial_transpose(rho, (2, 2, 2), cut), rho)

    def test_product_projector_maps_to_product_projector(self):
        psi = np.array([1, 1j]) * SQ2
        phi = np.array([SQ2, -SQ2])
        proj = np.outer(kron_chain(psi, phi), kron_chain(psi, phi).conj())
        pt = partial_transpose(proj, (2, 2), {0})
        expected = np.outer(
            kron_chain(psi.conj(), phi), kron_chain(psi.conj(), phi).conj()
        )
        assert np.max(np.abs(pt - expected)) < 1e-15

    def test_involution_exact(self):
        rng = np.random.default_rng(1)
        rho = random_hermitian(rng, 12)
        twice = partial_transpose(
            partial_transpose(rho, (3, 4), {1}), (3, 4), {1}
        )
        assert np.array_equal(twice, rho)

    def test_trace_and_complement_relation(self):
        rng = np.random.default_rng(2)
        rho = random_hermitian(rng, 8)
        pt = partial_transpose(rho, (2, 2, 2), {0})
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-12
        pt_comp = partial_transpose(rho, (2, 2, 2), {1, 2})
        assert np.max(np.abs(pt - pt_comp.T)) < 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(8)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        lhs = partial_transpose(2.0 * a + b, (2, 2), {1})
        rhs = 2.0 * partial_transpose(a, (2, 2), {1}) + partial_transpose(b, (2, 2), {1})
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_degenerate_cuts_rejected(self):
        rho = np.eye(4) / 4
        with pytest.raises(DegenerateCutError):
            partial_transpose(rho, (2, 2), set())
        with pytest.raises(DegenerateCutError):
            partial_transpose(rho, (2, 2), {0, 1})


class TestSpanAndComplement:
    def test_repeated_vector(self):
        assert span_dimension([ket(0, 2), ket(0, 2)]) == 1

    def test_two_independent(self):
        plus = np.array([SQ2, SQ2])
        assert span_dimension([ket(0, 2), plus]) == 2

    def test_shift_upb_alice_factors(self):
        # the three dual-side Alice factors |0-1>, |1>, |0+1> fill the qubit
        minus = np.array([SQ2, -SQ2])
        plus = np.array([SQ2, SQ2])
        assert span_dimension([minus, ket(1, 2), plus]) == 2

    def test_permutation_and_scale_invariance(self):
        rng = np.random.default_rng(4)
        vecs = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(4)]
        base = span_dimension(vecs)
        assert span_dimension(vecs[::-1]) == base
        scaled = [3e-7 * vecs[0], 2e5 * vecs[1], -vecs[2], 1j * vecs[3]]
        assert span_dimension(scaled) == base

    def test_zero_vectors_contribute_nothing(self):
        assert span_dimension([np.zeros(3), ket(2, 3), np.zeros(3)]) == 1

    def test_tolerance_admitting_a_rank_one_orthogonal_pair_is_refused(self):
        # overlap 0.62 and smaller singular value sqrt(1 - 0.62) ~ 0.616:
        # within 0.65 this pair would be both rank 1 and orthogonal
        with pytest.raises(PreconditionError):
            span_dimension([(1, 0), (0.62, 0.785)], 0.65)

    def test_complement_of_single_ket(self):
        comp = orthogonal_complement_basis([ket(0, 2)], 2)
        assert len(comp) == 1
        assert abs(abs(comp[0][1]) - 1.0) < 1e-12

    def test_complement_of_full_basis_empty(self):
        comp = orthogonal_complement_basis([ket(i, 3) for i in range(3)], 3)
        assert comp == []

    def test_complement_orthogonality_and_size(self):
        rng = np.random.default_rng(9)
        vecs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(3)]
        comp = orthogonal_complement_basis(vecs, 6)
        assert len(comp) == 6 - span_dimension(vecs)
        for w in comp:
            for v in vecs:
                assert abs(np.vdot(v / np.linalg.norm(v), w)) <= 1e-10
        assert np.max(np.abs(gram(comp) - np.eye(len(comp)))) < 1e-12

    def test_a_tall_stack_forms_no_square_u(self):
        # 3000 rows of length 3: a full SVD would also form the 3000 x 3000
        # complex U, 144 MB
        rows = _random_vectors(np.random.default_rng(21), 3000, 3)
        tracemalloc.start()
        try:
            rank = span_dimension(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank == 3
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("k, n, rank", [(7, 4, 2), (4, 4, 4), (2, 5, 2)])
    def test_complement_size_for_tall_square_and_wide_stacks(self, k, n, rank):
        # k inputs in C^n spanning a rank-dimensional subspace
        rng = np.random.default_rng(k * n)
        span = _random_vectors(rng, rank, n)
        vecs = [sum(rng.standard_normal() * v for v in span) for _ in range(k)]
        comp = orthogonal_complement_basis(vecs, n)
        assert len(comp) == n - rank
        for w in comp:
            for v in vecs:
                assert abs(np.vdot(v / np.linalg.norm(v), w)) <= 1e-10
        if comp:
            assert np.max(np.abs(gram(comp) - np.eye(len(comp)))) < 1e-12


def _random_vectors(rng, k, d):
    return [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(k)]


@st.composite
def near_subspace_sets(draw):
    """0-8 vectors of dimension 1-6: exact zero vectors, and unit vectors
    within 1e-13 of one random r-dimensional subspace, rescaled at random.
    Their unit-normalised stack has singular values of order 1e-13 beyond
    the subspace's dimension, and random Gaussian ones within it, so with
    overwhelming probability none lies near the default tol 1e-9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    r = draw(st.integers(0, d))
    basis = np.linalg.qr(np.array(_random_vectors(rng, d, d)))[0][:, :r]
    vectors = []
    for _ in range(draw(st.integers(0, 8))):
        if r == 0 or draw(st.integers(0, 5)) == 0:
            vectors.append(np.zeros(d, dtype=complex))
            continue
        v = basis @ (rng.standard_normal(r) + 1j * rng.standard_normal(r))
        v = v / np.linalg.norm(v) + 1e-13 * _random_vectors(rng, 1, d)[0] / np.sqrt(2 * d)
        vectors.append(10.0 ** rng.uniform(-3, 3) * v)
    return vectors, d


@st.composite
def factor_pools(draw):
    """A pool of local factors of dimension 2-5 in id order: the
    computational and dual bases and up to four random vectors."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 5))
    pool = [ket(k, d) for k in range(d)] + [dft_col(k, d) for k in range(d)]
    return pool + _random_vectors(rng, draw(st.integers(0, 4)), d)


class TestRankPrimitive:
    """``span_dimension``, ``orthonormalize`` and
    ``orthogonal_complement_basis`` are views of one SVD of the
    unit-normalised inputs; the Gram-Schmidt routines they replaced are the
    reference in ``helpers``."""

    @settings(max_examples=200, deadline=None)
    @given(near_subspace_sets())
    def test_agrees_with_gram_schmidt_away_from_tol(self, case):
        vectors, d = case
        rank = span_dimension(vectors)
        assert rank == gs_span_dimension(vectors)
        assert len(orthonormalize(vectors)) == rank
        comp = orthogonal_complement_basis(vectors, d)
        assert len(comp) == len(gs_complement_basis(vectors, d)) == d - rank

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 8),
           st.floats(1e-9, 0.6))
    def test_complement_is_orthogonal_to_every_input_within_tol(self, seed, d, k, tol):
        vectors = _random_vectors(np.random.default_rng(seed), k, d)
        comp = orthogonal_complement_basis(vectors, d, tol)
        assert len(comp) == d - span_dimension(vectors, tol)
        if comp:
            assert np.max(np.abs(gram(comp) - np.eye(len(comp)))) <= 1e-12
        for w in comp:
            for v in vectors:
                assert abs(np.vdot(v / np.linalg.norm(v), w)) <= tol

    @settings(max_examples=200, deadline=None)
    @given(factor_pools(), st.data(), st.floats(1e-9, 0.6))
    def test_rank_is_monotone(self, pool, data, tol):
        ids = range(len(pool))
        superset = data.draw(st.sets(st.sampled_from(ids)))
        subset = data.draw(st.sets(st.sampled_from(sorted(superset)))) if superset else set()
        assert span_dimension([pool[i] for i in sorted(subset)], tol) <= span_dimension(
            [pool[i] for i in sorted(superset)], tol
        )

    def test_rank_is_monotone_where_gram_schmidt_is_not(self):
        # unit vectors at 0, 20 and 40 degrees in the plane, tol 0.5: the
        # Gram-Schmidt residual of 40 against 0 is sin 40 > 0.5, but against
        # the span of 20 and 0 it is below 0.5; the smaller singular value
        # of {0, 40} is sqrt(1 - cos 40) < 0.5
        at = {deg: np.array([np.cos(np.radians(deg)), np.sin(np.radians(deg))]) for deg in (0, 20, 40)}
        subset, superset = [at[0], at[40]], [at[20], at[0], at[40]]
        assert gs_span_dimension(subset, 0.5) == 2 > gs_span_dimension(superset, 0.5) == 1
        assert span_dimension(subset, 0.5) == span_dimension(superset, 0.5) == 1


class TestRankPrimitiveCopies:
    """The rank primitive holds its inputs as one stacked copy, normalised
    in place: it never writes the caller's array, and its peak beside the
    input is the copy plus the SVD's U and vh."""

    @pytest.mark.parametrize("shape, bound", [((1000, 1000), 3.5), ((3000, 300), 2.5)])
    def test_span_dimension_peaks_at_the_copy_and_the_svd(self, shape, bound):
        # a per-row copy, a normalised list and a stack of both: 4.0x and 3.1x
        rng = np.random.default_rng(shape[1])
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tracemalloc.start()
        try:
            rank = span_dimension(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank == min(shape)
        assert peak <= bound * a.nbytes

    @pytest.mark.parametrize("view", [
        span_dimension,
        orthonormalize,
        lambda vectors: orthogonal_complement_basis(vectors, 4),
    ])
    def test_the_input_is_not_written(self, view):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        a[1] *= 1e5
        a[2] = 0.0
        kept = a.copy()
        view(a)
        view(list(a))
        assert np.array_equal(a, kept)

    @pytest.mark.parametrize("vectors", [[], [np.zeros(3)], np.zeros((2, 3)), np.zeros((0, 3))])
    def test_zero_and_empty_inputs_leave_the_whole_space(self, vectors):
        assert span_dimension(vectors) == 0
        assert orthonormalize(vectors) == []
        comp = orthogonal_complement_basis(vectors, 3)
        assert np.array_equal(np.array(comp), np.eye(3))
