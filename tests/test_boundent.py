import numpy as np
import pytest

from nlwe.boundent import (
    DensityMatrix,
    be_state,
    bipartitions,
    member_annihilation,
    ppt_report,
    separability_completion,
    separability_report,
    state_rank,
)
from nlwe.ensembles import four_qutrit_circuit, preset_circuit, shift_circuit
from nlwe.errors import ContractViolationError, TooLargeError, UnsupportedShapeError
from nlwe.linalg import (
    gram,
    hermitian_eigenvalues,
    orthogonal_complement_basis,
    partial_transpose,
    span_dimension,
)
from nlwe.states import CB, Dense, ProductBasis, ProductState
from nlwe.upb import Upb, extract_upb

from helpers import NON_FINITE_CASES, ket, kron_chain, non_finite_matrix

SQ2 = 1 / np.sqrt(2)


def shift_upb():
    return extract_upb(shift_circuit(), {0: 0, 1: 0, 2: 0})


def complement_mixture(upb):
    """Uniform mixture on the complement, built directly (no
    unextendibility gate), for characterizing arbitrary orthogonal sets."""
    total = upb.total_dimension()
    proj = np.zeros((total, total), dtype=complex)
    for s in upb.states:
        v = s.dense()
        proj += np.outer(v, v.conj())
    rho = (np.eye(total) - proj) / (total - len(upb))
    return DensityMatrix((rho + rho.conj().T) / 2, upb.dims)


class TestBeState:
    def test_shift_state_basics(self):
        u = shift_upb()
        rho = be_state(u)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
        assert state_rank(rho) == 8 - 4
        assert member_annihilation(rho, u) <= 1e-12
        # uniform coefficient 1/(D-m) on the complement
        evals = hermitian_eigenvalues(rho.matrix)
        assert np.allclose(evals[:4], 0.0, atol=1e-12)
        assert np.allclose(evals[4:], 0.25, atol=1e-12)

    def test_rank_reads_the_kept_spectrum(self, monkeypatch):
        rho = be_state(shift_upb())
        assert np.array_equal(rho.eigenvalues, hermitian_eigenvalues(rho.matrix))

        def second_spectrum(a):
            raise AssertionError("rho diagonalised a second time")

        monkeypatch.setattr("nlwe.boundent.hermitian_eigenvalues", second_spectrum)
        assert state_rank(rho) == 8 - 4

    def test_extendible_input_rejected(self):
        with pytest.raises(ContractViolationError):
            be_state(extract_upb(four_qutrit_circuit()))

    def test_beyond_the_dense_budget(self):
        # D = 15625: refused before the search and before any D x D array
        with pytest.raises(TooLargeError):
            be_state(extract_upb(preset_circuit("canonical:n=6,d=5")))

    def test_four_qutrit_complement_mixture_characterized_directly(self):
        # The four-qutrit extraction is extendible (see test_upb), so the
        # certified constructor refuses it; the raw complement mixture still
        # has the advertised spectrum and stays PPT on every cut.
        u = extract_upb(four_qutrit_circuit())
        rho = complement_mixture(u)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
        assert state_rank(rho) == 81 - 9
        assert member_annihilation(rho, u) <= 1e-12
        report = ppt_report(rho)
        assert len(report.checks) == 7
        assert report.passed


class TestPptReport:
    def test_bipartition_count(self):
        assert len(bipartitions(3)) == 3
        assert len(bipartitions(4)) == 7

    def test_shift_state_ppt_on_all_cuts(self):
        rho = be_state(shift_upb())
        report = ppt_report(rho)
        assert report.passed
        assert len(report.checks) == 3
        for check in report.checks:
            assert check.residual >= -1e-10

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        report = ppt_report(rho)
        assert report.passed
        for check in report.checks:
            assert abs(check.residual - 1 / 8) < 1e-12

    def test_bell_projector_is_npt(self):
        bell = (kron_chain(ket(0, 2), ket(0, 2)) + kron_chain(ket(1, 2), ket(1, 2))) * SQ2
        rho = DensityMatrix(np.outer(bell, bell.conj()), (2, 2))
        report = ppt_report(rho)
        assert not report.passed
        assert len(report.checks) == 1
        assert abs(report.checks[0].residual - (-0.5)) <= 1e-9

    def test_partial_transpose_keeps_trace_and_hermiticity(self):
        rho = be_state(shift_upb())
        for cut in ({0}, {1}, {2}):
            pt = partial_transpose(rho.matrix, rho.dims, cut)
            assert abs(np.trace(pt) - 1.0) < 1e-12
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


class TestDensityMatrixContract:
    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(ContractViolationError):
            DensityMatrix(bad, (2, 2))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ContractViolationError):
            DensityMatrix(np.eye(4, dtype=complex), (2, 2))

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ContractViolationError):
            DensityMatrix(bad, (2, 2))

    @pytest.mark.parametrize("case", NON_FINITE_CASES)
    def test_rejects_non_finite(self, case):
        # a NaN at (3,3) leaves LAPACK the spectrum [0, -0, 1/4, 1/4], which
        # passes a positivity gate written as low < -tol; off the diagonal
        # LAPACK may ignore the entry or fail to converge
        with pytest.raises(ContractViolationError):
            DensityMatrix(non_finite_matrix(case), (2, 2))


class TestSeparabilityCompletion:
    def test_qubit_case_every_cut(self):
        u = shift_upb()
        for s in range(3):
            states = separability_completion(u, s)
            assert len(states) == 8
            g = gram([st.dense() for st in states])
            assert np.max(np.abs(g - np.eye(8))) <= 1e-9
            # first m states are the input members regrouped across the cut
            rest = [p for p in range(3) if p != s]
            for st, member in zip(states[:4], u.states):
                regroup = member.dense().reshape(2, 2, 2).transpose([s] + rest).reshape(8)
                assert np.max(np.abs(st.dense() - regroup)) <= 1e-12
            # every emitted state is product across the cut by construction
            for st in states:
                assert len(st.factors) == 2
                assert st.dims == (2, 4)

    def test_two_dim_anchor_subspace(self):
        # span of the shared rest pattern and the stopper rest factor is 2,
        # so its complement inside the rest space has dimension d^d - 2
        u = shift_upb()
        states = separability_completion(u, 0)
        member_rest = [st.factors[1].entries for st in states[:4]]
        f = member_rest[2]  # family with dual factor on party A shares one pattern
        g = member_rest[3]  # stopper rest factors
        assert span_dimension([f, g]) == 2

    def test_qutrit_case_single_cut(self):
        u = extract_upb(four_qutrit_circuit())
        states = separability_completion(u, 0)
        assert len(states) == 81
        g = gram([st.dense() for st in states])
        assert np.max(np.abs(g - np.eye(81))) <= 1e-9
        # 9 regrouped members + 3 families of 23 + 2 + 1 new states
        assert 9 + 3 * 23 + 2 + 1 == 81

    def test_qutrit_anchor_complement_dimension(self):
        # span of the two rest anchors is 2, so its complement has 27 - 2 = 25
        u = extract_upb(four_qutrit_circuit())
        states = separability_completion(u, 0)
        member_rest = [st.factors[1].entries for st in states[:9]]
        f = member_rest[6]  # family with dual factor on party A
        g = member_rest[8]  # stopper
        assert span_dimension([f, g]) == 2
        from nlwe.linalg import orthogonal_complement_basis

        assert len(orthogonal_complement_basis([f, g], 27)) == 25

    def test_report_all_cuts_qubit(self):
        report = separability_report(shift_upb())
        assert report.passed
        assert len(report.checks) == 3

    def test_unsupported_shape(self):
        u = extract_upb(preset_circuit("canonical:n=3,d=3"))
        with pytest.raises(UnsupportedShapeError):
            separability_completion(u, 0)
        with pytest.raises(UnsupportedShapeError):
            separability_report(u)

    def test_completion_states_validate_as_product_states(self):
        u = shift_upb()
        for st in separability_completion(u, 1):
            assert isinstance(st, ProductState)
            if isinstance(st.factors[1], Dense):
                assert abs(np.linalg.norm(st.factors[1].entries) - 1.0) <= 1e-12

    @pytest.mark.parametrize("make_upb", [shift_upb, lambda: extract_upb(four_qutrit_circuit())],
                             ids=["shift", "four-qutrit"])
    def test_reversed_members_complete_every_cut(self, make_upb):
        u = make_upb()
        m = len(u)
        rev = Upb(u.states[::-1], u.dims, stopper_index=m - 1 - u.stopper_index)
        total = rev.total_dimension()
        for s in range(len(u.dims)):
            states = separability_completion(rev, s)
            assert len(states) == total
            g = ProductBasis(states[0].dims, states).gram()
            assert np.max(np.abs(g - np.eye(total))) <= 1e-9
            for st, member in zip(states[:m], rev.states):
                assert st.factors[0] == member.factors[s]

    def test_dense_factor_fails_only_its_own_cut(self):
        # member 0 is |0>|0>|0> on SHIFT; an equal Dense ket on party A keeps
        # the set orthogonal, but only the A|BC completion needs A's ket to
        # be a computational or dual-basis ket
        u = shift_upb()
        assert u.states[0].factors[0] == CB(0)
        first = ProductState((Dense([1.0, 0.0]),) + u.states[0].factors[1:], u.dims)
        mixed = Upb((first,) + u.states[1:], u.dims, stopper_index=u.stopper_index)
        with pytest.raises(ContractViolationError):
            separability_completion(mixed, 0)
        report = separability_report(mixed)
        flags = {c.name: c.passed for c in report.checks}
        assert flags == {"completion[A|BC]": False, "completion[B|AC]": True,
                         "completion[C|AB]": True}
        assert "dense factor" in report.checks[0].detail
        for check in report.checks[1:]:
            assert check.residual <= 1e-9
            assert check.detail.startswith("8 cut-product states")

    def test_five_ququart_single_cut(self):
        u = extract_upb(preset_circuit("canonical:n=5,d=4"))
        states = separability_completion(u, 2)
        assert len(states) == 1024
        g = ProductBasis((4, 256), states).gram()
        assert np.max(np.abs(g - np.eye(1024))) <= 1e-9

    def test_gram_certificate_catches_a_wrong_complement(self, monkeypatch):
        # the right number of states, but every complement vector repeated
        def repeated_first(vectors, ambient_dim, tol=None):
            comp = orthogonal_complement_basis(vectors, ambient_dim, tol)
            return comp[:1] * len(comp)

        monkeypatch.setattr("nlwe.boundent.orthogonal_complement_basis", repeated_first)
        with pytest.raises(ContractViolationError, match="not orthonormal"):
            separability_completion(extract_upb(four_qutrit_circuit()), 0)
