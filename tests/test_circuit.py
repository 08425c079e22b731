import numpy as np
import pytest

from nlwe.circuit import (
    Circuit,
    ControlDftGate,
    check_commutation,
    gate_unitary,
    generate_basis,
    validate_exclusivity,
)
from nlwe.ensembles import four_qutrit_circuit, shift_circuit
from nlwe.errors import ContractViolationError, TooLargeError
from nlwe.states import CB, DFT

from helpers import apply_dense, basis_row, circuit_unitary, dft_col, dft_parties, ket, kron_chain

SQ2 = 1 / np.sqrt(2)


def test_gate_rejects_target_in_controls():
    with pytest.raises(ContractViolationError):
        ControlDftGate({0: 1}, target=0)


def test_circuit_rejects_out_of_range_control_value():
    with pytest.raises(ContractViolationError):
        Circuit((2, 2), [ControlDftGate({0: 2}, target=1)])


class TestExclusivity:
    def test_shift_passes(self):
        report = validate_exclusivity(shift_circuit())
        assert report.passed
        assert len(report.checks) == 3

    def test_identical_gates_fail(self):
        g = ControlDftGate({0: 0, 1: 1}, target=2)
        report = validate_exclusivity(Circuit((2, 2, 2), [g, g]))
        assert not report.passed
        assert "no shared control" in report.checks[0].detail

    def test_eight_gate_circuit_all_pairs_conflict(self):
        from nlwe.ensembles import extended_circuit_fig4

        circuit = extended_circuit_fig4()
        report = validate_exclusivity(circuit)
        assert len(report.checks) == 28
        assert report.passed
        # independent enumeration: exhibit a conflicting shared control per pair
        import itertools

        for g1, g2 in itertools.combinations(circuit.gates, 2):
            c1, c2 = g1.control_map, g2.control_map
            assert any(c1[p] != c2[p] for p in c1.keys() & c2.keys())


class TestGateUnitary:
    def test_shift_gate_fires_on_matching_input(self):
        gate = shift_circuit().gates[0]  # controls {A:0, B:1}, Hadamard on C
        u = gate_unitary(gate, (2, 2, 2))
        vec = kron_chain(ket(0, 2), ket(1, 2), ket(0, 2))
        expected = kron_chain(ket(0, 2), ket(1, 2), np.array([SQ2, SQ2]))
        assert np.max(np.abs(u @ vec - expected)) < 1e-15

    def test_shift_gate_identity_off_condition(self):
        gate = shift_circuit().gates[0]
        u = gate_unitary(gate, (2, 2, 2))
        vec = kron_chain(ket(0, 2), ket(0, 2), ket(0, 2))
        assert np.max(np.abs(u @ vec - vec)) < 1e-15

    def test_qubit_gate_squares_to_identity(self):
        for gate in shift_circuit().gates:
            u = gate_unitary(gate, (2, 2, 2))
            assert np.max(np.abs(u @ u - np.eye(8))) < 1e-12

    def test_unitarity(self):
        for circuit in (shift_circuit(), four_qutrit_circuit()):
            for gate in circuit.gates:
                u = gate_unitary(gate, circuit.dims)
                assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12


class TestCommutation:
    def test_shift_gates_commute(self):
        report = check_commutation(shift_circuit())
        assert report.passed
        assert all(c.residual <= 1e-12 for c in report.checks)

    def test_single_gate_vacuous(self):
        c = Circuit((2, 2), [ControlDftGate({0: 1}, target=1)])
        report = check_commutation(c)
        assert report.passed and report.checks == []

    def test_noncommuting_counterexample(self):
        # two qubits: H on B when A=|0>, H on A when B=|0>; no shared control
        c = Circuit(
            (2, 2),
            [ControlDftGate({0: 0}, target=1), ControlDftGate({1: 0}, target=0)],
        )
        assert not validate_exclusivity(c).passed
        report = check_commutation(c)
        assert not report.passed
        # oracle: literal matrices
        h = np.array([[1, 1], [1, -1]]) * SQ2
        ua = np.block(
            [[h, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]
        ).astype(complex)
        ub = np.eye(4, dtype=complex)
        for i, j in ((0, 0), (0, 2), (2, 0), (2, 2)):
            ub[i, j] = h[i // 2, j // 2]
        ub[1, 1] = ub[3, 3] = 1.0
        residual = np.max(np.abs(ua @ ub - ub @ ua))
        assert residual > 0.1
        assert abs(report.checks[0].residual - residual) < 1e-14


class TestImages:
    def test_shift_inputs(self):
        c = shift_circuit()
        assert basis_row(c, (0, 1, 0)).factors == (CB(0), CB(1), DFT(0))
        assert basis_row(c, (1, 1, 1)).factors == (CB(1), CB(1), CB(1))
        assert basis_row(c, (1, 0, 1)).factors == (DFT(1), CB(0), CB(1))

    def test_non_exclusive_circuit_rejected(self):
        g = ControlDftGate({0: 0}, target=1)
        h = ControlDftGate({0: 0}, target=2)
        with pytest.raises(ContractViolationError):
            generate_basis(Circuit((2, 2, 2), [g, h]))


class TestApplyDense:
    def test_agrees_with_symbolic_on_all_shift_inputs(self):
        c = shift_circuit()
        for basis_state, cb_input in zip(
            generate_basis(c).states,
            [(a, b, d) for a in range(2) for b in range(2) for d in range(2)],
        ):
            dense = apply_dense(c, cb_input)
            assert np.max(np.abs(dense - basis_state.dense())) <= 1e-12

    def test_empty_circuit_is_identity(self):
        c = Circuit((2, 3), [])
        out = apply_dense(c, (1, 2))
        assert np.array_equal(out, kron_chain(ket(1, 2), ket(2, 3)))

    def test_four_qutrit_first_gate_input(self):
        out = apply_dense(four_qutrit_circuit(), (0, 1, 2, 0))
        expected = kron_chain(ket(0, 3), ket(1, 3), ket(2, 3), dft_col(0, 3))
        assert np.max(np.abs(out - expected)) < 1e-12


class TestGenerateBasis:
    def test_refused_size_past_the_digit_limit(self):
        # 1499^1500 has 4764 digits, more than str() converts by default
        with pytest.raises(TooLargeError, match=r"^a basis of (about 5\.04e\+4763|\d{4764}) states"):
            generate_basis(Circuit((1499,) * 1500, []))

    def test_gateless_circuit_gives_cb(self):
        basis = generate_basis(Circuit((2, 2), []))
        assert [s.factors for s in basis.states] == [
            (CB(0), CB(0)),
            (CB(0), CB(1)),
            (CB(1), CB(0)),
            (CB(1), CB(1)),
        ]

    def test_four_qutrit_orthonormal(self):
        basis = generate_basis(four_qutrit_circuit())
        assert len(basis) == 81
        assert basis.gram_deviation() <= 1e-10

    def test_at_most_one_dft_factor(self):
        for circuit in (shift_circuit(), four_qutrit_circuit()):
            for s in generate_basis(circuit).states:
                assert len(dft_parties(s)) <= 1

    def test_gate_reordering_leaves_basis_unchanged(self):
        c = shift_circuit()
        rotated = Circuit(c.dims, c.gates[1:] + c.gates[:1])
        reversed_ = Circuit(c.dims, list(reversed(c.gates)))
        reference = generate_basis(c).states
        assert generate_basis(rotated).states == reference
        assert generate_basis(reversed_).states == reference

    @pytest.mark.parametrize("circuit_factory", [shift_circuit, four_qutrit_circuit])
    def test_symbolic_dense_agreement_via_unitary(self, circuit_factory):
        c = circuit_factory()
        u = circuit_unitary(c)
        rendered = np.array([s.dense() for s in generate_basis(c).states]).T
        assert np.max(np.abs(u - rendered)) <= 1e-12
