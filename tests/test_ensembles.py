import math

import pytest

from nlwe.circuit import check_commutation, generate_basis, validate_exclusivity
from nlwe.ensembles import (
    canonical_circuit,
    extended_circuit_fig4,
    four_qutrit_circuit,
    local_factor_census,
    preset_circuit,
    shift_circuit,
)
from nlwe.errors import ConstructionError, UnknownPresetError
from nlwe.states import CB, DFT

from helpers import dft_parties, symbolic_key

ONEWAY_EXPECTED = [
    (CB(0), CB(0)),
    (CB(0), CB(1)),
    (CB(1), DFT(0)),
    (CB(1), DFT(1)),
]

SHIFT_EXPECTED = [
    (CB(0), CB(0), CB(0)),
    (DFT(0), CB(0), CB(1)),
    (CB(0), CB(1), DFT(0)),
    (CB(0), CB(1), DFT(1)),
    (CB(1), DFT(0), CB(0)),
    (DFT(1), CB(0), CB(1)),
    (CB(1), DFT(1), CB(0)),
    (CB(1), CB(1), CB(1)),
]


class TestOneway:
    def test_exact_states(self):
        basis = generate_basis(preset_circuit("oneway"))
        assert [s.factors for s in basis.states] == ONEWAY_EXPECTED

    def test_third_state(self):
        assert generate_basis(preset_circuit("oneway")).states[2].factors == (CB(1), DFT(0))

    def test_orthonormal(self):
        assert generate_basis(preset_circuit("oneway")).gram_deviation() <= 1e-12


class TestShift:
    def test_reproduces_eight_states_in_order(self):
        basis = generate_basis(shift_circuit())
        assert [s.factors for s in basis.states] == SHIFT_EXPECTED

    def test_contains_named_states(self):
        keys = {symbolic_key(s) for s in generate_basis(shift_circuit()).states}
        psi2 = (("DFT", 0), ("CB", 0), ("CB", 1))
        psi7 = (("CB", 1), ("DFT", 1), ("CB", 0))
        assert psi2 in keys and psi7 in keys

    def test_exactly_two_states_without_dual_factor(self):
        plain = [s for s in generate_basis(shift_circuit()).states if not dft_parties(s)]
        assert len(plain) == 2
        assert {symbolic_key(s) for s in plain} == {
            (("CB", 0), ("CB", 0), ("CB", 0)),
            (("CB", 1), ("CB", 1), ("CB", 1)),
        }


class TestCanonicalCircuit:
    def test_three_qubit_gate_structure(self):
        c = canonical_circuit(3, (2, 2, 2))
        assert c.gates[0].control_map == {0: 0, 1: 1}
        assert c.gates[0].target == 2
        assert c.gates[1].control_map == {0: 1, 2: 0}
        assert c.gates[1].target == 1
        assert c.gates[2].control_map == {1: 0, 2: 1}
        assert c.gates[2].target == 0

    def test_four_qutrit_first_gate(self):
        c = canonical_circuit(4, (3, 3, 3, 3))
        assert c.gates[0].control_map == {0: 0, 1: 1, 2: 2}
        assert c.gates[0].target == 3

    def test_dimension_condition_names_party(self):
        with pytest.raises(ConstructionError, match="party A"):
            canonical_circuit(4, (2, 3, 3, 3))

    def test_too_few_parties(self):
        with pytest.raises(ConstructionError):
            canonical_circuit(2, (2, 2))

    def test_unequal_dims_allowed_above_bound(self):
        c = canonical_circuit(3, (2, 3, 4))
        basis = generate_basis(c)
        assert len(basis) == 24
        assert basis.gram_deviation() <= 1e-10


class TestFig4:
    def test_added_gate_controls(self):
        c = extended_circuit_fig4()
        assert len(c.gates) == 8
        first_added = c.gates[4]
        assert first_added.control_map == {0: 0, 1: 2, 2: 1}
        assert first_added.target == 3

    def test_exclusivity_holds(self):
        assert validate_exclusivity(extended_circuit_fig4()).passed

    def test_strictly_more_dual_factors_than_minimal(self):
        def dual_count(circuit):
            return sum(
                1 for s in generate_basis(circuit).states if dft_parties(s)
            )

        assert dual_count(extended_circuit_fig4()) > dual_count(four_qutrit_circuit())


class TestCensus:
    def test_shift_party_a(self):
        census = local_factor_census(generate_basis(shift_circuit()), 0)
        assert census == {"CB0": 3, "CB1": 3, "DFT0": 1, "DFT1": 1}

    def test_gateless_circuit_sees_cb_only(self):
        from nlwe.circuit import Circuit

        basis = generate_basis(Circuit((2, 2), []))
        census = local_factor_census(basis, 1)
        assert set(census) == {"CB0", "CB1"}

    def test_four_qutrit_party_d_has_six_descriptors(self):
        basis = generate_basis(four_qutrit_circuit())
        census = local_factor_census(basis, 3)
        assert len(census) == 6
        assert set(census) == {"CB0", "CB1", "CB2", "DFT0", "DFT1", "DFT2"}

    def test_bounded_by_twice_dimension(self):
        for circuit in (shift_circuit(), four_qutrit_circuit(), extended_circuit_fig4()):
            basis = generate_basis(circuit)
            for p, d in enumerate(circuit.dims):
                assert len(local_factor_census(basis, p)) <= 2 * d


class TestPresetProperties:
    @pytest.mark.parametrize(
        "name", ["oneway", "shift", "fig4", "canonical:n=4,d=3,3,3,3"]
    )
    def test_basis_size_and_orthonormality(self, name):
        circuit = preset_circuit(name)
        basis = generate_basis(circuit)
        assert len(basis) == math.prod(circuit.dims)
        assert basis.gram_deviation() <= 1e-10
        assert validate_exclusivity(circuit).passed
        report = check_commutation(circuit)
        assert report.passed

    @pytest.mark.parametrize(
        "name", ["oneway", "shift", "fig4", "canonical:n=4,d=3,3,3,3"]
    )
    def test_every_preset_gate_is_unitary(self, name):
        import numpy as np

        from nlwe.circuit import gate_unitary

        circuit = preset_circuit(name)
        for gate in circuit.gates:
            u = gate_unitary(gate, circuit.dims)
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12

    @pytest.mark.parametrize("name", ["oneway", "shift", "fig4"])
    def test_at_most_one_dual_factor_per_state(self, name):
        for s in generate_basis(preset_circuit(name)).states:
            assert len(dft_parties(s)) <= 1

    def test_single_dim_shorthand(self):
        c = preset_circuit("canonical:n=4,d=3")
        assert c.dims == (3, 3, 3, 3)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError):
            preset_circuit("nonesuch")
