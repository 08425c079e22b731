"""Product sets as one ``LocalFactors`` table.

A table interned from ``ProductState`` members and one filled by the file
loader must describe the same set; ``generate_basis``, ``apply_symbolic``
and a plain per-input firing rule must give the same images.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwe import serialize
from nlwe.circuit import apply_symbolic, generate_basis, is_exclusive
from nlwe.ensembles import local_factor_census, preset_circuit
from nlwe.errors import ContractViolationError
from nlwe.states import CB, DFT, Dense, LocalFactors, ProductBasis, ProductState, factor_descriptor

from helpers import control_dft_circuits

PRESETS = [
    "oneway", "shift", "fig4", "canonical:n=4,d=3", "canonical:n=4,d=3,4,3,3",
    "canonical:n=5,d=4", "canonical:n=6,d=5",
]


@st.composite
def mixed_sets(draw):
    """2-3 parties of dimension 2-4; each factor a CB, DFT or dense ket,
    where the dense kets of a party are a random unitary's columns and
    those columns times the phase exp(1e-11 i), which differ from them
    only past the census's 9-digit rounding."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = []
    for d in dims:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        dense.append([Dense(q[:, k]) for k in range(d)]
                     + [Dense(q[:, k] * np.exp(1e-11j)) for k in range(d)])
    states = []
    for _ in range(draw(st.integers(0, 8))):
        factors = []
        for d, kets in zip(dims, dense):
            kind = draw(st.sampled_from(("cb", "dft", "dense")))
            k = draw(st.integers(0, 2 * d - 1 if kind == "dense" else d - 1))
            factors.append({"cb": CB, "dft": DFT}[kind](k) if kind != "dense" else kets[k])
        states.append(ProductState(tuple(factors), dims))
    return states, dims


def loaded_basis(states, dims):
    """The basis read back from a file object written member by member,
    with one factor object per occurrence."""
    obj = {"dims": list(dims), "states": [
        {"factors": [serialize.factor_to_obj(f) for f in s.factors]} for s in states
    ]}
    basis, _ = serialize.basis_from_obj(serialize.loads(serialize.dumps(obj)))
    return basis


def reference_census(states, party):
    return dict(Counter(factor_descriptor(s.factors[party]) for s in states))


class TestLoaderAgreesWithStates:
    @settings(max_examples=150, deadline=None)
    @given(mixed_sets())
    def test_tables_agree(self, case):
        states, dims = case
        built = ProductBasis.from_states(states, dims)
        loaded = loaded_basis(states, dims)
        assert np.array_equal(loaded.table.ids, built.table.ids)
        assert loaded.table.factors == built.table.factors
        assert loaded.states == built.states == tuple(states)
        assert loaded.gram_deviation() == built.gram_deviation()
        assert loaded.norm_deviation() == built.norm_deviation()
        for p in range(len(dims)):
            census = reference_census(states, p)
            assert local_factor_census(loaded, p) == local_factor_census(built, p) == census

    def test_near_identical_dense_kets_are_two_factors_but_one_descriptor(self):
        v = np.array([0.6 + 0.2j, 0.3 - 0.7j]) / np.sqrt(0.98)
        states = [ProductState((Dense(v * phase), CB(k)), (2, 2))
                  for phase, k in ((1.0, 0), (np.exp(1e-11j), 1))]
        basis = loaded_basis(states, (2, 2))
        assert len(basis.table.factors[0]) == 2
        assert list(local_factor_census(basis, 0).values()) == [2]


def fired_factors(circuit, cb_input):
    """The per-input rule, written out: a gate fires when every control
    holds its value; the fired gate's target carries DFT(x_t)."""
    fired = [g for g in circuit.gates if all(cb_input[p] == v for p, v in g.controls)]
    assert len(fired) <= 1
    factors = [CB(x) for x in cb_input]
    for g in fired:
        factors[g.target] = DFT(cb_input[g.target])
    return tuple(factors)


class TestOneFiringRule:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_generate_matches_apply_symbolic_on_every_input(self, preset):
        circuit = preset_circuit(preset)
        basis = generate_basis(circuit)
        inputs = list(itertools.product(*(range(d) for d in circuit.dims)))
        assert len(basis) == len(inputs)
        for state, cb_input in zip(basis.states, inputs):
            expected = fired_factors(circuit, cb_input)
            assert state.factors == expected
            assert apply_symbolic(circuit, cb_input) == state
        interned = LocalFactors.from_states(basis.states, circuit.dims)
        assert np.array_equal(interned.ids, basis.table.ids)
        assert interned.factors == basis.table.factors

    @settings(max_examples=150, deadline=None)
    @given(control_dft_circuits())
    def test_random_circuits(self, circuit):
        inputs = list(itertools.product(*(range(d) for d in circuit.dims)))
        if not is_exclusive(circuit):
            with pytest.raises(ContractViolationError):
                generate_basis(circuit)
            with pytest.raises(ContractViolationError):
                apply_symbolic(circuit, inputs[0])
            return
        basis = generate_basis(circuit)
        assert [s.factors for s in basis.states] == [fired_factors(circuit, x) for x in inputs]
        for x in inputs:
            assert apply_symbolic(circuit, x).factors == fired_factors(circuit, x)
