"""Product sets as one ``LocalFactors`` table.

A set interned from ``ProductState`` members (``helpers.from_states``) and one made
by the file loader or by ``generate_basis`` must be the same set, of the
same class; ``generate_basis`` and a plain per-input firing rule must give
the same images.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlwe import serialize
from nlwe.circuit import generate_basis, validate_exclusivity
from nlwe.ensembles import local_factor_census, preset_circuit, shift_circuit
from nlwe.errors import ContractViolationError, DimensionMismatchError, NlweError
from nlwe.states import CB, DFT, Dense, LocalFactors, ProductBasis, ProductState, factor_descriptor
from nlwe.upb import Upb, extract_upb

from helpers import (
    control_dft_circuits,
    from_states,
    product_rows,
    product_tables,
    reference_interning,
)

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


def file_obj(states, dims, **fields):
    """A basis or UPB file object written member by member, with one
    factor object per occurrence, as read back from its text."""
    obj = {"dims": list(dims), "states": [
        {"factors": [serialize.factor_to_obj(f) for f in s.factors]} for s in states
    ], **fields}
    return serialize.loads(serialize.dumps(obj))


def loaded_basis(states, dims):
    return serialize.basis_from_obj(file_obj(states, dims))[0]


def assert_same_set(a, b):
    """``a`` and ``b`` are one set: the same class, dims, factors, ids and
    members."""
    assert type(a) is type(b)
    assert a.dims == b.dims
    assert np.array_equal(a.ids, b.ids)
    assert a.factors == b.factors
    assert a.states == b.states


# the stopper-completed extractions, whose members pass the Upb gates
EXTRACTIONS = [extract_upb(shift_circuit(), {0: 0, 1: 0, 2: 0}),
               extract_upb(preset_circuit("canonical:n=4,d=3"))]


def reference_census(states, party):
    return dict(Counter(factor_descriptor(s.factors[party]) for s in states))


class TestLoaderAgreesWithStates:
    @settings(max_examples=150, deadline=None)
    @given(mixed_sets())
    @example(case=(EXTRACTIONS[0].states, EXTRACTIONS[0].dims))
    @example(case=(EXTRACTIONS[1].states, EXTRACTIONS[1].dims))
    def test_tables_agree(self, case):
        states, dims = case
        built = from_states(ProductBasis, states, dims)
        loaded = loaded_basis(states, dims)
        assert_same_set(loaded, built)
        assert built.states == tuple(states)
        interned = from_states(LocalFactors, states, dims)
        assert type(interned) is LocalFactors
        assert np.array_equal(interned.ids, built.ids)
        assert interned.factors == built.factors
        assert interned.states == built.states
        # a UPB, where the members pass its gates with the last as stopper
        try:
            upb = from_states(Upb, states, dims, stopper_index=len(states) - 1)
        except ContractViolationError:
            pass
        else:
            loaded_upb = serialize.upb_from_obj(
                file_obj(states, dims, stopper_index=len(states) - 1))
            assert_same_set(loaded_upb, upb)
            assert loaded_upb.stopper_index == upb.stopper_index
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
        assert len(basis.factors[0]) == 2
        assert list(local_factor_census(basis, 0).values()) == [2]

    def test_entry_rounding_to_minus_zero_shares_the_descriptor(self):
        # times exp(1e-11 i), the second entry's real part is -7e-12,
        # which rounds to -0.0 where the unrotated ket has 0.0
        v = np.array([1, 1j]) / np.sqrt(2)
        near = Dense(v * np.exp(1e-11j))
        assert near.entries[1].real < 0
        assert factor_descriptor(Dense(v)) == factor_descriptor(near)
        states = [ProductState((Dense(v), CB(0)), (2, 2)), ProductState((near, CB(1)), (2, 2))]
        assert local_factor_census(from_states(ProductBasis, states, (2, 2)), 0) == {
            factor_descriptor(Dense(v)): 2
        }


PLUS_ZERO = Dense(np.array([1.0, 0.0]))
MINUS_ZERO = Dense(np.array([1.0, -0.0]))


class TestFactorIdentity:
    """A factor is its own interning key: a dense factor equals, and hashes
    like, one with bit-identical entries and no other."""

    def test_bit_identical_dense_factors_are_equal_and_hash_alike(self):
        v = np.array([0.6 + 0.2j, 0.3 - 0.7j]) / np.sqrt(0.98)
        a, b = Dense(v), Dense(v.copy())
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        near = v.copy()
        near[0] = complex(np.nextafter(v[0].real, 2.0), v[0].imag)
        assert Dense(near) != a

    def test_signed_zero_is_another_factor(self):
        assert np.array_equal(PLUS_ZERO.entries, MINUS_ZERO.entries)
        assert PLUS_ZERO != MINUS_ZERO
        assert len({PLUS_ZERO, MINUS_ZERO}) == 2

    def test_dense_factor_is_not_a_symbolic_one(self):
        assert Dense(np.array([1.0, 0.0])) != CB(0)
        assert CB(0) != Dense(np.array([1.0, 0.0]))
        assert CB(1) != DFT(1)

    def test_product_state_with_a_dense_factor_hashes(self):
        s = ProductState((Dense(np.array([1.0, 0.0])), CB(1)), (2, 2))
        t = ProductState((Dense(np.array([1.0, 0.0])), CB(1)), (2, 2))
        assert s == t and hash(s) == hash(t)
        assert ProductState((MINUS_ZERO, CB(1)), (2, 2)) not in {s}

    @settings(max_examples=200, deadline=None)
    @given(product_rows())
    @example(case=([(PLUS_ZERO, CB(0)), (MINUS_ZERO, CB(1)), (Dense(np.array([1.0, 0.0])), DFT(0))],
                   (2, 2)))
    def test_from_states_interns_like_the_reference(self, case):
        rows, dims = case
        table = from_states(LocalFactors, [ProductState(r, dims) for r in rows], dims)
        factors, ids = reference_interning(rows, len(dims))
        assert np.array_equal(table.ids, ids)
        # the same first-seen objects, in the same order
        assert [[id(f) for f in kept] for kept in table.factors] == [
            [id(f) for f in kept] for kept in factors
        ]


def ids(rows):
    return np.array(rows, dtype=np.intp)


class TestTableCheck:
    """A table is checked once, at construction: each id names one of its
    party's factors, which are distinct and valid there, or the table is
    refused with one ``NlweError`` before any verdict."""

    @pytest.mark.parametrize("build, error, message", [
        # DFT(2) is F|0> on a qubit, so members 0 and 1 would be one state
        # that the orthogonality gate passed
        (lambda: Upb((2, 2), [[DFT(0), DFT(2), CB(1)], [CB(0), CB(1)]],
                     ids([[0, 0], [1, 0], [2, 1]]), 2),
         ContractViolationError, "symbolic index 2 out of range"),
        # id -2 would name CB(0) again, a Gram deviation of 0.0 for two equal members
        (lambda: ProductBasis((2,), [[CB(0), CB(1)]], ids([[0], [-2]])),
         ContractViolationError, "id -2 at party 0 names none of its 2 factors"),
        # an id past the list would be a bare IndexError
        (lambda: ProductBasis((2,), [[CB(0), CB(1)]], ids([[0], [2]])),
         ContractViolationError, "id 2 at party 0 names none of its 2 factors"),
        (lambda: LocalFactors((2, 2), [[CB(0)]], ids([[0, 0]])),
         DimensionMismatchError, "1 factor lists for 2 parties"),
        (lambda: LocalFactors((2,), [[CB(0)]], np.zeros((1, 1))),
         DimensionMismatchError, "integer array"),
        (lambda: LocalFactors((2,), [[CB(0)]], ids([0])),
         DimensionMismatchError, "integer array"),
    ], ids=["upb-dft-out-of-range", "negative-id", "id-past-the-list",
            "factor-lists", "float-ids", "flat-ids"])
    def test_hand_built_table_is_refused(self, build, error, message):
        with pytest.raises(NlweError, match=message) as caught:
            build()
        assert type(caught.value) is error

    @settings(max_examples=150, deadline=None)
    @given(product_tables(max_members=8), st.data())
    def test_a_repeated_factor_or_an_id_out_of_range_is_refused(self, table, data):
        rebuilt = LocalFactors(table.dims, table.factors, table.ids)
        for kept, kinds, masks in zip(rebuilt.factors, rebuilt.kinds, rebuilt.masks):
            assert kinds == bytes({CB: 0, DFT: 1, Dense: 2}[type(f)] for f in kept)
            assert masks == tuple(sum(1 << k for k, f in enumerate(kept) if isinstance(f, c))
                                  for c in (CB, DFT))
        p = data.draw(st.integers(0, len(table.dims) - 1))
        kept = table.factors[p]
        factors = [list(f) for f in table.factors]
        factors[p].insert(data.draw(st.integers(0, len(kept))),
                          data.draw(st.sampled_from(kept)))
        with pytest.raises(ContractViolationError, match="one factor under two ids"):
            LocalFactors(table.dims, factors, table.ids)
        moved = table.ids.copy()
        moved[data.draw(st.integers(0, len(table) - 1)), p] = data.draw(
            st.integers(-len(kept) - 2, -1) | st.integers(len(kept), len(kept) + 2))
        with pytest.raises(ContractViolationError, match=f"at party {p} names none"):
            LocalFactors(table.dims, table.factors, moved)


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
    def test_generate_matches_the_firing_rule_on_every_input(self, preset):
        circuit = preset_circuit(preset)
        basis = generate_basis(circuit)
        inputs = list(itertools.product(*(range(d) for d in circuit.dims)))
        assert len(basis) == len(inputs)
        for state, cb_input in zip(basis.states, inputs):
            expected = fired_factors(circuit, cb_input)
            assert state.factors == expected
        assert_same_set(from_states(ProductBasis, basis.states, circuit.dims), basis)

    @settings(max_examples=150, deadline=None)
    @given(control_dft_circuits())
    def test_random_circuits(self, circuit):
        inputs = list(itertools.product(*(range(d) for d in circuit.dims)))
        if not validate_exclusivity(circuit).passed:
            with pytest.raises(ContractViolationError):
                generate_basis(circuit)
            return
        basis = generate_basis(circuit)
        assert [s.factors for s in basis.states] == [fired_factors(circuit, x) for x in inputs]


# the presets that the benchmark's upb-decide workload extracts from
EXTRACT_PRESETS = ["shift", "canonical:n=4,d=3", "canonical:n=4,d=3,4,3,3",
                   "canonical:n=5,d=4", "canonical:n=6,d=5"]


def assert_interned(upb):
    """An extraction is the set that ``from_states(Upb, ...)`` makes of its
    members, with the same stopper."""
    interned = from_states(Upb, upb.states, upb.dims, stopper_index=upb.stopper_index)
    assert_same_set(upb, interned)
    assert upb.stopper_index == interned.stopper_index == len(upb) - 1


class TestExtractionTable:
    @pytest.mark.parametrize("preset", EXTRACT_PRESETS)
    @pytest.mark.parametrize("k", [None, 0])
    def test_extraction_presets(self, preset, k):
        circuit = preset_circuit(preset)
        excluded = None if k is None else {p: k for p in range(len(circuit.dims))}
        assert_interned(extract_upb(circuit, excluded))

    @pytest.mark.parametrize("choice", list(itertools.product(range(3), repeat=4)))
    def test_every_excluded_choice_on_four_qutrits(self, choice):
        assert_interned(extract_upb(preset_circuit("canonical:n=4,d=3"), dict(enumerate(choice))))
