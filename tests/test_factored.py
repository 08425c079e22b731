"""The factored verify checks against their dense references.

Commutation residuals come from d x d local blocks, norms and the Gram
matrix from per-party overlap tables; the references form the full D x D
gate unitaries and the rendered D-dimensional state vectors.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwe.circuit import (
    COMMUTATION_TOL,
    Circuit,
    ControlDftGate,
    check_commutation,
    gate_unitary,
    generate_basis,
    validate_exclusivity,
)
from nlwe.config import tolerance
from nlwe.errors import ContractViolationError, TooLargeError
from nlwe.ensembles import local_factor_census, preset_circuit
from nlwe.linalg import dft_matrix
from nlwe.states import CB, DFT, Dense, LocalFactors, ProductBasis, ProductState, factor_dense

from helpers import (
    control_dft_circuits,
    dft_col,
    factor_sets,
    from_states,
    ket,
    kron_chain,
    product_tables,
)

PRODUCT_FORM_TOL = 1e-10  # the threshold of verify's product-form row


@st.composite
def sets_with_repeats(draw):
    """``factor_sets`` with up to two members repeated at the end."""
    states, dims = draw(factor_sets())
    repeats = draw(st.lists(st.integers(0, len(states) - 1), max_size=2))
    return states + [states[i] for i in repeats], dims


def dense_gram_extremes(basis):
    g = basis.gram()
    m = len(basis)
    diag = float(np.max(np.abs(np.diag(g) - 1.0)))
    off = float(np.max(np.abs(g - np.diag(np.diag(g))), initial=0.0))
    return diag, off, float(np.max(np.abs(g - np.eye(m))))


# Largest |overlaps[0] - dense| seen for d = 1..12 over 600 random lists of
# every CB and DFT ket plus three random dense kets: 3.0e-15, at the zeroed
# pairs of distinct DFT kets as elsewhere.
OVERLAP_TABLE_TOL = 1e-14


@st.composite
def one_party_factors(draw):
    """(d, distinct factors of one party in random order): computational
    and dual kets without repeats, plus up to three random dense kets with
    no zero entry, so no dense overlap is an exact 0."""
    d = draw(st.integers(1, 12))
    symbolic = [CB(i) for i in range(d)] + [DFT(i) for i in range(d)]
    chosen = draw(st.lists(st.sampled_from(symbolic), unique=True, max_size=2 * d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = []
    for _ in range(draw(st.integers(0 if chosen else 1, 3))):
        v = rng.uniform(0.5, 1.5, d) * np.exp(2j * np.pi * rng.uniform(size=d))
        dense.append(Dense(v / np.linalg.norm(v)))
    return d, draw(st.permutations(chosen + dense))


class TestOverlapTableZeros:
    @settings(max_examples=200, deadline=None)
    @given(one_party_factors())
    def test_table_is_the_dense_overlap_with_exact_zeros(self, case):
        d, factors = case
        table = LocalFactors((d,), [factors], np.zeros((1, 1), dtype=np.intp)).overlap_table(0)
        rendered = np.array([
            ket(f.index, d) if isinstance(f, CB) else dft_col(f.index, d) if isinstance(f, DFT)
            else f.entries
            for f in factors
        ])
        assert np.max(np.abs(table - rendered.conj() @ rendered.T)) <= OVERLAP_TABLE_TOL
        one_basis = np.array([[
            type(a) is type(b) and not isinstance(a, Dense) and a.index != b.index
            for b in factors] for a in factors])
        assert np.array_equal(table == 0.0, one_basis)


class TestCommutationAgainstDense:
    @settings(max_examples=150, deadline=None)
    @given(control_dft_circuits())
    def test_residuals_match_gate_unitaries(self, circuit):
        report = check_commutation(circuit)
        unitaries = [gate_unitary(g, circuit.dims) for g in circuit.gates]
        pairs = list(itertools.combinations(unitaries, 2))
        assert len(report.checks) == len(pairs)
        for check, (u, v) in zip(report.checks, pairs):
            dense = float(np.max(np.abs(u @ v - v @ u)))
            assert abs(check.residual - dense) <= 1e-12
            assert check.passed == (dense <= COMMUTATION_TOL)

    def test_commutator_block_beyond_the_dense_budget(self):
        # each party is a control of one gate and the target of the other:
        # the block spans both parties, 10^4 x 10^4, though each factor is 100 x 100
        circuit = Circuit((100, 100), [ControlDftGate({1: 0}, target=0),
                                       ControlDftGate({0: 0}, target=1)])
        with pytest.raises(TooLargeError):
            check_commutation(circuit)


class TestGramAgainstDense:
    @settings(max_examples=150, deadline=None)
    @given(sets_with_repeats())
    def test_extremes_and_norms_match_the_dense_gram(self, case):
        states, dims = case
        basis = from_states(ProductBasis, states, dims)
        diag, off, deviation = dense_gram_extremes(basis)
        factored = from_states(LocalFactors, states, dims).gram_extremes()
        assert abs(factored[0] - diag) <= 1e-12
        assert abs(factored[1] - off) <= 1e-12
        assert abs(basis.gram_deviation() - deviation) <= 1e-12
        assert (basis.gram_deviation() <= tolerance()) == (deviation <= tolerance())
        dense_norm = max(abs(float(np.linalg.norm(s.dense())) - 1.0) for s in states)
        assert abs(basis.norm_deviation() - dense_norm) <= 1e-12
        assert (basis.norm_deviation() <= PRODUCT_FORM_TOL) == (dense_norm <= PRODUCT_FORM_TOL)

    def test_repeated_member_overlaps_by_one(self):
        s = ProductState((DFT(1), CB(0)), (3, 2))
        t = ProductState((DFT(2), CB(0)), (3, 2))
        diag, off = from_states(LocalFactors, [s, t, s], (3, 2)).gram_extremes()
        assert diag <= 1e-15
        assert abs(off - 1.0) <= 1e-15

    def test_distinct_dual_kets_are_exactly_orthogonal(self):
        table = from_states(
            LocalFactors,
            [ProductState((DFT(k),), (3,)) for k in range(3)] + [ProductState((CB(0),), (3,))],
            (3,),
        ).overlap_table(0)
        off_diagonal = ~np.eye(4, dtype=bool)
        assert np.all(table[:3, :3][off_diagonal[:3, :3]] == 0.0)
        assert np.allclose(np.abs(table[3, :3]), 1 / np.sqrt(3))

    def test_empty_set(self):
        assert from_states(LocalFactors, [], (2, 2)).gram_extremes() == (0.0, 0.0)

    @pytest.mark.parametrize("m, off", [(1, 0.0), (2, 1.0), (3, 1.0)])
    def test_no_parties(self, m, off):
        # every member is the empty product 1, as ``dense`` renders it
        table = from_states(LocalFactors, [ProductState((), ())] * m, ())
        assert table.gram_extremes() == (0.0, off)
        assert np.array_equal(table.dense(), np.ones((m, 1)))


@st.composite
def orthogonal_symbolic_rows(draw):
    """(rows, dims): an orthogonal set of CB and DFT product states on 1-4
    parties of dimension 2-4.  At each party a subtree takes one kind and
    distinct indices of it, and every index heads its own subtree on the
    parties after it, so members of one subtree meet the kets of another
    kind at later parties (overlap 1/sqrt(d) there) and stay orthogonal
    through the party where their subtrees split."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))

    def rows_from(p):
        if p == len(dims):
            return [()]
        kind = draw(st.sampled_from((CB, DFT)))
        indices = draw(st.lists(st.integers(0, dims[p] - 1), min_size=1, max_size=2, unique=True))
        return [(kind(i),) + rest for i in indices for rest in rows_from(p + 1)]

    return rows_from(0), dims


class TestKindsRule:
    """``gram_extremes`` decides symbolic overlaps from kind and index, and
    renders only the parties that hold a ``Dense`` factor."""

    @settings(max_examples=150, deadline=None)
    @given(product_tables(max_members=12), st.data())
    def test_extremes_match_the_dense_gram(self, table, data):
        repeats = data.draw(st.lists(st.integers(0, len(table) - 1), max_size=3))
        basis = ProductBasis(table.dims, table.factors, np.vstack([table.ids, table.ids[repeats]]))
        diag, off, _ = dense_gram_extremes(basis)
        extremes = basis.gram_extremes()
        assert abs(extremes[0] - diag) <= 1e-12
        assert abs(extremes[1] - off) <= 1e-12
        assert basis.max_overlap() == extremes[1]

    @settings(max_examples=150, deadline=None)
    @given(orthogonal_symbolic_rows())
    def test_orthogonal_symbolic_sets_have_an_exact_zero(self, case):
        rows, dims = case
        table = from_states(LocalFactors, [ProductState(r, dims) for r in rows], dims)
        assert table.max_overlap() == 0.0
        assert not vars(table).get("_rendered")  # nothing rendered for it
        basis = ProductBasis(table.dims, table.factors, table.ids)
        diag, off, _ = dense_gram_extremes(basis)
        assert off <= 1e-15
        assert basis.gram_extremes()[1] == 0.0
        assert abs(basis.gram_extremes()[0] - diag) <= 1e-12

    def test_a_party_with_one_ket_under_two_ids_is_refused(self):
        # CB(0) under ids 0 and 2 would be one ket, whose two members the
        # kinds rule would call orthogonal: the table refuses the party
        with pytest.raises(ContractViolationError, match="one factor under two ids"):
            LocalFactors((2, 2), [[CB(0), CB(1), CB(0)], [DFT(0), DFT(1)]],
                         np.array([[0, 0], [1, 0], [2, 0]], dtype=np.intp))


class TestCanonicalBases:
    @pytest.mark.parametrize("preset", ["canonical:n=5,d=4", "canonical:n=6,d=5"])
    def test_every_check_passes_and_commutators_vanish_exactly(self, preset):
        circuit = preset_circuit(preset)
        basis = generate_basis(circuit)
        assert len(basis) == math.prod(circuit.dims)
        assert basis.gram_deviation() <= 1e-15
        assert basis.norm_deviation() <= 1e-15
        assert validate_exclusivity(circuit).passed
        commutation = check_commutation(circuit)
        n = len(circuit.gates)
        assert len(commutation.checks) == n * (n - 1) // 2
        assert all(c.passed and c.residual == 0.0 for c in commutation.checks)
        for p, d in enumerate(circuit.dims):
            assert len(local_factor_census(basis, p)) <= 2 * d

    def test_five_party_gram_matches_the_dense_reference(self):
        basis = generate_basis(preset_circuit("canonical:n=5,d=4"))
        assert abs(basis.gram_deviation() - dense_gram_extremes(basis)[2]) <= 1e-15


class TestDenseRendering:
    """``LocalFactors.dense`` against the Kronecker product of each member's
    rendered factors."""

    @settings(max_examples=80, deadline=None)
    @given(product_tables(), st.data())
    def test_rows_are_the_kron_of_the_member_factors(self, table, data):
        n = len(table.dims)
        parties = data.draw(
            st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        rendered = table.dense(parties)
        picked = range(n) if parties is None else sorted(parties)
        assert rendered.shape == (len(table), int(np.prod([table.dims[p] for p in picked])))
        for row, state in zip(rendered, table.states):
            factors = [factor_dense(state.factors[p], table.dims[p]) for p in picked]
            assert np.array_equal(row, kron_chain(*factors))

    def test_oversized_set_is_refused_before_rendering(self):
        # one member of dimension 2100^2: a 67 MiB row, above the 64 MiB budget
        table = from_states(LocalFactors, [ProductState((CB(0), CB(0)), (2100, 2100))], (2100, 2100))
        with pytest.raises(TooLargeError, match="the rendered members"):
            table.dense()
        assert not vars(table).get("_rendered")
        assert table.dense([1]).shape == (1, 2100)

    @pytest.mark.parametrize("d", range(1, 41))
    def test_dft_factor_is_the_dft_matrix_column(self, d):
        columns = dft_matrix(d)
        for k in range(d):
            assert factor_dense(DFT(k), d).tobytes() == columns[:, k].copy().tobytes()
