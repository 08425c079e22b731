import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwe.ensembles import (
    extended_circuit_fig4,
    four_qutrit_circuit,
    preset_circuit,
    shift_circuit,
)
from nlwe import linalg
from nlwe.errors import ContractViolationError, PreconditionError
from nlwe.linalg import dft_matrix, gram
from nlwe.states import CB, DFT, Dense, LocalFactors, ProductState
from nlwe.upb import (
    Upb,
    _state_bytes,
    extendibility_search,
    extract_upb,
    is_unextendible,
    minimal_size,
)

from helpers import (
    brute_force_extendible,
    factor_sets,
    ket,
    kron_chain,
    member_search,
    min_total_overlap,
    residual_search,
)


def shift_upb():
    return extract_upb(shift_circuit(), {0: 0, 1: 0, 2: 0})


def product_set(left, right):
    """Members s (x) t, s-major, of two product sets given as (states, dims)."""
    (a, da), (b, db) = left, right
    return [ProductState(s.factors + t.factors, da + db) for s in a for t in b], da + db


def shift_times_qutrit_basis():
    u = shift_upb()
    qutrit = [ProductState((CB(k),), (3,)) for k in range(3)]
    return product_set((u.states, u.dims), (qutrit, (3,)))


def shift_times_shift():
    u = shift_upb()
    return product_set((u.states, u.dims), (u.states, u.dims))


def reference_counts(states, dims):
    """(witness, covered, nodes) of the reference member search."""
    return member_search(LocalFactors.from_states(states, dims), dims)


class TestMinimalSize:
    @pytest.mark.parametrize(
        "dims,expected", [((2, 2, 2), 4), ((3, 3, 3, 3), 9), ((2, 2), 3)]
    )
    def test_formula(self, dims, expected):
        assert minimal_size(dims) == expected


class TestExtraction:
    def test_shift_set_matches_known_list(self):
        u = shift_upb()
        assert len(u) == 4
        keys = {s.symbolic_key() for s in u.states}
        assert keys == {
            (("CB", 0), ("CB", 1), ("DFT", 1)),
            (("DFT", 1), ("CB", 0), ("CB", 1)),
            (("CB", 1), ("DFT", 1), ("CB", 0)),
            (("DFT", 0), ("DFT", 0), ("DFT", 0)),
        }
        assert u.states[u.stopper_index].factors == (DFT(0), DFT(0), DFT(0))

    def test_four_qutrit_default_excluded_structure(self):
        u = extract_upb(four_qutrit_circuit())
        assert len(u) == 9
        expected_families = [
            (CB(0), CB(1), CB(2), DFT(0)),
            (CB(0), CB(1), CB(2), DFT(1)),
            (CB(1), CB(2), DFT(0), CB(0)),
            (CB(1), CB(2), DFT(1), CB(0)),
            (CB(2), DFT(0), CB(0), CB(1)),
            (CB(2), DFT(1), CB(0), CB(1)),
            (DFT(0), CB(0), CB(1), CB(2)),
            (DFT(1), CB(0), CB(1), CB(2)),
            (DFT(2), DFT(2), DFT(2), DFT(2)),
        ]
        assert [s.factors for s in u.states] == expected_families
        assert u.stopper_index == 8

    def test_pairwise_orthogonality_dense(self):
        for u in (shift_upb(), extract_upb(four_qutrit_circuit())):
            g = gram([s.dense() for s in u.states])
            off = np.max(np.abs(g - np.diag(np.diag(g))))
            assert off <= 1e-10

    def test_stopper_orthogonal_via_target_party_only(self):
        from nlwe.states import factor_dense

        u = shift_upb()
        stopper = u.states[u.stopper_index]
        for s in u.states[:-1]:
            target = s.dft_parties()[0]
            per_party = [
                abs(
                    np.vdot(
                        factor_dense(stopper.factors[p], 2),
                        factor_dense(s.factors[p], 2),
                    )
                )
                for p in range(3)
            ]
            assert per_party[target] <= 1e-14
            for p in range(3):
                if p != target:
                    assert per_party[p] > 0.1

    def test_non_canonical_circuit_rejected(self):
        with pytest.raises(ContractViolationError):
            extract_upb(preset_circuit("oneway"))
        with pytest.raises(ContractViolationError):
            extract_upb(extended_circuit_fig4())

    def test_bad_excluded_index(self):
        with pytest.raises(ContractViolationError):
            extract_upb(shift_circuit(), {0: 5})


class TestUpbContainer:
    def test_rejects_non_orthogonal(self):
        s = ProductState((CB(0), CB(0), CB(0)), (2, 2, 2))
        t = ProductState((CB(0), CB(0), DFT(0)), (2, 2, 2))
        u1 = ProductState((CB(1), CB(1), CB(0)), (2, 2, 2))
        u2 = ProductState((CB(1), CB(0), CB(1)), (2, 2, 2))
        with pytest.raises(ContractViolationError):
            Upb.from_states((s, t, u1, u2), (2, 2, 2), stopper_index=0)

    def test_rejects_undersized(self):
        states = tuple(
            ProductState((CB(a), CB(b), CB(0)), (2, 2, 2))
            for a, b in [(0, 0), (0, 1), (1, 0)]
        )
        with pytest.raises(ContractViolationError):
            Upb.from_states(states, (2, 2, 2), stopper_index=0)

    def test_rejects_complete_basis(self):
        states = tuple(
            ProductState((CB(a), CB(b)), (2, 2))
            for a, b in itertools.product(range(2), repeat=2)
        )
        with pytest.raises(ContractViolationError):
            Upb.from_states(states, (2, 2), stopper_index=0)


class TestUnextendibility:
    def test_shift_upb_unextendible(self):
        report = is_unextendible(shift_upb())
        assert report.passed
        res = report.extras["result"]
        assert res.assignments_covered == 81
        assert res.assignment_bound == 81
        assert "pre-pruning bound" in report.checks[0].detail

    def test_shift_brute_force_agreement(self):
        u = shift_upb()
        hits, _ = brute_force_extendible(u.states, u.dims)
        assert hits == 0

    @pytest.mark.parametrize("choice", list(itertools.product(range(2), repeat=3)))
    def test_all_shift_excluded_choices_unextendible(self, choice):
        u = extract_upb(shift_circuit(), dict(enumerate(choice)))
        assert is_unextendible(u).passed

    def test_stopper_removed_is_extendible(self):
        u = shift_upb()
        res = extendibility_search(u.states[:3], u.dims)
        assert res.extendible
        w = res.witness_state.dense()
        for s in u.states[:3]:
            assert abs(np.vdot(s.dense(), w)) <= 1e-9
        # the removed stopper itself qualifies as an orthogonal product state
        stopper = u.states[3].dense()
        for s in u.states[:3]:
            assert abs(np.vdot(s.dense(), stopper)) <= 1e-12

    def test_every_leave_one_out_subset_extendible(self):
        u = shift_upb()
        for drop in range(4):
            rest = [s for i, s in enumerate(u.states) if i != drop]
            res = extendibility_search(rest, u.dims)
            assert res.extendible
            hits, _ = brute_force_extendible(rest, u.dims)
            assert hits > 0
            w = res.witness_state.dense()
            for s in rest:
                assert abs(np.vdot(s.dense(), w)) <= 1e-9

    def test_member_order_invariance(self):
        u = shift_upb()
        for perm in ((3, 2, 1, 0), (1, 3, 0, 2)):
            reordered = [u.states[i] for i in perm]
            assert not extendibility_search(reordered, u.dims).extendible

    def test_party_relabel_invariance(self):
        u = shift_upb()
        perm = (2, 0, 1)
        relabeled = [
            ProductState(tuple(s.factors[p] for p in perm), tuple(u.dims[p] for p in perm))
            for s in u.states
        ]
        assert not extendibility_search(relabeled, tuple(u.dims[p] for p in perm)).extendible

    def test_shift_search_counts(self):
        # no subtree of SHIFT's search is met twice: both searches walk 48 nodes
        u = shift_upb()
        res = extendibility_search(u.states, u.dims)
        assert (res.nodes_visited, res.assignments_covered) == (48, 81)
        assert reference_counts(u.states, u.dims) == (None, 81, 48)

    def test_shift_times_qutrit_basis_counts(self):
        # SHIFT (x) {|0>,|1>,|2>}, members x-major: unextendible; the
        # reference walks a tree of 20 040 nodes, the search skips the
        # subtrees it has seen fail and walks 1 992
        states, dims = shift_times_qutrit_basis()
        res = extendibility_search(states, dims)
        assert not res.extendible
        assert res.nodes_visited == 1_992
        assert res.assignments_covered == res.assignment_bound == 4**12
        assert reference_counts(states, dims) == (None, 4**12, 20_040)

    def test_shift_times_shift_unextendible(self):
        # 16 members on six qubits: the reference walks 2 596 074 nodes
        states, dims = shift_times_shift()
        res = extendibility_search(states, dims)
        assert not res.extendible
        assert res.nodes_visited == 60_660
        assert res.assignments_covered == res.assignment_bound == 6**16

    @pytest.mark.parametrize("drop", range(16))
    def test_shift_times_shift_leave_one_out_extendible(self, drop):
        states, dims = shift_times_shift()
        rest = states[:drop] + states[drop + 1:]
        res = extendibility_search(rest, dims)
        assert res.extendible
        assert res.assignments_covered < res.assignment_bound
        w = res.witness_state.dense()
        assert abs(np.vdot(w, w) - 1) <= 1e-9
        for s in rest:
            assert abs(np.vdot(s.dense(), w)) <= 1e-9

    def test_minimization_oracle_shift_bounded_away_from_zero(self):
        u = shift_upb()
        assert min_total_overlap(u.states, u.dims, restarts=12, seed=3) > 1e-2


class TestQutritExtractionIsExtendible:
    """The four-qutrit extraction admits an orthogonal product state; the
    search, a brute-force assignment scan, and an explicit analytic witness
    all agree.  See the README section "A note on the four-qutrit
    extraction" for the witnesses."""

    def test_search_reports_extendible_with_witness(self):
        u = extract_upb(four_qutrit_circuit())
        res = extendibility_search(u.states, u.dims)
        assert res.extendible
        assert res.witness_assignment == (0, 0, 0, 0, 1, 1, 2, 2, 2)
        w = res.witness_state.dense()
        for s in u.states:
            assert abs(np.vdot(s.dense(), w)) <= 1e-9

    def test_analytic_witness(self):
        u = extract_upb(four_qutrit_circuit())
        f = dft_matrix(3)
        omega = np.exp(2j * np.pi / 3)
        c = np.array([-(omega**2), 0.0, 1.0]) / np.sqrt(2)
        assert abs(np.vdot(ket(1, 3), c)) < 1e-15
        assert abs(np.vdot(f[:, 2], c)) < 1e-15
        witness = kron_chain(ket(2, 3), f[:, 2], c, ket(0, 3))
        for s in u.states:
            assert abs(np.vdot(s.dense(), witness)) <= 1e-14

    def test_minimization_oracle_reaches_zero(self):
        u = extract_upb(four_qutrit_circuit())
        assert min_total_overlap(u.states, u.dims, restarts=8, seed=5) < 1e-10

    def test_extendible_for_every_excluded_choice_with_qutrits(self):
        u = extract_upb(canonical_3x3 := preset_circuit("canonical:n=3,d=3"))
        assert extendibility_search(u.states, u.dims).extendible
        u2 = extract_upb(canonical_3x3, {0: 0, 1: 1, 2: 2})
        assert extendibility_search(u2.states, u2.dims).extendible


class TestSearchProperties:
    @settings(max_examples=150, deadline=None)
    @given(factor_sets())
    def test_agrees_with_brute_force_and_residual_search(self, case):
        states, dims = case
        res = extendibility_search(states, dims)
        hits, first = brute_force_extendible(states, dims)
        assert res.extendible == (hits > 0)
        assert res.witness_assignment == first
        witness, covered, nodes = reference_counts(states, dims)
        assert residual_search(states, dims) == (witness, covered, nodes)
        assert res.witness_assignment == witness
        assert res.assignments_covered == covered
        assert res.nodes_visited <= nodes
        if res.extendible:
            w = res.witness_state.dense()
            for s in states:
                assert abs(np.vdot(s.dense(), w)) <= 1e-9


class TestFailureSet:
    """The failed states are held to ``linalg.DENSE_BYTES_BUDGET``; a full
    set only stops recording, so a starved search decides the same."""

    @settings(max_examples=100, deadline=None)
    @given(factor_sets(), st.integers(0, 1))
    def test_starved_set_decides_the_same(self, case, room):
        states, dims = case
        table = LocalFactors.from_states(states, dims)
        table.vectors  # built under the real budget, before it is starved
        unbounded = extendibility_search(table, dims)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "DENSE_BYTES_BUDGET", room * _state_bytes(table))
            starved = extendibility_search(table, dims)
        witness, covered, nodes = member_search(table, dims)
        hits, first = brute_force_extendible(states, dims)
        for res in (starved, unbounded):
            assert res.extendible == (hits > 0)
            assert res.witness_assignment == witness == first
            assert res.assignments_covered == covered
        assert unbounded.nodes_visited <= starved.nodes_visited <= nodes
        if room == 0:
            assert starved.nodes_visited == nodes

    @staticmethod
    def traced_peak(table, dims):
        tracemalloc.start()
        try:
            res = extendibility_search(table, dims)
            return res, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_set_memory_stays_within_the_budget(self, monkeypatch):
        # on SHIFT (x) {|0>,|1>,|2>} the full set takes about 50 KiB and the
        # rest of the search (rank memo, stacks) about 4 KiB, so the peak
        # above a run with no set is the set's own size
        states, dims = shift_times_qutrit_basis()
        table = LocalFactors.from_states(states, dims)
        extendibility_search(table, dims)  # first use of the table and numpy paths
        full, full_peak = self.traced_peak(table, dims)
        budget = 2**14
        monkeypatch.setattr(linalg, "DENSE_BYTES_BUDGET", 0)
        plain, floor = self.traced_peak(table, dims)
        monkeypatch.setattr(linalg, "DENSE_BYTES_BUDGET", budget)
        capped, peak = self.traced_peak(table, dims)
        assert peak - floor <= budget < full_peak - floor
        assert full.nodes_visited < capped.nodes_visited < plain.nodes_visited == 20_040
        for res in (plain, capped):
            assert res.assignments_covered == full.assignments_covered == 4**12


class TestWitnessCheck:
    def test_empty_complement_is_contract_violation(self, monkeypatch):
        # a search that thinks every party has room reaches the all-party-0
        # assignment, whose four factors span party 0 completely
        monkeypatch.setattr("nlwe.upb.span_dimension", lambda vecs, tol: min(len(vecs), 1))
        u = shift_upb()
        with pytest.raises(ContractViolationError, match="no orthogonal direction"):
            extendibility_search(u.states, u.dims)

    def test_tolerance_must_stay_below_the_sweep_residual(self):
        # party 0's two factors span the plane orthogonal to (1,1,1)/sqrt(3),
        # so every computational basis vector leaves residual 1/sqrt(3) there
        a = Dense(np.array([1.0, -1.0, 0.0]) / np.sqrt(2))
        b = Dense(np.array([1.0, 1.0, -2.0]) / np.sqrt(6))
        states = [ProductState((a, CB(0)), (3, 2)), ProductState((b, CB(1)), (3, 2))]
        with pytest.raises(PreconditionError, match=r"1/sqrt\(3\)"):
            extendibility_search(states, (3, 2), tol=0.6)
        res = extendibility_search(states, (3, 2), tol=0.5)
        assert res.witness_assignment == (0, 0)
        w = res.witness_state.dense().reshape(3, 2)
        np.testing.assert_allclose(np.abs(w[:, 0]), np.full(3, 1 / np.sqrt(3)), atol=1e-12)

    def test_overlapping_witness_is_contract_violation(self, monkeypatch):
        # the members |0,1,->, |1,-,0> and |-,0,1> each overlap |---> by 1/2
        monkeypatch.setattr(
            "nlwe.upb.orthogonal_complement_basis", lambda vecs, d, tol: [dft_matrix(d)[:, 1]]
        )
        u = shift_upb()
        with pytest.raises(ContractViolationError, match="overlaps member"):
            extendibility_search(u.states[:3], u.dims)
