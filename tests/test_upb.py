import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from nlwe.ensembles import (
    extended_circuit_fig4,
    four_qutrit_circuit,
    preset_circuit,
    shift_circuit,
)
from nlwe.errors import ContractViolationError, PreconditionError
from nlwe.linalg import dft_matrix, gram
from nlwe.states import CB, DFT, Dense, ProductState
from nlwe.upb import (
    Upb,
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
    min_total_overlap,
    residual_search,
)


def shift_upb():
    return extract_upb(shift_circuit(), {0: 0, 1: 0, 2: 0})


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
        u = shift_upb()
        res = extendibility_search(u.states, u.dims)
        assert (res.nodes_visited, res.assignments_covered) == (48, 81)

    def test_shift_times_qutrit_basis_counts(self):
        # SHIFT (x) {|0>,|1>,|2>}, members x-major: unextendible, and the
        # search exhausts a tree of 20 040 nodes
        u = shift_upb()
        states = [
            ProductState(s.factors + (CB(k),), u.dims + (3,))
            for s in u.states
            for k in range(3)
        ]
        res = extendibility_search(states, u.dims + (3,))
        assert not res.extendible
        assert res.nodes_visited == 20_040
        assert res.assignments_covered == res.assignment_bound == 4**12

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
        witness, covered, nodes = residual_search(states, dims)
        assert res.witness_assignment == witness
        assert (res.assignments_covered, res.nodes_visited) == (covered, nodes)
        if res.extendible:
            w = res.witness_state.dense()
            for s in states:
                assert abs(np.vdot(s.dense(), w)) <= 1e-9


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
