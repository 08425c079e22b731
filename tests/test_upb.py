import itertools
import json
import math
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
from nlwe import linalg, serialize, states
from nlwe.boundent import be_state, state_rank
from nlwe.circuit import Circuit, ControlDftGate
from nlwe.config import MAX_TOLERANCE
from nlwe.errors import ContractViolationError, PreconditionError, TooLargeError
from nlwe.linalg import dft_matrix, gram, span_dimension
from nlwe.states import CB, DFT, Dense, LocalFactors, ProductState, factor_dense
from nlwe.upb import (
    Upb,
    _certified,
    _mask_rank,
    _state_bytes,
    extendibility_search,
    extract_upb,
    is_unextendible,
    minimal_size,
)

from helpers import (
    brute_force_extendible,
    dft_parties,
    factor_sets,
    from_states,
    ket,
    kron_chain,
    member_search,
    min_total_overlap,
    product_set,
    product_tables,
    residual_search,
    shift_cubed,
    shift_times_cb,
    shift_times_shift,
    shift_upb,
    symbolic_key,
    tiles,
    tiles_cubed,
    without,
)


def assert_witness(res, table):
    """The witness is a unit product state orthogonal to every member, each
    rendered whole (``LocalFactors.dense``)."""
    (w,) = res.witness_state.dense()
    assert abs(np.vdot(w, w) - 1) <= 1e-9
    for member in table.dense():
        assert abs(np.vdot(member, w)) <= 1e-9


def mixed_witness_set():
    """Tiles without its first member: the witness assignment (0, 0, 1, 1)
    gives party 0 a dense factor and |2>, and party 1 |0> and F|0>, so both
    witness factors come from the SVD complement."""
    return without(tiles(), 0)


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
        keys = {symbolic_key(s) for s in u.states}
        assert keys == {
            (("CB", 0), ("CB", 1), ("DFT", 1)),
            (("DFT", 1), ("CB", 0), ("CB", 1)),
            (("CB", 1), ("DFT", 1), ("CB", 0)),
            (("DFT", 0), ("DFT", 0), ("DFT", 0)),
        }
        assert u.states[u.stopper_index].factors == (DFT(0), DFT(0), DFT(0))

    def test_local_factor_table_beyond_the_dense_budget_is_too_large(self):
        # a hand-built canonical circuit on three parties of dimension 10^7
        n, d = 3, 10**7
        gates = [ControlDftGate({s: (s + k) % n for s in range(n) if s != n - 1 - k},
                                target=n - 1 - k) for k in range(n)]
        with pytest.raises(TooLargeError, match="the local factor table"):
            extract_upb(Circuit((d,) * n, gates))

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
            target = dft_parties(s)[0]
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
            from_states(Upb, (s, t, u1, u2), (2, 2, 2), stopper_index=0)

    def test_rejects_undersized(self):
        states = tuple(
            ProductState((CB(a), CB(b), CB(0)), (2, 2, 2))
            for a, b in [(0, 0), (0, 1), (1, 0)]
        )
        with pytest.raises(ContractViolationError):
            from_states(Upb, states, (2, 2, 2), stopper_index=0)

    def test_rejects_complete_basis(self):
        states = tuple(
            ProductState((CB(a), CB(b)), (2, 2))
            for a, b in itertools.product(range(2), repeat=2)
        )
        with pytest.raises(ContractViolationError):
            from_states(Upb, states, (2, 2), stopper_index=0)


class TestUnextendibility:
    def test_shift_upb_unextendible(self):
        report = is_unextendible(shift_upb())
        assert report.passed
        res = extendibility_search(shift_upb())
        assert res.assignments_covered == 3**4
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
        rest = from_states(LocalFactors, u.states[:3], u.dims)
        res = extendibility_search(rest)
        assert res.extendible
        assert_witness(res, rest)
        # the removed stopper itself qualifies as an orthogonal product state
        stopper = u.states[3].dense()
        for s in u.states[:3]:
            assert abs(np.vdot(s.dense(), stopper)) <= 1e-12

    def test_first_rows_of_the_extraction_table(self):
        # the first three rows of the extraction's own table, whose factor
        # lists still hold the stopper's DFT(0): the search reads the set's
        # three qubit parties and ignores the unused id
        u = shift_upb()
        rows = LocalFactors(u.dims, u.factors, u.ids[:3])
        res = extendibility_search(rows)
        assert res.extendible
        assert res.assignments_covered < 3**3
        assert len(res.witness_state.factors) == 3
        assert_witness(res, rows)
        interned = extendibility_search(from_states(LocalFactors, u.states[:3], u.dims))
        assert res.witness_assignment == interned.witness_assignment

    def test_every_leave_one_out_subset_extendible(self):
        u = shift_upb()
        for drop in range(4):
            rest = without(u, drop)
            res = extendibility_search(rest)
            assert res.extendible
            hits, _ = brute_force_extendible(rest.states, u.dims)
            assert hits > 0
            assert_witness(res, rest)

    def test_member_order_invariance(self):
        u = shift_upb()
        for perm in ((3, 2, 1, 0), (1, 3, 0, 2)):
            reordered = from_states(LocalFactors, [u.states[i] for i in perm], u.dims)
            assert not extendibility_search(reordered).extendible

    def test_party_relabel_invariance(self):
        u = shift_upb()
        perm = (2, 0, 1)
        dims = tuple(u.dims[p] for p in perm)
        relabeled = from_states(
            LocalFactors,
            [ProductState(tuple(s.factors[p] for p in perm), dims) for s in u.states],
            dims,
        )
        assert not extendibility_search(relabeled).extendible

    def test_shift_search_counts(self):
        # no subtree of SHIFT's search is met twice: both searches walk 48 nodes
        u = shift_upb()
        res = extendibility_search(u)
        assert (res.nodes_visited, res.assignments_covered) == (48, 81)
        assert member_search(u) == (None, 81, 48)

    def test_shift_times_qutrit_basis_counts(self):
        # SHIFT (x) {|0>,|1>,|2>}, members x-major: unextendible; the
        # reference walks a tree of 20 040 nodes, 4 000 with the dominance
        # rule alone; the search also skips the subtrees whose party masks
        # it has seen fail and walks 392 (828 without the dominance rule)
        table = shift_times_cb(3)
        res = extendibility_search(table)
        assert not res.extendible
        assert res.nodes_visited == 392
        assert res.assignments_covered == 4**12
        assert member_search(table) == (None, 4**12, 20_040)
        assert member_search(table, dominance=True) == (None, 4**12, 4_000)

    def test_shift_times_shift_unextendible(self):
        # 16 members on six qubits: the reference walks 2 596 074 nodes,
        # the search 2 621 (11 148 without the dominance rule)
        res = extendibility_search(shift_times_shift())
        assert not res.extendible
        assert res.nodes_visited == 2_621
        assert res.assignments_covered == 6**16

    @pytest.mark.parametrize("drop", range(16))
    def test_shift_times_shift_leave_one_out_extendible(self, drop):
        rest = without(shift_times_shift(), drop)
        res = extendibility_search(rest)
        assert res.extendible
        assert res.assignments_covered < 6**15
        assert_witness(res, rest)

    def test_shift_cubed_unextendible(self):
        # 64 members on nine qubits: skipping every arrival at party masks
        # that failed for any member, and every later party of a member
        # that failed where it grew no mask, the search walks 106 485 nodes
        # (1 173 456 without the dominance rule)
        res = extendibility_search(shift_cubed())
        assert not res.extendible
        assert res.nodes_visited == 106_485
        assert res.assignments_covered == 9**64

    @pytest.mark.parametrize("drop", [0, 32, 63])
    def test_shift_cubed_leave_one_out_extendible(self, drop):
        rest = without(shift_cubed(), drop)
        res = extendibility_search(rest)
        assert res.extendible
        assert res.assignments_covered < 9**63
        assert res.witness_state.dense().shape == (1, 512)
        assert_witness(res, rest)

    def test_shift_cubed_without_member_5_keeps_its_witness(self):
        # the plain search's lexicographically least witness and covered
        # count, as the search found them before the dominance rule; the
        # rule cuts the nodes from 1 159 776 to 116 714
        res = extendibility_search(without(shift_cubed(), 5))
        assert res.extendible
        assert res.witness_assignment == (3, 3, 3, 3, 6, 7, 8) + (4,) * 4 + (5,) * 4 + sum(
            ((p,) * 16 for p in range(3)), ())
        assert res.assignments_covered == (
            491335510520493654080110929638630929472350137958177107493998)
        assert res.nodes_visited == 116_714
        assert [f for (f,) in res.witness_state.factors] == [
            CB(0), CB(1), DFT(1), CB(1), CB(1), DFT(1), CB(1), CB(1), DFT(1)]

    def test_tiles_cubed_unextendible(self):
        # 125 members on six qutrits, two dense factors per party: the
        # search without the dominance rule did not end within 60 s
        res = extendibility_search(tiles_cubed())
        assert not res.extendible
        assert res.assignments_covered == 6**125
        assert res.nodes_visited == 122_646

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
        res = extendibility_search(u)
        assert res.extendible
        assert res.witness_assignment == (0, 0, 0, 0, 1, 1, 2, 2, 2)
        assert_witness(res, u)

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
        assert extendibility_search(u).extendible
        u2 = extract_upb(canonical_3x3, {0: 0, 1: 1, 2: 2})
        assert extendibility_search(u2).extendible


class TestSearchProperties:
    @settings(max_examples=150, deadline=None)
    @given(factor_sets())
    def test_agrees_with_brute_force_and_residual_search(self, case):
        states, dims = case
        table = from_states(LocalFactors, states, dims)
        res = extendibility_search(table)
        hits, first = brute_force_extendible(states, dims)
        assert res.extendible == (hits > 0)
        assert res.witness_assignment == first
        witness, covered, nodes = member_search(table)
        assert residual_search(states, dims) == (witness, covered, nodes)
        assert res.witness_assignment == witness
        assert res.assignments_covered == covered
        assert res.nodes_visited <= nodes
        if res.extendible:
            assert_witness(res, table)


class TestCertifiedRanks:
    """A mask of computational and dual-basis kets (the table's ``masks``)
    gets its rank by counting (``_mask_rank``) only where the count is
    proven, so the search decides as the SVD reference does."""

    @pytest.mark.parametrize("d", range(2, 8))
    def test_count_agrees_with_span_dimension_on_every_subset(self, d):
        kept = [CB(k) for k in range(d)] + [DFT(k) for k in range(d)]
        table = LocalFactors((d,), [kept], np.zeros((1, 1), dtype=np.intp))
        vectors = np.array([factor_dense(f, d) for f in kept])
        counted = table.masks[0]
        assert counted == ((1 << d) - 1, ((1 << d) - 1) << d)
        bound = min(1 / math.sqrt(d), MAX_TOLERANCE)
        tols = [1e-9, 0.1, 0.3, float(np.nextafter(bound, 0))]
        certified = dict.fromkeys(tols, 0)  # counted masks with both kinds
        for mask in range(1, 1 << 2 * d):
            a = (mask & counted[0]).bit_count()
            b = (mask & counted[1]).bit_count()
            rows = vectors[[k for k in range(2 * d) if mask >> k & 1]]
            for tol in tols:
                if a and b and not _certified(d, a, b, tol):
                    continue
                rank = min(d, a + b)
                assert span_dimension(rows, tol) == rank, (d, mask, tol)
                assert _mask_rank(mask, table, 0, tol, [None]) == rank
                certified[tol] += bool(a and b)
        assert all(certified.values())

    @settings(max_examples=100, deadline=None)
    @given(product_tables(max_members=12), st.data())
    def test_rows_normalised_once_give_the_same_singular_values(self, table, data):
        # the search normalises each party's rendered rows once and picks a
        # mask's rows from them; their singular values are bit for bit those
        # of the picked rows normalised on their own, as the witness's
        # complement takes them
        units = [None] * len(table.dims)
        for p in range(len(table.dims)):
            rendered = table.rendered(p)
            full = (1 << len(rendered)) - 1
            for mask in data.draw(st.lists(st.integers(1, full), min_size=1, max_size=8)):
                picked = [k for k in range(len(rendered)) if mask >> k & 1]
                rank = _mask_rank(mask, table, p, 1e-9, units)
                assert rank == span_dimension(rendered[picked], 1e-9)
                if units[p] is not None:
                    once = np.linalg.svd(units[p][picked], compute_uv=True)[1]
                    alone = np.linalg.svd(linalg.unit_rows(rendered[picked]), compute_uv=True)[1]
                    assert once.tobytes() == alone.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(product_tables(max_members=8), st.data())
    def test_search_agrees_with_the_svd_reference(self, table, data):
        bound = min(1 / math.sqrt(max(table.dims)), MAX_TOLERANCE)
        tol = data.draw(st.just(1e-9) | st.floats(1e-12, bound, exclude_max=True))
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("NLWE_TOLERANCE", repr(tol))
            res = extendibility_search(table)
        witness, covered, nodes = member_search(table, tol)
        assert res.extendible == (witness is not None)
        assert res.witness_assignment == witness
        assert res.assignments_covered == covered
        assert res.nodes_visited <= nodes

    @pytest.mark.parametrize("kept, message", [
        ([CB(0), CB(1), CB(0)], "one factor under two ids"),
        ([DFT(0), DFT(1), DFT(2)], "symbolic index 2 out of range"),
    ], ids=["CB(0) twice", "DFT(d)"])
    def test_a_party_with_equal_symbolic_kets_is_refused(self, kept, message):
        # ids 0 and 2 of party 0 would be one ket (DFT(2) is F|0> on a
        # qubit), so a count of party 0's ranks would be wrong: the table
        # refuses the party before any search
        with pytest.raises(ContractViolationError, match=message):
            LocalFactors((2, 2), [kept, [CB(0), CB(1)]],
                         np.array([[0, 0], [2, 1], [1, 1]], dtype=np.intp))


class TestWitnessProperties:
    @settings(max_examples=150, deadline=None)
    @given(product_tables(max_members=8))
    def test_every_extendible_verdict_has_a_checked_witness(self, table):
        res = extendibility_search(table)
        if res.extendible:
            assert_witness(res, table)


class TestSymbolicFactorsAreNotRendered:
    """The orthogonality gate, the search and the witness decide CB/DFT
    overlaps from kind and index: a symbolic factor is rendered only at a
    party that holds a ``Dense`` factor, or for a rank no count proves."""

    @pytest.fixture
    def rendered(self, monkeypatch):
        """The CB/DFT factors rendered, and for each party rendered whether
        it holds a ``Dense`` factor."""
        seen = {"symbolic": [], "dense_party": []}
        render, rendered_party = states.factor_dense, LocalFactors.rendered

        def counted_render(factor, dim):
            if isinstance(factor, (CB, DFT)):
                seen["symbolic"].append(factor)
            return render(factor, dim)

        def watched_party(table, p):
            seen["dense_party"].append(any(isinstance(f, Dense) for f in table.factors[p]))
            return rendered_party(table, p)

        monkeypatch.setattr("nlwe.states.factor_dense", counted_render)
        monkeypatch.setattr(LocalFactors, "rendered", watched_party)
        return seen

    @staticmethod
    def read_and_decide(table, path):
        upb = Upb(table.dims, table.factors, table.ids, stopper_index=len(table) - 1)
        path.write_text(json.dumps(serialize.upb_to_obj(upb)))
        return is_unextendible(serialize.read_upb(str(path)))

    @pytest.mark.parametrize("preset", ["shift", "canonical:n=6,d=5"])
    def test_extraction_gate_renders_nothing(self, preset, rendered):
        extract_upb(preset_circuit(preset))
        assert rendered == {"symbolic": [], "dense_party": []}

    def test_all_symbolic_product_is_decided_unrendered(self, rendered, tmp_path):
        # SHIFT (x) {F|0>, ..., F|3>}: every mask rank is counted or certified
        basis = from_states(LocalFactors, [ProductState((DFT(k),), (4,)) for k in range(4)], (4,))
        assert self.read_and_decide(product_set(shift_upb(), basis), tmp_path / "u.json").passed
        assert rendered == {"symbolic": [], "dense_party": []}

    def test_tiles_product_renders_its_dense_parties_only(self, rendered, tmp_path):
        basis = from_states(LocalFactors, [ProductState((CB(k),), (3,)) for k in range(3)], (3,))
        assert self.read_and_decide(product_set(tiles(), basis), tmp_path / "u.json").passed
        assert rendered["dense_party"] and all(rendered["dense_party"])

    def test_witness_renders_its_dense_parties_only(self, rendered):
        # Tiles without its second member: the witness is CB(1) at party 0
        # (given |0> and |2>), checked from the dense factors there
        res = extendibility_search(without(tiles(), 1))
        assert res.witness_state.factors[0] == [CB(1)]
        assert rendered["dense_party"] and all(rendered["dense_party"])


class TestFailureSet:
    """The failed states are held to ``linalg.DENSE_BYTES_BUDGET``; a full
    set only stops recording, so a starved search decides the same."""

    @settings(max_examples=100, deadline=None)
    @given(factor_sets(), st.integers(0, 1))
    def test_starved_set_decides_the_same(self, case, room):
        states, dims = case
        table = from_states(LocalFactors, states, dims)
        for p in range(len(table.dims)):
            table.rendered(p)  # built under the real budget, before it is starved
        unbounded = extendibility_search(table)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "DENSE_BYTES_BUDGET", room * _state_bytes(table))
            starved = extendibility_search(table)
        witness, covered, nodes = member_search(table)
        hits, first = brute_force_extendible(states, dims)
        for res in (starved, unbounded):
            assert res.extendible == (hits > 0)
            assert res.witness_assignment == witness == first
            assert res.assignments_covered == covered
        assert unbounded.nodes_visited <= starved.nodes_visited <= nodes
        if room == 0:
            # no failed state recorded: the reference with the dominance rule
            assert (witness, covered, starved.nodes_visited) == member_search(table, dominance=True)

    @staticmethod
    def traced_peak(table):
        tracemalloc.start()
        try:
            res = extendibility_search(table)
            return res, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_set_memory_stays_within_the_budget(self, monkeypatch):
        # on SHIFT (x) {|0>,...,|3>} the full set takes about 10 KiB and the
        # rest of the search (rank memo, stacks) about 2 KiB, so the peak
        # above a run with no set is the set's own size; with no set the
        # search walks the nodes of the reference with the dominance rule
        table = shift_times_cb(4)
        extendibility_search(table)  # first use of the table and numpy paths
        dominated = member_search(table, dominance=True)[2]
        full, full_peak = self.traced_peak(table)
        budget = 2**12
        monkeypatch.setattr(linalg, "DENSE_BYTES_BUDGET", 0)
        plain, floor = self.traced_peak(table)
        monkeypatch.setattr(linalg, "DENSE_BYTES_BUDGET", budget)
        capped, peak = self.traced_peak(table)
        assert peak - floor <= budget < full_peak - floor
        assert full.nodes_visited < capped.nodes_visited < plain.nodes_visited == dominated == 12_317
        for res in (plain, capped):
            assert res.assignments_covered == full.assignments_covered == 4**16


class TestOneToleranceSource:
    """Every decision on a set reads its tolerance from ``NLWE_TOLERANCE``
    (or the default); none takes one per call."""

    @staticmethod
    def qutrit_upb():
        # SHIFT (x) {|0>, |1>, |2>}: unextendible, and each rank it decides
        # keeps a singular value above 0.5 (|0> and |+> give 0.54)
        table = shift_times_cb(3)
        return Upb(table.dims, table.factors, table.ids, stopper_index=len(table) - 1)

    @pytest.mark.parametrize("decide", [extendibility_search, is_unextendible, be_state])
    def test_tolerance_from_the_environment(self, decide, monkeypatch):
        upb = self.qutrit_upb()
        monkeypatch.setenv("NLWE_TOLERANCE", "0.6")
        with pytest.raises(PreconditionError, match=r"1/sqrt\(3\)"):
            decide(upb)
        monkeypatch.setenv("NLWE_TOLERANCE", "0.5")
        verdict = decide(upb)
        if decide is extendibility_search:
            assert not verdict.extendible
        elif decide is is_unextendible:
            assert verdict.passed
        else:
            assert state_rank(verdict) == math.prod(upb.dims) - len(upb)


class TestWitnessCheck:
    @pytest.mark.parametrize("case", ["shift-first-three", "tiles-without-1", "tiles-without-0"])
    def test_witness_is_symbolic_at_one_kind_parties_and_dense_elsewhere(self, case):
        u = shift_upb()
        table, expected = {
            # one assigned ket per party: CB(0), DFT(1) and CB(1)
            "shift-first-three": (from_states(LocalFactors, u.states[:3], u.dims),
                                  [CB(1), DFT(0), CB(0)]),
            # party 0 is given |0> and |2> (it also holds dense factors),
            # party 1 |0> and F|0>
            "tiles-without-1": (without(tiles(), 1), [CB(1), Dense]),
            "tiles-without-0": (mixed_witness_set(), [Dense, Dense]),
        }[case]
        res = extendibility_search(table)
        w = res.witness_state
        assert isinstance(w, LocalFactors) and len(w) == 1
        assert w.dims == table.dims
        assert all(len(kept) == 1 for kept in w.factors)
        for (factor,), want in zip(w.factors, expected):
            assert isinstance(factor, Dense) if want is Dense else factor == want
        assert w.dense().shape == (1, math.prod(table.dims))
        assert_witness(res, table)

    def test_non_unit_witness_factor_is_contract_violation(self, monkeypatch):
        # a complement vector 1e-9 too long stays orthogonal to the members
        # but fails the unit-norm check every product-state factor must pass
        complement = linalg.orthogonal_complement_basis
        monkeypatch.setattr(
            "nlwe.upb.orthogonal_complement_basis",
            lambda vecs, d, tol: [v * (1 + 1e-9) for v in complement(vecs, d, tol)],
        )
        with pytest.raises(ContractViolationError, match="norm"):
            extendibility_search(mixed_witness_set())

    def test_empty_complement_is_contract_violation(self, monkeypatch):
        # a search that thinks every party has room reaches the all-party-0
        # assignment, whose four factors (a dense one, |2>, another dense
        # one and F|0>) span party 0 completely
        monkeypatch.setattr("nlwe.upb._mask_rank", lambda *args: 1)
        with pytest.raises(ContractViolationError, match="no orthogonal direction"):
            extendibility_search(mixed_witness_set())

    def test_tolerance_must_stay_below_the_sweep_residual(self, monkeypatch):
        # party 0's two factors span the plane orthogonal to (1,1,1)/sqrt(3),
        # so every computational basis vector leaves residual 1/sqrt(3) there
        a = Dense(np.array([1.0, -1.0, 0.0]) / np.sqrt(2))
        b = Dense(np.array([1.0, 1.0, -2.0]) / np.sqrt(6))
        table = from_states(
            LocalFactors,
            [ProductState((a, CB(0)), (3, 2)), ProductState((b, CB(1)), (3, 2))],
            (3, 2),
        )
        monkeypatch.setenv("NLWE_TOLERANCE", "0.6")
        with pytest.raises(PreconditionError, match=r"1/sqrt\(3\)"):
            extendibility_search(table)
        monkeypatch.setenv("NLWE_TOLERANCE", "0.5")
        res = extendibility_search(table)
        assert res.witness_assignment == (0, 0)
        w = res.witness_state.dense().reshape(3, 2)
        np.testing.assert_allclose(np.abs(w[:, 0]), np.full(3, 1 / np.sqrt(3)), atol=1e-12)

    def test_overlapping_witness_is_contract_violation(self, monkeypatch):
        # the witness F|1> (x) F|1> overlaps the member (|0> - |1>)/sqrt(2) (x) |2>
        monkeypatch.setattr(
            "nlwe.upb.orthogonal_complement_basis", lambda vecs, d, tol: [dft_matrix(d)[:, 1]]
        )
        with pytest.raises(ContractViolationError, match="overlaps member 0 "):
            extendibility_search(mixed_witness_set())

    def test_free_index_that_overlaps_a_member_is_contract_violation(self, monkeypatch):
        # each party takes back the ket it was given: the witness
        # |0> (x) F|1> (x) |1> overlaps the member |0, 1, F1> by 1/2
        monkeypatch.setattr("nlwe.upb._free_ket",
                            lambda kind, taken, d: min(taken, key=lambda f: f.index))
        u = shift_upb()
        with pytest.raises(ContractViolationError, match="overlaps member 0 by 5.000e-01"):
            extendibility_search(from_states(LocalFactors, u.states[:3], u.dims))

    def test_witness_ranks_the_distinct_factors_the_search_ranked(self):
        # f2 sits in two members that the witness assignment gives party 0;
        # ranked once, {f1, f2} leaves a direction there, ranked with the
        # repeat it does not
        eps = 1.3e-9
        f1 = np.array([1.0, 0.0])
        f2 = np.array([np.cos(eps), np.sin(eps)])
        assert span_dimension([f1, f2]) == 1
        assert span_dimension([f1, f2, f2]) == 2
        u = from_states(
            Upb,
            [ProductState(f, (2, 3)) for f in [(Dense(f1), CB(0)), (Dense(f2), CB(1)),
                                               (Dense(f2), CB(2)), (CB(1), CB(0))]],
            (2, 3), stopper_index=3,
        )
        res = extendibility_search(u)
        assert res.witness_assignment == (0, 0, 0, 1)
        assert_witness(res, u)
