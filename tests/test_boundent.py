import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from nlwe import boundent, serialize
from nlwe.boundent import (
    DensityMatrix,
    be_state,
    bipartitions,
    member_annihilation,
    ppt_report,
    separability_completion,
    separability_report,
    state_rank,
    state_report,
)
from nlwe.cli import main
from nlwe.ensembles import four_qutrit_circuit, preset_circuit, shift_circuit
from nlwe.errors import ContractViolationError, TooLargeError, UnsupportedShapeError
from nlwe.linalg import (
    gram,
    hermitian_eigenvalues,
    kron_all,
    orthogonal_complement_basis,
    partial_transpose,
    span_dimension,
)
from nlwe.report import cut_label, party_label
from nlwe.states import (
    CB,
    Dense,
    LocalFactors,
    ProductBasis,
    ProductState,
    check_factor,
    factor_dense,
)
from nlwe.upb import Upb, extract_upb

from helpers import (
    NON_FINITE_CASES,
    DenseDensity,
    complement_mixture,
    completion_states,
    dense_annihilation,
    dense_ppt_minima,
    dense_rank,
    from_states,
    ket,
    kron_chain,
    non_finite_matrix,
    orthonormal_product_sets,
    product_set,
    shift_cubed,
    shift_upb,
    tiles,
)

SQ2 = 1 / np.sqrt(2)


def write_upb(table, path, stopper_index=0):
    """Write ``table`` as a UPB file."""
    upb = Upb(table.dims, table.factors, table.ids, stopper_index=stopper_index)
    path.write_text(json.dumps(serialize.upb_to_obj(upb)))
    return path


class TestBeState:
    def test_shift_state_basics(self):
        u = shift_upb()
        rho = be_state(u)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
        assert state_rank(rho) == 8 - 4
        assert member_annihilation(rho) <= 1e-12
        # uniform coefficient 1/(D-m) on the complement
        evals = hermitian_eigenvalues(rho.matrix)
        assert np.allclose(evals[:4], 0.0, atol=1e-12)
        assert np.allclose(evals[4:], 0.25, atol=1e-12)

    def test_rows_form_no_matrix_and_no_spectrum(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a row rendered the members or took a spectrum")

        monkeypatch.setattr("nlwe.states.LocalFactors.dense", refused)
        monkeypatch.setattr("numpy.linalg.eigvalsh", refused)
        monkeypatch.setattr("numpy.linalg.eigh", refused)
        rho = be_state(shift_upb())
        assert state_report(rho).passed and ppt_report(rho).passed
        assert state_rank(rho) == 8 - 4
        assert "matrix" not in vars(rho)

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
        assert dense_rank(rho) == 81 - 9
        assert dense_annihilation(rho, u) <= 1e-12
        minima = dense_ppt_minima(rho)
        assert len(minima) == 7
        assert min(minima.values()) >= -1e-10
        # the Gram bound certifies the same rows on the set itself
        bound = DensityMatrix(u)
        assert state_rank(bound) == 81 - 9
        assert state_report(bound).passed
        assert [c.name for c in ppt_report(bound).checks] == [f"ppt[{cut}]" for cut in minima]
        assert ppt_report(bound).passed

    def test_shift_cubed_passes_every_row(self, tmp_path, capsys):
        # 64 members on nine qubits, D = 512: 255 cuts, each certified by
        # the one Gram bound, with no 512 x 512 spectrum
        path = write_upb(shift_cubed(), tmp_path / "u.json")
        assert main(["bestate", "--in", str(path), "--ppt"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3 + 255
        assert all(row.split()[1] == "ok" for row in rows)
        assert rows[1].split()[2] == f"{512 - 64:.3e}"


@pytest.mark.parametrize("excluded", [None, {0: 0, 1: 0, 2: 0}], ids=["shift", "shift-all=0"])
class TestReadsTheTable:
    """The mixture, the annihilation check and the completion render members
    from the id table; bit for bit they are what a walk over the members'
    dense product states gives."""

    def test_be_state_is_the_sum_over_member_states(self, excluded):
        u = extract_upb(shift_circuit(), excluded)
        proj = np.zeros((8, 8), dtype=complex)
        for s in u.states:
            v = s.dense()
            proj += np.outer(v, v.conj())
        rho = (np.eye(8, dtype=complex) - proj) / (8 - len(u))
        rho = (rho + rho.conj().T) / 2
        assert be_state(u).matrix.tobytes() == rho.tobytes()

    def test_annihilation_bounds_the_max_over_member_states(self, excluded):
        u = extract_upb(shift_circuit(), excluded)
        rho = be_state(u)
        walked = max(abs(complex(s.dense().conj() @ rho.matrix @ s.dense())) for s in u.states)
        assert walked <= member_annihilation(rho) + 1e-15
        assert member_annihilation(rho) <= 1e-15

    def test_completion_rests_are_the_kron_of_the_rest_factors(self, excluded):
        u = extract_upb(shift_circuit(), excluded)
        for s in range(3):
            kets, rests, _ = separability_completion(u, s)
            for i, member in enumerate(u.states):
                rest = kron_all(factor_dense(f, 2) for p, f in enumerate(member.factors) if p != s)
                assert kets[i] == member.factors[s]
                assert rests[i].tobytes() == rest.tobytes()


class TestPptReport:
    def test_bipartition_count(self):
        assert len(bipartitions(3)) == 3
        assert len(bipartitions(4)) == 7

    def test_labels_past_the_alphabet(self):
        assert party_label(25) == "Z"
        assert party_label(26) == "P27"
        assert cut_label({0, 26}, 27) == "AP27|" + "BCDEFGHIJKLMNOPQRSTUVWXYZ"

    def test_shift_state_ppt_on_all_cuts(self):
        rho = be_state(shift_upb())
        report = ppt_report(rho)
        assert report.passed
        assert len(report.checks) == 3
        for check in report.checks:
            assert check.residual >= -1e-10

    def test_every_cut_shares_one_bound(self):
        rho = be_state(shift_upb())
        (low,) = {c.residual for c in ppt_report(rho).checks}
        assert low == 0.0 - rho.spread
        eps = rho.diagonal + (len(rho.members) - 1) * rho.offdiagonal
        assert rho.spread == eps / (8 - 4)

    @settings(max_examples=100, deadline=None)
    @given(orthonormal_product_sets())
    def test_gram_bound_against_the_dense_spectra(self, members):
        # the bound lies below LAPACK's least eigenvalue of every partial
        # transpose, and the rank, trace and annihilation rows agree with
        # the dense mixture's to within rounding
        rho = DensityMatrix(members)
        dense = complement_mixture(members)
        minima = dense_ppt_minima(dense)
        report = ppt_report(rho)
        assert [c.name for c in report.checks] == [f"ppt[{cut}]" for cut in minima]
        for check, low in zip(report.checks, minima.values()):
            assert check.passed
            assert check.residual <= low + 1e-12
        assert -rho.spread <= float(dense.eigenvalues[0]) + 1e-12
        rows = {c.name: c for c in state_report(rho).checks}
        assert all(c.passed for c in rows.values())
        assert state_rank(rho) == dense_rank(dense) == rows["rank"].residual
        trace = abs(complex(np.trace(dense.matrix)) - 1.0)
        # the bounds scale the Gram rounding (below 1e-14 here) by m/(D - m)
        rounding = 1e-14 * len(members) / rho.rest
        assert trace <= rows["trace"].residual + 1e-14
        assert rows["trace"].residual <= rounding
        annihilation = dense_annihilation(dense, members)
        assert annihilation <= rows["annihilation"].residual + 1e-14
        assert rows["annihilation"].residual <= rounding

    def test_overlap_at_the_gate_limit_is_not_certified(self, tmp_path, capsys):
        # Tiles (x) {|0>,|1>,|2>} with party B's (|0> - |1>)/sqrt(2) turned
        # towards |2>, so that member 0 overlaps member 1 by 0.99e-10, inside
        # the Upb gate's 1e-10; the bound on every cut, (14 delta_o +
        # delta_d)/12, is then above 1e-10, and each ppt row fails as not
        # certified while the other rows pass
        t = tiles()
        s = 0.99e-10 * math.sqrt(2)
        factors = [list(kept) for kept in t.factors]
        factors[1][0] = Dense(np.array([1.0, -1.0, 0.0]) * (math.sqrt(1 - s * s) / math.sqrt(2))
                              + np.array([0.0, 0.0, s]))
        basis = LocalFactors((3,), [[CB(k) for k in range(3)]], np.arange(3).reshape(3, 1))
        table = product_set(LocalFactors(t.dims, factors, t.ids), basis)
        assert 0.9e-10 <= table.max_overlap() <= 1e-10
        path = write_upb(table, tmp_path / "u.json", stopper_index=12)
        assert main(["bestate", "--in", str(path), "--ppt"]) == 1
        rows = [line.split(None, 3) for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[1] for row in rows] == ["ok"] * 3 + ["FAIL"] * 3
        for name, _, residual, detail in rows[3:]:
            assert name.startswith("ppt[")
            assert detail == f"not certified by the Gram bound, bound {residual}"
            assert -1.2e-10 < float(residual) < -1e-10

    def test_maximally_mixed_reference(self):
        rho = DenseDensity(np.eye(8) / 8, (2, 2, 2))
        for low in dense_ppt_minima(rho).values():
            assert abs(low - 1 / 8) < 1e-12

    def test_bell_projector_is_npt_in_the_reference(self):
        bell = (kron_chain(ket(0, 2), ket(0, 2)) + kron_chain(ket(1, 2), ket(1, 2))) * SQ2
        minima = dense_ppt_minima(DenseDensity(np.outer(bell, bell.conj()), (2, 2)))
        assert list(minima) == ["A|B"]
        assert abs(minima["A|B"] - (-0.5)) <= 1e-9

    def test_partial_transpose_keeps_trace_and_hermiticity(self):
        rho = be_state(shift_upb())
        for cut in ({0}, {1}, {2}):
            pt = partial_transpose(rho.matrix, rho.dims, cut)
            assert abs(np.trace(pt) - 1.0) < 1e-12
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


class TestDensityMatrixContract:
    def test_reads_the_sets_gram_extremes(self):
        u = shift_upb()
        rho = DensityMatrix(u)
        assert (rho.diagonal, rho.offdiagonal) == u.gram_extremes()
        assert rho.dims == u.dims and rho.rest == 4

    def test_rejects_a_set_with_no_complement(self):
        basis = LocalFactors((2,), [[CB(0), CB(1)]], np.arange(2).reshape(2, 1))
        with pytest.raises(ContractViolationError, match="no complement"):
            DensityMatrix(basis)


class TestDenseReferenceContract:
    """The dense reference the Gram bound is tested against checks its
    matrix as a density matrix."""

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(ContractViolationError):
            DenseDensity(bad, (2, 2))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ContractViolationError):
            DenseDensity(np.eye(4, dtype=complex), (2, 2))

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ContractViolationError):
            DenseDensity(bad, (2, 2))

    @pytest.mark.parametrize("case", NON_FINITE_CASES)
    def test_rejects_non_finite(self, case):
        # a NaN at (3,3) leaves LAPACK the spectrum [0, -0, 1/4, 1/4], which
        # passes a positivity gate written as low < -tol; off the diagonal
        # LAPACK may ignore the entry or fail to converge
        with pytest.raises(ContractViolationError):
            DenseDensity(non_finite_matrix(case), (2, 2))


class TestSeparabilityCompletion:
    def test_qubit_case_every_cut(self):
        u = shift_upb()
        for s in range(3):
            states = completion_states(u, s)
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
        states = completion_states(u, 0)
        member_rest = [st.factors[1].entries for st in states[:4]]
        f = member_rest[2]  # family with dual factor on party A shares one pattern
        g = member_rest[3]  # stopper rest factors
        assert span_dimension([f, g]) == 2

    def test_qutrit_case_single_cut(self):
        u = extract_upb(four_qutrit_circuit())
        states = completion_states(u, 0)
        assert len(states) == 81
        g = gram([st.dense() for st in states])
        assert np.max(np.abs(g - np.eye(81))) <= 1e-9
        # 9 regrouped members + 3 families of 23 + 2 + 1 new states
        assert 9 + 3 * 23 + 2 + 1 == 81

    def test_qutrit_anchor_complement_dimension(self):
        # span of the two rest anchors is 2, so its complement has 27 - 2 = 25
        u = extract_upb(four_qutrit_circuit())
        states = completion_states(u, 0)
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
        # each returned (ket, rest) passes the checks a product state's
        # factors must pass: a ket index in range, a unit rest vector
        u = shift_upb()
        kets, rests, _ = separability_completion(u, 1)
        assert rests.shape == (8, 4)
        for ket, r in zip(kets, rests):
            check_factor(ket, 2)
            check_factor(Dense(r), 4)
            assert abs(np.linalg.norm(r) - 1.0) <= 1e-12

    @pytest.mark.parametrize("make_upb", [shift_upb, lambda: extract_upb(four_qutrit_circuit())],
                             ids=["shift", "four-qutrit"])
    def test_reversed_members_complete_every_cut(self, make_upb):
        u = make_upb()
        m = len(u)
        rev = from_states(Upb, u.states[::-1], u.dims, stopper_index=m - 1 - u.stopper_index)
        total = math.prod(rev.dims)
        for s in range(len(u.dims)):
            states = completion_states(rev, s)
            assert len(states) == total
            g = from_states(ProductBasis, states, states[0].dims).gram()
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
        mixed = from_states(Upb, (first,) + u.states[1:], u.dims, stopper_index=u.stopper_index)
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
        states = completion_states(u, 2)
        assert len(states) == 1024
        g = from_states(ProductBasis, states, (4, 256)).gram()
        assert np.max(np.abs(g - np.eye(1024))) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_completion_budget_by_shape(self, d, monkeypatch):
        # n = d+1: the completed basis's Gram matrix is D x D with
        # D = d^(d+1), 16 MiB at d = 4 and 3.6 GiB at d = 5.  The budget is
        # checked before the first rest vector is built; stop there.
        class Reached(Exception):
            pass

        def first_rest_vector(self, parties=None):
            raise Reached

        monkeypatch.setattr("nlwe.states.LocalFactors.dense", first_rest_vector)
        u = extract_upb(preset_circuit(f"canonical:n={d + 1},d={d}"))
        if d <= 4:
            with pytest.raises(Reached):
                separability_completion(u, 0)
        else:
            with pytest.raises(TooLargeError, match="the completed basis's Gram matrix"):
                separability_completion(u, 0)

    @pytest.mark.parametrize("preset, cuts", [
        ("shift", range(3)), ("canonical:n=4,d=3", range(4)), ("canonical:n=5,d=4", [2]),
    ])
    def test_certificate_gram_matches_the_dense_gram(self, preset, cuts, monkeypatch):
        # the Gram matrix the certificate is taken from, entry by entry
        # against the Gram matrix of the returned states rendered densely
        seen = []
        cut_gram = boundent._cut_gram

        def kept(d, kets, rests):
            g = cut_gram(d, kets, rests)
            seen.append(g.copy())
            return g

        monkeypatch.setattr(boundent, "_cut_gram", kept)
        u = extract_upb(preset_circuit(preset))
        for s in cuts:
            states = completion_states(u, s)
            dense = gram([st.dense() for st in states])
            assert seen[-1].shape == dense.shape
            assert np.max(np.abs(seen[-1] - dense)) <= 1e-15
        assert len(seen) == len(cuts)

    def test_gram_certificate_catches_a_wrong_complement(self, monkeypatch):
        # the right number of states, but every added complement vector
        # repeated; the first call builds the complement of the dual-ket
        # members' rests, which the later ones are taken against, and is
        # left alone so that the count stays right
        calls = []

        def repeated_first(vectors, ambient_dim, tol=None):
            comp = orthogonal_complement_basis(vectors, ambient_dim, tol)
            calls.append(len(comp))
            return comp if len(calls) == 1 else comp[:1] * len(comp)

        monkeypatch.setattr("nlwe.boundent.orthogonal_complement_basis", repeated_first)
        with pytest.raises(ContractViolationError, match="not orthonormal"):
            separability_completion(extract_upb(four_qutrit_circuit()), 0)
