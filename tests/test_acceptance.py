"""Acceptance suite: one test per criterion, each printing one pass/fail line.

The four-qutrit halves of criteria 6 and 7 assert that the stopper-completed
four-qutrit extraction is extendible, as the README section "A note on the
four-qutrit extraction" explains.  The product state |2>(x)F|2>(x)F|0>(x)|0>
is orthogonal to all nine members, which an exact factor-by-factor comparison
proves, so the search must report "extendible" and ``be_state`` must refuse
the set.
"""

import itertools
import time

import numpy as np

from nlwe.boundent import be_state, member_annihilation, ppt_report, state_rank, state_report
from nlwe.circuit import Circuit, check_commutation, generate_basis, validate_exclusivity
from nlwe.cli import main
from nlwe.ensembles import (
    canonical_circuit,
    extended_circuit_fig4,
    four_qutrit_circuit,
    preset_circuit,
    shift_circuit,
)
from nlwe.errors import NlweError
from nlwe.lemma import lemma_check
from nlwe.linalg import gram
from nlwe.serialize import basis_from_obj, loads
from nlwe.states import CB, DFT, LocalFactors
from nlwe.upb import extendibility_search, extract_upb, is_unextendible, minimal_size

from helpers import (
    DenseDensity,
    apply_dense,
    circuit_unitary,
    complement_mixture,
    completion_states,
    dense_ppt_minima,
    from_states,
    ket,
    kron_chain,
    random_gaussian_operator,
    random_scaled_unitary,
    symbolic_key,
    weyl_operators,
)

SHIFT_KEYS = {
    (("CB", 0), ("CB", 0), ("CB", 0)),
    (("DFT", 0), ("CB", 0), ("CB", 1)),
    (("CB", 0), ("CB", 1), ("DFT", 0)),
    (("CB", 0), ("CB", 1), ("DFT", 1)),
    (("CB", 1), ("DFT", 0), ("CB", 0)),
    (("DFT", 1), ("CB", 0), ("CB", 1)),
    (("CB", 1), ("DFT", 1), ("CB", 0)),
    (("CB", 1), ("CB", 1), ("CB", 1)),
}

ONEWAY_KEYS = {
    (("CB", 0), ("CB", 0)),
    (("CB", 0), ("CB", 1)),
    (("CB", 1), ("DFT", 0)),
    (("CB", 1), ("DFT", 1)),
}


def _criterion(number, description, parts):
    failed = [(label, info) for label, ok, info in parts if not ok]
    status = "PASS" if not failed else "FAIL"
    line = f"[criterion {number}] {status} - {description}"
    if failed:
        line += " | failing: " + "; ".join(f"{label} ({info})" for label, info in failed)
    print(line)
    assert not failed, line


def _exactly_orthogonal_party(witness, member):
    """First party whose two factors are distinct kets of one orthonormal basis.

    Two CB kets, or two DFT kets, with different indices are orthogonal, so
    such a party makes the whole product overlap exactly zero.  Returns None
    when no party qualifies.
    """
    for party, (a, b) in enumerate(zip(witness, member)):
        if type(a) is type(b) and type(a) in (CB, DFT) and a.index != b.index:
            return party
    return None


def _generate_via_cli(tmp_path, preset):
    out = tmp_path / "basis.json"
    code = main(["generate", "--preset", preset, "--out", str(out)])
    assert code == 0
    basis, circuit = basis_from_obj(loads(out.read_text()))
    return basis, circuit


def test_criterion_1_shift_reproduction(tmp_path):
    start = time.perf_counter()
    basis, _ = _generate_via_cli(tmp_path, "shift")
    elapsed = time.perf_counter() - start
    keys = {symbolic_key(s) for s in basis.states}
    _criterion(1, "shift preset reproduces the 8-state ensemble", [
        ("set equality", keys == SHIFT_KEYS, f"{len(keys)} distinct states"),
        ("state count", len(basis) == 8, str(len(basis))),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f}s"),
    ])


def test_criterion_2_oneway_set(tmp_path):
    basis, _ = _generate_via_cli(tmp_path, "oneway")
    keys = {symbolic_key(s) for s in basis.states}
    _criterion(2, "oneway preset reproduces the 4-state set", [
        ("set equality", keys == ONEWAY_KEYS, f"{len(keys)} distinct states"),
        ("state count", len(basis) == 4, str(len(basis))),
    ])


def test_criterion_3_generic_construction():
    parts = []
    for n, d in ((3, 2), (4, 3), (5, 4)):
        start = time.perf_counter()
        circuit = canonical_circuit(n, (d,) * n)
        basis = generate_basis(circuit)
        size_ok = len(basis) == d**n
        gram_dev = basis.gram_deviation()
        if (n, d) == (5, 4):
            u = circuit_unitary(circuit)
            rendered = np.array([s.dense() for s in basis.states]).T
            agree = float(np.max(np.abs(u - rendered)))
        else:
            agree = 0.0
            for state, cb_input in zip(
                basis.states, itertools.product(*[range(d)] * n)
            ):
                agree = max(
                    agree,
                    float(np.max(np.abs(apply_dense(circuit, cb_input) - state.dense()))),
                )
        elapsed = time.perf_counter() - start
        parts.append((f"({n},{d}) size", size_ok, str(len(basis))))
        parts.append(((f"({n},{d}) gram <= 1e-10"), gram_dev <= 1e-10, f"{gram_dev:.2e}"))
        parts.append(((f"({n},{d}) dense agreement <= 1e-12"), agree <= 1e-12, f"{agree:.2e}"))
        if (n, d) == (5, 4):
            parts.append(("(5,4) runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f}s"))
    _criterion(3, "generic construction for (3,2), (4,3), (5,4)", parts)


def test_criterion_4_exclusivity_and_commutation():
    parts = []
    presets = {
        "oneway": preset_circuit("oneway"),
        "shift": shift_circuit(),
        "canonical(4,3)": four_qutrit_circuit(),
        "fig4": extended_circuit_fig4(),
    }
    for name, circuit in presets.items():
        excl = validate_exclusivity(circuit)
        parts.append((f"{name} exclusivity", excl.passed, f"{len(excl.checks)} pairs"))
        comm = check_commutation(circuit)
        worst = max((c.residual for c in comm.checks), default=0.0)
        parts.append((f"{name} commutation <= 1e-12", comm.passed, f"{worst:.2e}"))
        reference = generate_basis(circuit).states
        rotated = Circuit(circuit.dims, circuit.gates[1:] + circuit.gates[:1])
        reversed_ = Circuit(circuit.dims, list(reversed(circuit.gates)))
        unchanged = (
            generate_basis(rotated).states == reference
            and generate_basis(reversed_).states == reference
        )
        parts.append((f"{name} gate-order invariance", unchanged, "state-by-state"))
    _criterion(4, "exclusivity, commutation, and gate-order invariance", parts)


def test_criterion_5_upb_sizes():
    shift_upb = extract_upb(shift_circuit(), {0: 0, 1: 0, 2: 0})
    qutrit_upb = extract_upb(four_qutrit_circuit())
    _criterion(5, "extracted sizes match the minimal bound", [
        ("(2,2,2) size 4", len(shift_upb) == 4 == minimal_size((2, 2, 2)), str(len(shift_upb))),
        ("(3,3,3,3) size 9", len(qutrit_upb) == 9 == minimal_size((3, 3, 3, 3)), str(len(qutrit_upb))),
    ])


def test_criterion_6_unextendibility():
    parts = []
    shift_upb = extract_upb(shift_circuit(), {0: 0, 1: 0, 2: 0})
    report = is_unextendible(shift_upb)
    res = extendibility_search(shift_upb)
    parts.append(("shift unextendible", report.passed, report.checks[0].detail))
    parts.append(
        ("shift search within 81 assignments", res.assignments_covered <= 81,
         str(res.assignments_covered))
    )
    for drop in range(4):
        rest = [s for i, s in enumerate(shift_upb.states) if i != drop]
        sub = extendibility_search(from_states(LocalFactors, rest, shift_upb.dims))
        witness_ok = False
        if sub.extendible and sub.witness_state is not None:
            w = sub.witness_state.dense()
            witness_ok = all(
                abs(np.vdot(s.dense(), w)) <= 1e-9 for s in rest
            )
        parts.append(
            (f"leave-one-out #{drop} extendible with witness", sub.extendible and witness_ok,
             f"assignment {sub.witness_assignment}")
        )
    qutrit_upb = extract_upb(four_qutrit_circuit())
    start = time.perf_counter()
    qutrit_report = is_unextendible(qutrit_upb)
    elapsed = time.perf_counter() - start
    qutrit_res = extendibility_search(qutrit_upb)
    parts.append(
        ("four-qutrit search within 4^9 assignments in < 60 s",
         qutrit_res.assignments_covered <= 4**9 and elapsed < 60.0,
         f"{qutrit_res.assignments_covered} covered, {elapsed:.1f}s")
    )
    # The set is extendible (README, "A note on the four-qutrit extraction").
    parts.append(
        ("four-qutrit decided extendible",
         not qutrit_report.passed and qutrit_res.extendible, qutrit_report.checks[0].detail)
    )
    search_overlap = float("inf")
    if qutrit_res.witness_state is not None:
        w = qutrit_res.witness_state.dense()
        search_overlap = max(abs(np.vdot(s.dense(), w)) for s in qutrit_upb.states)
    parts.append(
        ("four-qutrit search witness orthogonal to every member <= 1e-9",
         search_overlap <= 1e-9, f"max overlap {search_overlap:.2e}")
    )
    exact_witness = (CB(2), DFT(2), DFT(0), CB(0))
    killers = [_exactly_orthogonal_party(exact_witness, s.factors) for s in qutrit_upb.states]
    parts.append(
        ("four-qutrit exact witness |2>F|2>F|0>|0> orthogonal to all 9 members",
         len(killers) == 9 and None not in killers, f"killing parties {killers}")
    )
    _criterion(6, "unextendibility decisions", parts)


def test_criterion_7_bound_entangled_states():
    parts = []
    shift_upb = extract_upb(shift_circuit(), {0: 0, 1: 0, 2: 0})
    rho = be_state(shift_upb)
    trace = state_report(rho).checks[0]
    parts.append(("shift trace within 1e-10", trace.passed and trace.residual <= 1e-10,
                  f"{trace.residual:.2e}"))
    parts.append(("shift rank D-m", state_rank(rho) == 4, str(state_rank(rho))))
    ann = member_annihilation(rho)
    parts.append(("shift annihilation <= 1e-12", ann <= 1e-12, f"{ann:.2e}"))
    ppt = ppt_report(rho)
    low = min(c.residual for c in ppt.checks)
    parts.append(("shift PPT on all bipartitions", ppt.passed and low >= -1e-10, f"min {low:.2e}"))
    dense = complement_mixture(shift_upb)
    dense_low = min(dense_ppt_minima(dense).values())
    parts.append(("shift Gram bound below the dense PPT minimum", low <= dense_low + 1e-12,
                  f"bound {low:.2e}, LAPACK {dense_low:.2e}"))

    bell = (kron_chain(ket(0, 2), ket(0, 2)) + kron_chain(ket(1, 2), ket(1, 2))) / np.sqrt(2)
    bell_min = dense_ppt_minima(DenseDensity(np.outer(bell, bell.conj()), (2, 2)))["A|B"]
    parts.append(
        ("Bell projector min PT eigenvalue -0.5 +/- 1e-9",
         abs(bell_min - (-0.5)) <= 1e-9, f"{bell_min:.12f}")
    )

    # The four-qutrit set is extendible, so the complement mixture carries no
    # entanglement certificate and be_state must refuse it.
    qutrit_upb = extract_upb(four_qutrit_circuit())
    try:
        be_state(qutrit_upb)
    except NlweError as exc:
        refusal = exc.code
    else:
        refusal = "none (state was built)"
    parts.append(
        ("four-qutrit extendible set refused with contract-violation",
         refusal == "contract-violation", f"refusal: {refusal}")
    )
    _criterion(7, "complement mixtures and PPT verification", parts)


def test_criterion_8_separability_completion():
    parts = []
    start = time.perf_counter()
    shift_upb = extract_upb(shift_circuit(), {0: 0, 1: 0, 2: 0})
    for s in range(3):
        states = completion_states(shift_upb, s)
        g = gram([st.dense() for st in states])
        dev = float(np.max(np.abs(g - np.eye(len(states)))))
        parts.append(
            (f"d=2 cut {s} completes to 8", len(states) == 8 and dev <= 1e-9, f"dev {dev:.2e}")
        )
    qutrit_upb = extract_upb(four_qutrit_circuit())
    for s in range(4):
        states = completion_states(qutrit_upb, s)
        g = gram([st.dense() for st in states])
        dev = float(np.max(np.abs(g - np.eye(len(states)))))
        parts.append(
            (f"d=3 cut {s} completes to 81", len(states) == 81 and dev <= 1e-9, f"dev {dev:.2e}")
        )
    elapsed = time.perf_counter() - start
    parts.append(("total runtime < 1 min", elapsed < 60.0, f"{elapsed:.1f}s"))
    _criterion(8, "separability completion across every single-party cut", parts)


def test_criterion_9_measurement_lemma():
    parts = []
    for d in (2, 3):
        rng = np.random.default_rng(20240800 + d)
        worst = 0.0
        all_hold = True
        for _ in range(100):
            result = lemma_check(random_scaled_unitary(d, rng))
            all_hold &= result.constraints_hold
            worst = max(worst, result.isotropy_residual)
        parts.append(
            (f"d={d} scaled unitaries satisfy constraints, residual <= 1e-10",
             all_hold and worst <= 1e-10, f"worst {worst:.2e}")
        )
        weyl_ok = all(lemma_check(w).constraints_hold for w in weyl_operators(d))
        parts.append((f"d={d} Weyl operators satisfy constraints", weyl_ok, f"{d * d} ops"))
        passing = 0
        implication_ok = True
        for _ in range(1000):
            result = lemma_check(random_gaussian_operator(d, rng))
            if result.constraints_hold:
                passing += 1
                implication_ok &= result.isotropy_residual <= 1e-8
        parts.append(
            (f"d={d} gaussian implication", implication_ok, f"{passing}/1000 passed constraints")
        )
        parts.append(
            (f"d={d} >= 95% fail constraints", (1000 - passing) >= 950, f"{1000 - passing} failed")
        )
    _criterion(9, "measurement-branch lemma over operator families", parts)
