"""Control-DFT gates and circuits acting on computational-basis inputs.

A gate applies the d-dimensional DFT to its target party exactly when every
control party holds the required computational-basis value, and the identity
otherwise.  A gate set is *exclusive* when every pair of gates shares a
control party with conflicting required values; exclusive gates commute and
map computational product states to product states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError, TooLargeError
from .linalg import dft_matrix, kron_all, require_dense_budget
from .report import VerificationReport, count_text, party_label
from .states import CB, DFT, ProductBasis

COMMUTATION_TOL = 1e-12
# The largest basis generate_basis enumerates: canonical (6,5) has 15 625
# states, canonical (12,11) would have 11^12.
MAX_BASIS_STATES = 2**20


@dataclass(frozen=True)
class ControlDftGate:
    """Control conditions (party -> required CB value) plus one DFT target."""

    controls: tuple
    target: int

    def __init__(self, controls, target: int):
        items = tuple(sorted((int(p), int(v)) for p, v in dict(controls).items()))
        object.__setattr__(self, "controls", items)
        object.__setattr__(self, "target", int(target))
        if any(p == self.target for p, _ in items):
            raise ContractViolationError(
                f"target party {target} cannot also be a control"
            )

    @property
    def control_map(self) -> dict[int, int]:
        return dict(self.controls)


@dataclass
class Circuit:
    dims: tuple
    gates: list = field(default_factory=list)

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.gates = list(self.gates)
        n = len(self.dims)
        for g in self.gates:
            if not 0 <= g.target < n:
                raise DimensionMismatchError(f"gate target {g.target} outside 0..{n - 1}")
            for p, v in g.controls:
                if not 0 <= p < n:
                    raise DimensionMismatchError(f"control party {p} outside 0..{n - 1}")
                if not 0 <= v < self.dims[p]:
                    raise ContractViolationError(
                        f"control value {v} out of range for party {party_label(p)} "
                        f"(d={self.dims[p]})"
                    )


def _conflicting_party(g1: ControlDftGate, g2: ControlDftGate) -> int | None:
    c1, c2 = g1.control_map, g2.control_map
    for p in sorted(c1.keys() & c2.keys()):
        if c1[p] != c2[p]:
            return p
    return None


def validate_exclusivity(circuit: Circuit) -> VerificationReport:
    """Check every unordered gate pair for a shared control with conflicting values.

    A conflicting shared control means no computational input can satisfy
    both gates, which makes the pair's generator product vanish and the
    gates commute.  Failure is a report outcome, not an error.
    """
    report = VerificationReport()
    for i, j in itertools.combinations(range(len(circuit.gates)), 2):
        p = _conflicting_party(circuit.gates[i], circuit.gates[j])
        if p is None:
            report.add(
                f"exclusive[{i},{j}]",
                False,
                detail="no shared control party with differing values",
            )
        else:
            g1, g2 = circuit.gates[i], circuit.gates[j]
            report.add(
                f"exclusive[{i},{j}]",
                True,
                detail=(
                    f"conflict at party {party_label(p)} "
                    f"({g1.control_map[p]} vs {g2.control_map[p]})"
                ),
            )
    return report


def gate_unitary(gate: ControlDftGate, dims) -> np.ndarray:
    """Full-space unitary of one gate: DFT on the target inside the control
    subspace, identity outside."""
    dims = tuple(int(d) for d in dims)
    total = math.prod(dims)
    require_dense_budget(total, total, "the gate unitary")
    controls = gate.control_map
    proj_factors = []
    act_factors = []
    for p, d in enumerate(dims):
        if p in controls:
            proj = np.zeros((d, d), dtype=complex)
            proj[controls[p], controls[p]] = 1.0
            proj_factors.append(proj)
            act_factors.append(proj)
        elif p == gate.target:
            proj_factors.append(np.eye(d, dtype=complex))
            act_factors.append(dft_matrix(d))
        else:
            eye = np.eye(d, dtype=complex)
            proj_factors.append(eye)
            act_factors.append(eye)
    proj = kron_all(proj_factors)
    act = kron_all(act_factors)
    return act + np.eye(total, dtype=complex) - proj


def _generator_factors(gate: ControlDftGate, dims) -> list[np.ndarray]:
    """The local factors g_p of G = U - I = (x)_p g_p for one gate's unitary
    U: the projector |c><c| on each control, F - I on the target and the
    identity elsewhere."""
    controls = gate.control_map
    factors = []
    for p, d in enumerate(dims):
        require_dense_budget(d, d, "a local gate factor")
        if p in controls:
            g = np.zeros((d, d), dtype=complex)
            g[controls[p], controls[p]] = 1.0
        elif p == gate.target:
            g = dft_matrix(d) - np.eye(d)
        else:
            g = np.eye(d, dtype=complex)
        factors.append(g)
    return factors


def check_commutation(circuit: Circuit) -> VerificationReport:
    """Report the max-entry commutator residual for every gate pair; a
    pair passes at a residual of at most ``COMMUTATION_TOL``.

    The residual is computed from d x d local blocks, with no D x D array.
    With U_g = I + G, G = (x)_p g_p (see ``_generator_factors``), the
    commutator is [U_g, U_h] = GH - HG.  On every party except one that is
    a control of one gate and the target of the other, g_p and h_p commute
    and the factor g_p h_p is shared by both terms.  The largest entry of a
    Kronecker product is the product of its factors' largest entries, so
    the residual is the product of max|g_p h_p| over the shared parties
    times the largest entry of the one block (x)_S g_p h_p - (x)_S h_p g_p
    on the remaining parties S (at most two, so at most d^2 x d^2).  It is
    an exact 0 when a shared factor vanishes (conflicting controls) or when
    S is empty.  The local factors and the block are held to the dense
    budget.  ``gate_unitary`` is the dense reference for this check.
    """
    report = VerificationReport()
    factors = [_generator_factors(g, circuit.dims) for g in circuit.gates]
    for i, j in itertools.combinations(range(len(circuit.gates)), 2):
        gi, gj = circuit.gates[i], circuit.gates[j]
        # the parties where a control projector meets the other's F - I
        clash = ({gj.target} & gi.control_map.keys()) | ({gi.target} & gj.control_map.keys())
        block = math.prod(circuit.dims[p] for p in clash)
        require_dense_budget(block, block, "the commutator block")
        shared = 1.0
        gh, hg = [], []
        for p, (a, b) in enumerate(zip(factors[i], factors[j])):
            if p in clash:
                gh.append(a @ b)
                hg.append(b @ a)
            else:
                shared *= float(np.max(np.abs(a @ b)))
        residual = 0.0
        if gh and shared:
            residual = shared * float(np.max(np.abs(kron_all(gh) - kron_all(hg))))
        report.add(
            f"commute[{i},{j}]",
            residual <= COMMUTATION_TOL,
            residual=residual,
            detail=f"max entry of U{i}U{j} - U{j}U{i}",
        )
    return report


def images(circuit: Circuit, inputs: np.ndarray) -> tuple[list, np.ndarray]:
    """The images of computational inputs (one per row of ``inputs``) as
    the ``factors`` and ``ids`` of one ``LocalFactors`` set on the
    circuit's dims, for the caller to make the set it needs.

    A gate fires on the rows where every control party holds its required
    value, one boolean mask per gate.  On a row where a gate fires, the
    target's factor is the DFT image DFT(x_t) of the input there; every
    other factor stays CB(x_p).  A row on which two gates fire raises
    ``ContractViolationError``.  Each party's factors get ids in
    first-seen order over the rows.
    """
    dims = circuit.dims
    target = np.full(len(inputs), -1)  # the fired gate's target, or -1
    for gate in circuit.gates:
        fires = np.ones(len(inputs), dtype=bool)
        for p, v in gate.controls:
            fires &= inputs[:, p] == v
        if np.any(target[fires] >= 0):
            raise ContractViolationError(
                "more than one gate fired; circuit is not exclusive"
            )
        target[fires] = gate.target
    # factor codes: x for CB(x), d + x for DFT(x)
    codes = inputs.astype(np.intp)
    fired = np.flatnonzero(target >= 0)
    codes[fired, target[fired]] += np.array(dims, dtype=np.intp)[target[fired]]
    factors = []
    ids = np.empty_like(codes)
    for p, d in enumerate(dims):
        distinct = list(dict.fromkeys(codes[:, p].tolist()))  # in first-seen order
        id_of = np.empty(2 * d, dtype=np.intp)
        id_of[distinct] = np.arange(len(distinct))
        ids[:, p] = id_of[codes[:, p]]
        factors.append([CB(c) if c < d else DFT(c - d) for c in distinct])
    return factors, ids


def require_basis_size(dims) -> int:
    """prod(dims), the size of a basis on ``dims``; above
    ``MAX_BASIS_STATES`` it is ``TooLargeError``."""
    total = math.prod(dims)
    if total > MAX_BASIS_STATES:
        raise TooLargeError(
            f"a basis of {count_text(total)} states exceeds the limit of {MAX_BASIS_STATES}"
        )
    return total


def generate_basis(circuit: Circuit) -> ProductBasis:
    """Apply the circuit to every computational input in lexicographic order.

    For an exclusive circuit the result is a full orthogonal product basis
    of size prod(dims), built as one table (``images``) with no per-state
    object.  A basis of more than ``MAX_BASIS_STATES`` states is refused
    (``require_basis_size``) before any input is enumerated.  A circuit that
    is not exclusive raises ``ContractViolationError``: two gates with no
    conflicting shared control both fire on the input that holds each of
    their controls at its required value.
    """
    total = require_basis_size(circuit.dims)
    inputs = np.indices(circuit.dims).reshape(len(circuit.dims), total).T
    return ProductBasis(circuit.dims, *images(circuit, inputs))
