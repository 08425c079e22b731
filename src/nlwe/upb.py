"""Unextendible product bases: extraction from canonical circuits and the
exhaustive extendibility decision.

A product basis is extendible iff some assignment of members to parties
leaves, at every party, the span of the assigned local factors strictly
below the local dimension; the assigned party is the one whose factor must
kill any new orthogonal product state.  The search enumerates assignments
depth-first (members in listed order, parties ascending) and prunes a branch
as soon as one party's assigned factors span its whole local space.

The search runs on the set's ``states.LocalFactors`` table (the same
symbolic ket, or dense factors with bit-identical entries, share one id
at a party), so a party's assigned factors are an integer mask over a
handful of ids.  The span rank of each
(party, mask) pair is computed once per search, by ``linalg.span_dimension``
on the masked factors in id order, and looked up at every later node.

Whether the remaining members can be placed depends only on the search
state (next member, per-party masks), so the search also remembers the
states from which every completion failed and skips a subtree that arrives
at one.  That set is held to ``linalg.DENSE_BYTES_BUDGET``; when it is full
the search records no more states and stays exact, only slower.  While
the set has room, the work is bounded by the members times the reachable
mask combinations, not by n^m.  The first successful assignment is the lexicographically least;
its orthogonal product witness is checked against every member before it
is reported.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .circuit import Circuit, images
from .config import tolerance
from .ensembles import canonical_circuit
from .errors import ContractViolationError, PreconditionError
from .linalg import orthogonal_complement_basis, span_dimension
from .report import VerificationReport
from .states import DFT, Dense, LocalFactors, ProductSet, ProductState

UPB_ORTHOGONALITY_TOL = 1e-10


def minimal_size(dims) -> int:
    """Smallest possible UPB size on the given local dimensions."""
    return sum(int(d) - 1 for d in dims) + 1


@dataclass(frozen=True, eq=False)
class Upb(ProductSet):
    """Stopper-completed orthogonal product set meeting the minimal UPB size.

    Construction enforces mutual orthogonality (checked from the table's
    local overlaps), the size bound sum(d_j - 1) + 1 <= m < D, and a valid
    stopper position.  Whether the set is actually unextendible is a
    property to verify with ``is_unextendible``, not an invariant of the
    container.
    """

    stopper_index: int

    def __post_init__(self):
        dims = self.dims
        m = len(self)
        total = int(np.prod(dims))
        if not 0 <= self.stopper_index < m:
            raise ContractViolationError(f"stopper index {self.stopper_index} out of range")
        if m < minimal_size(dims):
            raise ContractViolationError(
                f"{m} states is below the minimal UPB size {minimal_size(dims)}"
            )
        if m >= total:
            raise ContractViolationError(
                f"a UPB must be incomplete: {m} states in dimension {total}"
            )
        off = self.table.gram_extremes()[1]
        if not off <= UPB_ORTHOGONALITY_TOL:
            raise ContractViolationError(
                f"states are not mutually orthogonal (max overlap {off:.3e})"
            )

    def total_dimension(self) -> int:
        return int(np.prod(self.dims))


def _require_canonical(circuit: Circuit) -> None:
    n = len(circuit.dims)
    try:
        reference = canonical_circuit(n, circuit.dims)
    except Exception as exc:
        raise ContractViolationError(f"not a canonical circuit: {exc}") from exc
    if set(circuit.gates) != set(reference.gates):
        raise ContractViolationError(
            "circuit gates differ from the canonical n-gate construction"
        )


def extract_upb(circuit: Circuit, excluded_dft_index=None) -> Upb:
    """Extract the minimal-size stopper-completed set of a canonical circuit.

    For each gate, keep the generated states whose target factor is a
    dual-basis ket DFT(k) with k different from the excluded index of the
    target party (the controls sit at their canonical values), then append
    the stopper state made of the excluded dual-basis ket on every party.
    The default excluded index is d_j - 1 on each party.

    The result always meets the minimal UPB size bound and is mutually
    orthogonal.  It is genuinely unextendible when every party is a qubit;
    once any local dimension reaches 3, ``is_unextendible`` finds a product
    witness (one party absorbs all but one of the foreign families through
    their control values, the left-out family dies on its own excluded
    dual-basis ket, and a third party kills the remaining family plus the
    stopper with two directions).
    """
    _require_canonical(circuit)
    dims = circuit.dims
    n = len(dims)
    excluded = {p: dims[p] - 1 for p in range(n)}
    if excluded_dft_index:
        for p, k in dict(excluded_dft_index).items():
            p = int(p)
            k = int(k)
            if not 0 <= p < n:
                raise ContractViolationError(f"excluded index names unknown party {p}")
            if not 0 <= k < dims[p]:
                raise ContractViolationError(
                    f"excluded index {k} out of range for party dimension {dims[p]}"
                )
            excluded[p] = k
    inputs = []
    for gate in circuit.gates:
        t = gate.target
        controls = gate.control_map
        for k in range(dims[t]):
            if k == excluded[t]:
                continue
            cb_input = [0] * n
            for p, v in controls.items():
                cb_input[p] = v
            cb_input[t] = k
            inputs.append(cb_input)
    members = list(images(circuit, np.array(inputs)).states())
    members.append(ProductState(tuple(DFT(excluded[p]) for p in range(n)), dims))
    return Upb.from_states(members, dims, stopper_index=len(members) - 1)


@dataclass
class ExtendibilityResult:
    """The decision and the search's counters.

    ``assignments_covered`` counts the complete member->party assignments
    the search reached or ruled out (pruned at a full-rank party or skipped
    at a state known to fail); on an unextendible set it equals
    ``assignment_bound``, n^m.  ``nodes_visited`` counts the (member, party)
    placements tried, so it falls when failed states are skipped while the
    verdict, the covered count and the witness stay those of the plain
    search.
    """

    extendible: bool
    assignments_covered: int
    assignment_bound: int
    nodes_visited: int
    witness_assignment: tuple | None = None
    witness_state: ProductState | None = None


def _state_bytes(factors: LocalFactors) -> int:
    """Bytes one recorded failed state can hold: its (n + 1)-tuple, an int
    object per entry as wide as the widest party mask or member index, and
    four set slots (a set is at most 60 % full and grows by up to four
    times)."""
    bits = max([len(kept) for kept in factors.factors] + [len(factors).bit_length()])
    n = len(factors.dims)
    return sys.getsizeof((0,) * (n + 1)) + (n + 1) * sys.getsizeof((1 << bits) - 1) + 64


def _search(factors: LocalFactors, dims, tol):
    """Depth-first search over member->party assignments.

    ``factors`` holds the members' interned local factors.  Each party
    keeps the mask of the factor ids assigned to it, whose span stays below
    the local dimension; assigning member i to party j is pruned iff the
    rank of the mask with its id added reaches d_j.  Ranks are memoised per
    (party, mask) and come from ``span_dimension`` on the masked factors in
    id order.  Returns (witness assignment or None, assignments covered,
    nodes visited).  Covered counts complete assignments either reached or
    ruled out, so an unextendible input always covers the full n^m bound;
    nodes counts the (member, party) placements tried.

    Whether the members from i on can be placed depends only on the state
    (i, masks).  Once every party has been tried for member i, the state is
    recorded as failed; a later placement that arrives at a recorded state
    covers its n^(m - i) completions and is undone at once.  Only subtrees
    already known to fail are skipped, so the visiting order, the witness
    (the lexicographically least assignment) and the covered count are
    those of the plain search.  The failed states are held to
    ``linalg.DENSE_BYTES_BUDGET`` (``_state_bytes`` each); once it is full
    no more are recorded and the search goes on without them.

    The search runs on an explicit stack, so its depth (one level per
    member) is not bounded by the interpreter's recursion limit.
    """
    ids = factors.ids.tolist()
    m = len(ids)
    n = len(dims)
    memo = [{} for _ in range(n)]
    masks = [0] * n
    assignment = []  # party chosen for each member placed so far
    saved = []  # the mask each placement replaced, restored on backtrack
    failed = set()  # (i, *masks) states from which no completion succeeds
    room = linalg.DENSE_BYTES_BUDGET // _state_bytes(factors)
    covered = 0
    nodes = 0
    j = 0  # next party to try for member len(assignment)
    while True:
        i = len(assignment)
        if i == m:
            return tuple(assignment), covered + 1, nodes
        if j == n:
            # every party tried for member i: backtrack to member i - 1
            if not assignment:
                return None, covered, nodes
            if len(failed) < room:
                failed.add((i, *masks))
            j = assignment.pop()
            masks[j] = saved.pop()
            j += 1
            continue
        nodes += 1
        grown = masks[j] | 1 << ids[i][j]
        rank = memo[j].get(grown)
        if rank is None:
            picked = [v for k, v in enumerate(factors.vectors[j]) if grown >> k & 1]
            rank = memo[j][grown] = span_dimension(picked, tol)
        if rank >= dims[j]:
            # party j would be fully spanned: no product state can be
            # orthogonal there, so every completion of this branch fails
            covered += n ** (m - i - 1)
            j += 1
            continue
        saved.append(masks[j])
        masks[j] = grown
        if (i + 1, *masks) in failed:
            # member i + 1 arrives at a state already known to fail
            covered += n ** (m - i - 1)
            masks[j] = saved.pop()
            j += 1
            continue
        assignment.append(j)
        j = 0


def _witness_state(members: LocalFactors, dims, witness, tol) -> ProductState:
    """Orthogonal product witness for a successful assignment, checked on
    its own: its overlap with every member, the product of the local
    overlaps, must be at most ``tol``."""
    local = [
        [members.vectors[j][k] for j, k in enumerate(row)] for row in members.ids.tolist()
    ]
    factors = []
    for j, d in enumerate(dims):
        assigned = [row[j] for row, p in zip(local, witness) if p == j]
        comp = orthogonal_complement_basis(assigned, d, tol)
        if not comp:
            raise ContractViolationError(
                f"witness assignment {witness} leaves party {j} no orthogonal "
                f"direction at tolerance {tol:g}"
            )
        factors.append(comp[0])
    for i, row in enumerate(local):
        overlap = float(np.prod([abs(np.vdot(w, v)) for w, v in zip(factors, row)]))
        if not overlap <= tol:
            raise ContractViolationError(
                f"witness for assignment {witness} overlaps member {i} "
                f"by {overlap:.3e}, above tolerance {tol:g}"
            )
    return ProductState(tuple(Dense(f) for f in factors), dims)


def extendibility_search(members, dims, tol=None) -> ExtendibilityResult:
    """Decide whether a set of orthogonal product states is extendible.

    ``members`` is the set's ``LocalFactors`` table, or its ``ProductState``
    members in order, which are interned first.

    When extendible, the result carries the lexicographically least
    successful assignment and an orthogonal product witness built from the
    per-party complements of the assigned factors; the witness is checked
    against every member before it is returned.  The tolerance must be below
    1/sqrt(d) for the largest local dimension d, else ``PreconditionError``.
    """
    dims = tuple(int(d) for d in dims)
    tol = tolerance(tol)
    d_max = max(dims, default=1)
    if not tol < 1 / math.sqrt(d_max):
        # the witness's complement sweep keeps computational basis vectors
        # whose residual exceeds tol; while the complement is incomplete the
        # squared residuals sum to at least 1, so one is >= 1/sqrt(d), but
        # none need be larger
        raise PreconditionError(
            f"tolerance {tol:g} must be below 1/sqrt({d_max}) on a "
            f"{d_max}-dimensional party"
        )
    if not isinstance(members, LocalFactors):
        members = LocalFactors.from_states(members, dims)
    witness, covered, nodes = _search(members, dims, tol)
    result = ExtendibilityResult(
        extendible=witness is not None,
        assignments_covered=covered,
        assignment_bound=len(dims) ** len(members),
        nodes_visited=nodes,
        witness_assignment=witness,
    )
    if witness is not None:
        result.witness_state = _witness_state(members, dims, witness, tol)
    return result


def is_unextendible(upb: Upb, tol=None) -> VerificationReport:
    """Exhaustively decide unextendibility of a UPB candidate.

    The report passes iff no member->party assignment leaves every party's
    assigned span below its local dimension.  When a witness assignment
    exists it is attached, together with an orthogonal product state, under
    ``extras``.
    """
    if len(upb) >= upb.total_dimension():
        raise PreconditionError("set already spans the full space; nothing to extend")
    res = extendibility_search(upb.table, upb.dims, tol=tol)
    report = VerificationReport()
    if res.extendible:
        detail = (
            f"extendible, {res.assignments_covered} assignments examined; "
            f"witness assignment {res.witness_assignment}"
        )
    else:
        detail = (
            f"unextendible, {res.assignments_covered} assignments examined "
            f"(pre-pruning bound)"
        )
    report.add(
        "unextendible",
        not res.extendible,
        residual=float(res.assignments_covered),
        detail=detail,
    )
    report.extras["result"] = res
    if res.witness_state is not None:
        report.extras["witness_state"] = res.witness_state
        report.extras["witness_assignment"] = res.witness_assignment
    return report
