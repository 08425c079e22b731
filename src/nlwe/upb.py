"""Unextendible product bases: extraction from canonical circuits and the
exhaustive extendibility decision.

A product basis is extendible iff some assignment of members to parties
leaves, at every party, the span of the assigned local factors strictly
below the local dimension; the assigned party is the one whose factor must
kill any new orthogonal product state.  The search enumerates assignments
depth-first (members in listed order, parties ascending) and prunes a branch
as soon as one party's assigned factors span its whole local space.

The search runs on the set itself, a ``states.LocalFactors`` table (equal
factors share one id at a party; dense factors are equal when their
entries are bit-identical), so a party's assigned factors are an integer
mask over a handful of ids.  The span rank of each (party, mask) pair is
computed once per search, by ``linalg.span_dimension`` (singular values above tol of the
masked factors in id order), and looked up at every later node.

That rank never falls when factors are added, so whether the remaining
members can be placed depends only on the masks, not on the next member
(see ``_search``).  The search remembers the mask tuples from which every
completion failed and skips a subtree that arrives at one, within
``linalg.DENSE_BYTES_BUDGET``; with the set full it records no more and
stays exact, only slower.  While the set has room, the work is bounded
by the members times the reachable mask tuples, not by n^m.  The first
successful assignment is the lexicographically least.  Its product
witness, a one-row set of ``Dense`` factors, is each party's complement
of the masked rows that the search ranked, checked against every member
before it is reported.
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
from .states import DFT, Dense, LocalFactors, check_factor

UPB_ORTHOGONALITY_TOL = 1e-10


def minimal_size(dims) -> int:
    """Smallest possible UPB size on the given local dimensions."""
    return sum(int(d) - 1 for d in dims) + 1


@dataclass(frozen=True, eq=False)
class Upb(LocalFactors):
    """Stopper-completed orthogonal product set meeting the minimal UPB size.

    Construction enforces mutual orthogonality (checked from the local
    overlaps), the size bound sum(d_j - 1) + 1 <= m < D, and a valid
    stopper position.  Whether the set is actually unextendible is a
    property to verify with ``is_unextendible``, not an invariant of the
    container.
    """

    stopper_index: int

    def __post_init__(self):
        dims = self.dims
        m = len(self)
        total = math.prod(dims)
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
        off = self.gram_extremes()[1]
        if not off <= UPB_ORTHOGONALITY_TOL:
            raise ContractViolationError(
                f"states are not mutually orthogonal (max overlap {off:.3e})"
            )


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
    The default excluded index is d_j - 1 on each party.  The set is the
    table of the inputs' images (``circuit.images``) plus the stopper row,
    which takes the excluded ket's id at each party, or the next id.  Each
    party's table of distinct factors is held to the dense budget before
    any input row is built.

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
    excluded = [d - 1 for d in dims]
    for p, k in dict(excluded_dft_index or {}).items():
        p = int(p)
        k = int(k)
        if not 0 <= p < n:
            raise ContractViolationError(f"excluded index names unknown party {p}")
        if not 0 <= k < dims[p]:
            raise ContractViolationError(
                f"excluded index {k} out of range for party dimension {dims[p]}"
            )
        excluded[p] = k
    for d in dims:
        # every party carries all d dual-basis kets: d - 1 from the gate
        # that targets it, plus the stopper's excluded one
        linalg.require_dense_budget(d, d, "the local factor table")
    inputs = []
    for gate in circuit.gates:
        t = gate.target
        cb_input = [0] * n
        for p, v in gate.controls:
            cb_input[p] = v
        for k in range(dims[t]):
            if k != excluded[t]:
                cb_input[t] = k
                inputs.append(list(cb_input))
    factors, ids = images(circuit, np.array(inputs))
    stopper = []
    for kept, k in zip(factors, excluded):
        if DFT(k) not in kept:
            kept.append(DFT(k))
        stopper.append(kept.index(DFT(k)))
    ids = np.vstack([ids, stopper])
    return Upb(dims, factors, ids, stopper_index=len(ids) - 1)


@dataclass
class ExtendibilityResult:
    """The decision and the search's counters.

    ``assignments_covered`` counts the complete member->party assignments
    the search reached or ruled out (pruned at a full-rank party or skipped
    at party masks known to fail); on an unextendible set it equals n^m.
    ``nodes_visited`` counts the (member, party) placements tried, so it
    falls when failed masks are skipped while the verdict, the covered
    count and the witness stay those of the plain search.
    """

    extendible: bool
    assignments_covered: int
    nodes_visited: int
    witness_assignment: tuple | None = None
    witness_state: LocalFactors | None = None


def _state_bytes(factors: LocalFactors) -> int:
    """Bytes one recorded failed state can hold: its n-tuple of party masks,
    an int object per entry as wide as the widest mask, and four set slots
    (a set is at most 60 % full and grows by up to four times)."""
    bits = max((len(kept) for kept in factors.factors), default=0)
    n = len(factors.dims)
    return sys.getsizeof((0,) * n) + n * sys.getsizeof((1 << bits) - 1) + 64


def _search(factors: LocalFactors, tol):
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

    Whether the members from i on can be placed depends only on the party
    masks, not on i.  The code relies on one condition: a rank never falls
    when factors are added to a mask, which holds because ``span_dimension``
    counts singular values above tol, and adding a vector lowers none of
    them (Cauchy interlacing).  Say the state (i, masks) fails, i.e. no
    placement of members i..m-1 succeeds from it, and the search arrives at
    (i', masks).  If i' > i, each of members i..i'-1 sits in a party whose
    mask already holds its factor, so those placements lead from (i, masks)
    to (i', masks) without changing a mask, and a success from (i', masks)
    would be one from (i, masks).  If i' < i, a success from (i', masks)
    ends with masks M that contain masks; placing members i..m-1 as it
    does reaches only masks inside M, whose ranks are at most those of M
    and so below d_j, which again is a success from (i, masks).  So once
    every party has been tried for member i, ``tuple(masks)`` is recorded
    as failed, and a later placement that arrives at recorded masks covers
    its n^(m - i - 1) completions and is undone at once.  Only subtrees
    already known to fail are skipped, so the visiting order, the witness
    (the lexicographically least assignment) and the covered count are
    those of the plain search.  The failed states are held to
    ``linalg.DENSE_BYTES_BUDGET`` (``_state_bytes`` each); once it is full
    no more are recorded and the search goes on without them.

    The search runs on an explicit stack, so its depth (one level per
    member) is not bounded by the interpreter's recursion limit.
    """
    dims = factors.dims
    ids = factors.ids.tolist()
    m = len(ids)
    n = len(dims)
    memo = [{} for _ in range(n)]
    masks = [0] * n
    assignment = []  # party chosen for each member placed so far
    saved = []  # the mask each placement replaced, restored on backtrack
    failed = set()  # mask tuples from which no completion succeeds
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
                failed.add(tuple(masks))
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
        if tuple(masks) in failed:
            # member i + 1 arrives at masks already known to fail
            covered += n ** (m - i - 1)
            masks[j] = saved.pop()
            j += 1
            continue
        assignment.append(j)
        j = 0


def _witness_state(members: LocalFactors, witness, tol) -> LocalFactors:
    """Orthogonal product witness for a successful assignment, as a one-row
    set of ``Dense`` factors: at party j, the first vector of the
    complement of the distinct factors that the assignment gives party j,
    in id order, i.e. of the rows whose rank the search found below d_j.
    It is checked on its own: each factor must be a unit vector
    (``check_factor``), and each member's overlap with it, the product of
    the local overlaps at the member's ids, must be at most ``tol``."""
    ids = members.ids
    parties = np.array(witness, dtype=np.intp)
    factors = []
    overlaps = np.ones(len(members))
    for j, (d, vectors) in enumerate(zip(members.dims, members.vectors)):
        assigned = sorted(set(ids[parties == j, j].tolist()))
        comp = orthogonal_complement_basis(vectors[assigned], d, tol)
        if not comp:
            raise ContractViolationError(
                f"witness assignment {witness} leaves party {j} no orthogonal "
                f"direction at tolerance {tol:g}"
            )
        factor = Dense(comp[0])
        check_factor(factor, d)
        factors.append([factor])
        overlaps *= np.abs(vectors.conj() @ factor.entries)[ids[:, j]]
    for i, overlap in enumerate(overlaps.tolist()):
        if not overlap <= tol:
            raise ContractViolationError(
                f"witness for assignment {witness} overlaps member {i} "
                f"by {overlap:.3e}, above tolerance {tol:g}"
            )
    return LocalFactors(members.dims, factors, np.zeros((1, len(factors)), dtype=np.intp))


def extendibility_search(members: LocalFactors) -> ExtendibilityResult:
    """Decide whether a set of orthogonal product states is extendible.

    ``members`` is a ``LocalFactors`` set (a ``Upb`` among them); the
    search and the witness read its dims, ids and distinct factors.

    When extendible, the result carries the lexicographically least
    successful assignment and an orthogonal product witness built from the
    per-party complements of the assigned distinct factors; the witness is
    checked against every member before it is returned.  The tolerance
    (``config.tolerance``) must be below 1/sqrt(d) for the largest local
    dimension d, else ``PreconditionError``.
    """
    dims = members.dims
    tol = tolerance()
    d_max = max(dims, default=1)
    if not tol < 1 / math.sqrt(d_max):
        # the witness is checked by its overlaps against tol; from
        # 1/sqrt(d) on that check means nothing, as the uniform superposition
        # overlaps each vector of a whole orthonormal basis by only 1/sqrt(d)
        raise PreconditionError(
            f"tolerance {tol:g} must be below 1/sqrt({d_max}) on a "
            f"{d_max}-dimensional party"
        )
    witness, covered, nodes = _search(members, tol)
    result = ExtendibilityResult(
        extendible=witness is not None,
        assignments_covered=covered,
        nodes_visited=nodes,
        witness_assignment=witness,
    )
    if witness is not None:
        result.witness_state = _witness_state(members, witness, tol)
    return result


def is_unextendible(upb: Upb) -> VerificationReport:
    """Exhaustively decide unextendibility of a UPB candidate.

    The report passes iff no member->party assignment leaves every party's
    assigned span below its local dimension.  When a witness assignment
    exists, the detail names it; ``extendibility_search`` returns it with
    an orthogonal product state.
    """
    res = extendibility_search(upb)
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
    return report
