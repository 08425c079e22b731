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
the number of singular values above tol of the masked factors in id order;
it is found once per search and looked up at every later node.  A mask
that holds only computational (CB) and dual-basis (DFT) kets (the table's
``masks``, which its construction checked to be distinct kets with
indices in range) has its rank counted, with no SVD, where a bound proves
the count (``_certified``); every other mask is ranked by the singular
values of the masked rows of the party's rendered factors, normalised once
per search (``linalg.unit_rows``, ``linalg.unit_svd``).  A party is
rendered only for such a mask, so a set whose ranks are all counted
renders nothing.

That rank never falls when factors are added, so whether the remaining
members can be placed depends only on the masks, not on the next member
(see ``_search``).  The search remembers the mask tuples from which every
completion failed and skips a subtree that arrives at one, within
``linalg.DENSE_BYTES_BUDGET``; with the set full it records no more and
stays exact, only slower.  While the set has room, the work is bounded
by the members times the reachable mask tuples, not by n^m.  A member
whose failed placement left its party's mask as it was skips its later
parties, which can only fail too (the dominance rule, see ``_search``).
The first successful assignment is the lexicographically least.  Its product
witness is a one-row set.  At a party whose assigned factors are all CB,
all DFT or none, its factor is the lowest-index ket of that kind not
assigned, exactly orthogonal to them; at any other party it is a
``Dense`` factor, the first vector of the complement of the masked rows
that the search ranked.  The witness is checked against every member
before it is reported, each overlap a product of the table's local
overlaps (``LocalFactors.local_overlaps``).

``Upb`` runs the table's check first; its orthogonality gate reads only
``LocalFactors.max_overlap``, which renders a party only when it holds a
``Dense`` factor.  The kinds rule lives in ``states`` alone: this module
adds a rank bound (``_certified``) and the free ket of a kind
(``_free_ket``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .circuit import Circuit, images
from .config import tolerance
from .ensembles import canonical_gates
from .errors import ConstructionError, ContractViolationError, PreconditionError
from .linalg import orthogonal_complement_basis
from .report import VerificationReport, count_text
from .states import CB, DFT, Dense, LocalFactors

UPB_ORTHOGONALITY_TOL = 1e-10


def minimal_size(dims) -> int:
    """Smallest possible UPB size on the given local dimensions."""
    return sum(int(d) - 1 for d in dims) + 1


@dataclass(frozen=True, eq=False)
class Upb(LocalFactors):
    """Stopper-completed orthogonal product set meeting the minimal UPB size.

    Construction runs the table's check (``LocalFactors``), then enforces
    mutual orthogonality (checked from the local overlaps), the size bound
    sum(d_j - 1) + 1 <= m < D, and a valid stopper position.  Whether the
    set is actually unextendible is a property to verify with
    ``is_unextendible``, not an invariant of the container.
    """

    stopper_index: int

    def __post_init__(self):
        super().__post_init__()
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
        off = self.max_overlap()
        if not off <= UPB_ORTHOGONALITY_TOL:
            raise ContractViolationError(
                f"states are not mutually orthogonal (max overlap {off:.3e})"
            )


def require_upb_size(dims) -> None:
    """Refuse, as ``TooLargeError``, dims whose extraction's m x n id table
    (m = ``minimal_size(dims)``) would not fit the dense budget."""
    linalg.require_dense_budget(minimal_size(dims), len(dims), "the UPB's id table")


def _require_canonical(circuit: Circuit) -> None:
    """Require the circuit's gates to be the canonical ones on its dims,
    compared as (target, controls) pairs with no second circuit built."""
    n = len(circuit.dims)
    try:
        reference = canonical_gates(n, circuit.dims)
    except ConstructionError as exc:
        raise ContractViolationError(f"not a canonical circuit: {exc}") from exc
    if {(g.target, g.controls) for g in circuit.gates} != set(reference):
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
    which takes the excluded ket's id at each party, or the next id.  The
    m x n id table is held to the dense budget before any input row is
    built, as the canonical circuit holds each party's d x d table of
    distinct factors.

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
    # one row per input plus the stopper's; each party's d x d table of
    # distinct factors was held to the budget with the circuit
    require_upb_size(dims)
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


# the bound in ``_certified`` must beat tol^2 by this much, far above the
# rounding of the rendered kets and of LAPACK's singular values
_CERTIFIED_MARGIN = 1e-9


def _certified(d: int, a: int, b: int, tol: float) -> bool:
    """Whether a distinct CB kets and b distinct DFT kets of one d-dimensional
    party (indices in range) provably have rank min(d, a + b), i.e. that
    many singular values above tol; always so for orthonormal kets of one
    kind (a = 0 or b = 0, where a + b <= d and 0 < d (1 - tol^2 - margin)^2).

    The rows' Gram matrix is [[I, X], [X+, I]] with |X_kl| = |<k|F|l>| =
    1/sqrt(d), so its eigenvalues are 1 and 1 +- s for the singular values
    s of X, each at most ||X||_F = sqrt(ab/d): every squared singular value
    of the rows is at least 1 - sqrt(ab/d).  For a + b <= d the rank is
    a + b once that bound exceeds tol^2 + ``_CERTIFIED_MARGIN``, i.e.
    ab < d (1 - tol^2 - margin)^2.  For a + b > d it suffices that some
    sub-mask of a' <= a CB and b' <= b DFT kets with a' + b' = d is so
    certified: adding rows lowers no singular value (the interlacing the
    search relies on), so the mask has d singular values above tol, and it
    has at most d.  a'b' = a'(d - a') is concave in a', so the least one
    sits at an end of the range max(0, d - b) <= a' <= min(a, d), and a
    product of 0 is d orthonormal kets.
    """
    if a + b > d:
        a = min(max(0, d - b), min(a, d), key=lambda x: x * (d - x))
        b = d - a
    return a * b < d * (1 - tol * tol - _CERTIFIED_MARGIN) ** 2


def _mask_rank(mask: int, table: LocalFactors, p: int, tol, units: list) -> int:
    """Rank of party p's distinct factors in ``table`` named by ``mask``:
    the number of singular values above tol of their renderings in id
    order.  A mask of a CB and b DFT kets (``table.masks[p]``, distinct
    kets with indices in range) has rank min(d, a + b) where
    ``_certified`` proves it, as it does for every mask of one kind
    (orthonormal kets, rank a + b).  Any other mask, and every mask with a
    ``Dense`` id, is ranked by ``linalg.unit_svd`` on the masked rows of
    the party's rendered factors (``LocalFactors.rendered``) at unit norm,
    the very singular values ``span_dimension`` gives them; no counted
    mask renders the party.  ``units`` has a slot per party for its unit
    rows, None until they are made, so that a search normalises a party
    once; the search calls this once per (party, mask) it has not seen."""
    cb, dft = table.masks[p]
    if not mask & ~(cb | dft):
        a = (mask & cb).bit_count()
        b = (mask & dft).bit_count()
        d = table.dims[p]
        if _certified(d, a, b, tol):
            return min(d, a + b)
    if units[p] is None:
        units[p] = linalg.unit_rows(table.rendered(p))
    picked = [k for k in range(mask.bit_length()) if mask >> k & 1]
    return linalg.unit_svd(units[p][picked], tol)[0]


def _search(factors: LocalFactors, tol):
    """Depth-first search over member->party assignments.

    ``factors`` holds the members' interned local factors.  Each party
    keeps the mask of the factor ids assigned to it, whose span stays below
    the local dimension; assigning member i to party j is pruned iff the
    rank of the mask with its id added reaches d_j.  Ranks are memoised per
    (party, mask) and come from ``_mask_rank``: the singular values above
    tol of the masked factors in id order, counted without an SVD where
    ``_certified`` proves the count.  Returns (witness assignment or None,
    assignments covered, nodes visited).  Covered counts complete
    assignments either reached or ruled out, so an unextendible input
    always covers the full n^m bound; nodes counts the (member, party)
    placements tried.

    Whether the members from i on can be placed depends only on the party
    masks, not on i.  The code relies on one condition: a rank never falls
    when factors are added to a mask, which holds because a rank counts
    singular values above tol, and adding a vector lowers none of
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

    The same condition gives a dominance rule.  Say member i sat at party
    j with its factor already in masks[j], so that the placement changed no
    mask, and the branch failed: (i + 1, M) failed, M the masks from which
    member i was placed.  Placing member i at a later party j' > j leads to
    (i + 1, M') with M' containing M (only party j' grows), and a success
    from there would end at masks containing M; placing members i + 1..m-1
    as it does from (i + 1, M) reaches masks inside those, a success from
    (i + 1, M), which failed.  So every later party fails for member i: it
    is popped past them at once, their (n - 1 - j) n^(m - i - 1)
    completions counted as covered.  The test reads only masks[j] once it
    is restored on backtrack (``masks[j] >> ids[i][j] & 1``).  Again only
    failing subtrees are skipped, and the order, the witness and the
    covered count stay those of the plain search; only ``nodes`` falls.
    It holds with or without the failed-state set.

    The search runs on an explicit stack, so its depth (one level per
    member) is not bounded by the interpreter's recursion limit.
    """
    dims = factors.dims
    ids = factors.ids.tolist()
    m = len(ids)
    n = len(dims)
    memo = [{} for _ in range(n)]
    units = [None] * n  # each party's unit rows, for the masks an SVD ranks
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
            i -= 1
            j = assignment.pop()
            masks[j] = saved.pop()
            if masks[j] >> ids[i][j] & 1:
                # the placement changed no mask, so every later party for
                # member i fails too (the dominance rule): pop past them
                covered += (n - 1 - j) * n ** (m - i - 1)
                j = n
            else:
                j += 1
            continue
        nodes += 1
        grown = masks[j] | 1 << ids[i][j]
        rank = memo[j].get(grown)
        if rank is None:
            rank = memo[j][grown] = _mask_rank(grown, factors, j, tol, units)
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


def _free_ket(kind, taken, d: int):
    """The lowest-index ket of ``kind`` (``CB`` or ``DFT``) on a
    d-dimensional party that is not in ``taken``, or None."""
    return next((kind(i) for i in range(d) if kind(i) not in taken), None)


def _witness_factor(members: LocalFactors, j: int, assigned, tol):
    """Party j's witness factor, orthogonal to its ``assigned`` distinct
    factors (ids in ascending order), or None when there is no direction.

    Where the assigned factors are all CB, all DFT or none (read from
    ``members.masks[j]``), it is the lowest-index ket of that kind not
    assigned (``_free_ket``; ``CB(0)`` when none is), exactly orthogonal to
    each.  Any other party gets the first vector of the complement of the
    assigned rows, i.e. of the rows whose rank the search found below d_j,
    as a ``Dense`` factor."""
    d = members.dims[j]
    for bits, kind in zip(members.masks[j], (CB, DFT)):
        if all(bits >> k & 1 for k in assigned):
            return _free_ket(kind, {members.factors[j][k] for k in assigned}, d)
    comp = orthogonal_complement_basis(members.rendered(j)[assigned], d, tol)
    return Dense(comp[0]) if comp else None


def _witness_state(members: LocalFactors, witness, tol) -> LocalFactors:
    """Orthogonal product witness for a successful assignment, as a one-row
    set: at party j, ``_witness_factor`` of the distinct factors that the
    assignment gives party j.  It is checked on its own: the set's
    construction requires each factor to be a unit vector
    (``check_factor``), and each member's overlap with it, the product of
    the local overlaps at the member's ids (``LocalFactors.local_overlaps``),
    must be at most ``tol``."""
    ids = members.ids
    parties = np.array(witness, dtype=np.intp)
    factors = []
    for j in range(len(members.dims)):
        assigned = sorted(set(ids[parties == j, j].tolist()))
        factor = _witness_factor(members, j, assigned, tol)
        if factor is None:
            raise ContractViolationError(
                f"witness assignment {witness} leaves party {j} no orthogonal "
                f"direction at tolerance {tol:g}"
            )
        factors.append([factor])
    state = LocalFactors(members.dims, factors, np.zeros((1, len(factors)), dtype=np.intp))
    overlaps = np.ones(len(members))
    for j, (factor,) in enumerate(factors):
        overlaps *= np.array(members.local_overlaps(j, factor))[ids[:, j]]
    for i, overlap in enumerate(overlaps.tolist()):
        if not overlap <= tol:
            raise ContractViolationError(
                f"witness for assignment {witness} overlaps member {i} "
                f"by {overlap:.3e}, above tolerance {tol:g}"
            )
    return state


def extendibility_search(members: LocalFactors) -> ExtendibilityResult:
    """Decide whether a set of orthogonal product states is extendible.

    ``members`` is a ``LocalFactors`` set (a ``Upb`` among them); the
    search and the witness read its dims, ids and distinct factors.

    When extendible, the result carries the lexicographically least
    successful assignment and an orthogonal product witness built from the
    per-party free kets or complements of the assigned distinct factors
    (``_witness_factor``); the witness is checked against every member
    before it is returned.  The tolerance (``config.tolerance``) must be
    below 1/sqrt(d) for the largest local dimension d, else
    ``PreconditionError``.
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
    an orthogonal product state.  The residual is the covered assignment
    count as a float, or None past float range; the detail keeps the exact
    count.
    """
    res = extendibility_search(upb)
    report = VerificationReport()
    if res.extendible:
        detail = (
            f"extendible, {count_text(res.assignments_covered)} assignments examined; "
            f"witness assignment {res.witness_assignment}"
        )
    else:
        detail = (
            f"unextendible, {count_text(res.assignments_covered)} assignments examined "
            f"(pre-pruning bound)"
        )
    covered = res.assignments_covered
    report.add(
        "unextendible",
        not res.extendible,
        residual=float(covered) if covered <= sys.float_info.max else None,
        detail=detail,
    )
    return report
