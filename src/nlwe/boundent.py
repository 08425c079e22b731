"""Bound-entangled states on UPB complements, PPT verification, and the
separability completion across single-party cuts.

The state is the uniform mixture on the orthogonal complement of a UPB.  Its
complement contains no product state (that is the UPB property), so the
state is entangled; at the same time every bipartition has positive partial
transpose, and when the circuit dimensions are saturated (n = d+1 parties of
dimension d) each d x d^d cut even admits an explicit completion of the UPB
to a full orthogonal product basis, certifying zero entanglement there
(Bennett et al., PRL 82, 5385 (1999); DiVincenzo et al., CMP 238, 379
(2003)).  The completion follows one rule for every member whose factor on
the singled party is a computational or dual-basis ket (see
``separability_completion``) and is certified only by its size and its
Gram deviation.  Its Gram matrix is formed from arrays (``_cut_gram``): the
singled party's local overlap table times the Gram matrix of the D rest
vectors, entry by entry.  Members are rendered from the UPB's id table
(``LocalFactors.dense``): whole for the exported mixture, at the other
parties for the completion's rest vectors.

The state's rows are certified from the set's Gram extremes, with no
spectrum and no D x D array (``DensityMatrix``).  For m members in
dimension D, rho = (I - P)/(D - m) with P the sum of the members'
projectors.  Take delta_d = max_i |G_ii - 1| and delta_o =
max_{i != j} |G_ij| for the members' Gram matrix G
(``LocalFactors.gram_extremes``, one walk over the members' trie) and
eps = delta_d + (m - 1) delta_o, Gershgorin's bound on |lambda - 1| for
every eigenvalue lambda of G.  P has G's nonzero eigenvalues, so rho has
m eigenvalues (1 - lambda)/(D - m), each within ``spread`` = eps/(D - m)
of 0, and D - m eigenvalues 1/(D - m), on the complement of the members'
span.  Transposing the parties of a cut S maps each member's projector to
the projector onto the member with its S factors conjugated, whose Gram
matrix has G's entry moduli (Bennett et al.), so one eps bounds every
cut: the partial transpose's least eigenvalue is at least -``spread``.
Likewise |tr rho - 1| = |sum_i G_ii - m|/(D - m) <= m delta_d/(D - m),
and <psi_k|rho|psi_k> = (G_kk - sum_i |G_ik|^2)/(D - m) is at most
(delta_d (1 + delta_d) + (m - 1) delta_o^2)/(D - m) in modulus.  A row
whose bound misses its tolerance fails as "not certified by the Gram
bound", with the bound; it never passes or fails on its own.  The D x D
mixture is formed only for export (``DensityMatrix.matrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import EIGENVALUE_SIGN_TOL, tolerance
from .errors import ContractViolationError, UnsupportedShapeError
from .linalg import orthogonal_complement_basis, require_dense_budget
from .report import VerificationReport, cut_label, party_label
from .states import CB, DFT, LocalFactors
from .upb import Upb, extendibility_search

TRACE_TOL = 1e-10
RANK_EIGENVALUE_THRESHOLD = 1e-8
MEMBER_ANNIHILATION_TOL = 1e-12
COMPLETION_GRAM_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """The uniform mixture (I - P)/(D - m) on the complement of the m
    members of a product set, held as the set and its Gram extremes:
    ``diagonal`` = max_i |G_ii - 1| and ``offdiagonal`` = max_{i != j}
    |G_ij| (``LocalFactors.gram_extremes``).  A set of D or more members
    has no complement (``ContractViolationError``).  ``matrix`` forms the
    D x D array on first use, for export only."""

    members: LocalFactors
    diagonal: float = field(init=False)
    offdiagonal: float = field(init=False)

    def __post_init__(self):
        m, total = len(self.members), math.prod(self.dims)
        if not m < total:
            raise ContractViolationError(
                f"{m} members leave no complement in dimension {total}"
            )
        diagonal, offdiagonal = self.members.gram_extremes()
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "offdiagonal", offdiagonal)

    @property
    def dims(self) -> tuple:
        return self.members.dims

    @property
    def rest(self) -> int:
        """D - m, the complement's dimension."""
        return math.prod(self.dims) - len(self.members)

    @property
    def spread(self) -> float:
        """eps/(D - m): every eigenvalue of rho, and of each partial
        transpose, other than its D - m eigenvalues 1/(D - m) lies within
        this of 0."""
        return (self.diagonal + (len(self.members) - 1) * self.offdiagonal) / self.rest

    @cached_property
    def matrix(self) -> np.ndarray:
        """The D x D mixture, made Hermitian, from the members' rendering
        (``LocalFactors.dense``); held to the dense budget."""
        total = math.prod(self.dims)
        require_dense_budget(total, total, "the complement mixture")
        proj = np.zeros((total, total), dtype=complex)
        for v in self.members.dense():
            proj += np.outer(v, v.conj())
        rho = (np.eye(total, dtype=complex) - proj) / self.rest
        return (rho + rho.conj().T) / 2


def be_state(upb: Upb) -> DensityMatrix:
    """Uniform mixture on the complement of a UPB.

    The input must actually be unextendible, otherwise the entanglement
    conclusion would not follow and a contract error is raised.  A set
    whose exported D x D mixture would exceed the dense budget is refused
    first, before the search.
    """
    total = math.prod(upb.dims)
    require_dense_budget(total, total, "the complement mixture")
    res = extendibility_search(upb)
    if res.extendible:
        raise ContractViolationError(
            "input set is extendible; the complement mixture need not be entangled"
        )
    return DensityMatrix(upb)


def state_rank(rho: DensityMatrix) -> int | None:
    """The number of eigenvalues above ``RANK_EIGENVALUE_THRESHOLD``, D - m,
    where the Gram bound proves it (``spread`` below the threshold, and
    1/(D - m) above it); None where it does not."""
    if rho.spread < RANK_EIGENVALUE_THRESHOLD < 1 / rho.rest:
        return rho.rest
    return None


def member_annihilation(rho: DensityMatrix) -> float:
    """Bound on max_i |<psi_i| rho |psi_i>| over the members (it should
    vanish): (delta_d (1 + delta_d) + (m - 1) delta_o^2)/(D - m)."""
    m = len(rho.members)
    return (rho.diagonal * (1 + rho.diagonal) + (m - 1) * rho.offdiagonal**2) / rho.rest


def _bounded(report: VerificationReport, name: str, certified: bool, bound: float,
             detail: str, residual: float | None) -> None:
    """One row certified by a Gram bound: ``detail`` when it is, and
    otherwise a failing row that names the bound."""
    if not certified:
        detail = f"not certified by the Gram bound, bound {bound:.3e}"
    report.add(name, certified, residual=residual, detail=detail)


def state_report(rho: DensityMatrix) -> VerificationReport:
    """The trace, rank and annihilation rows, each from the Gram bound:
    |tr rho - 1| <= m delta_d/(D - m) within ``TRACE_TOL``, the rank D - m
    (``state_rank``) and ``member_annihilation`` within
    ``MEMBER_ANNIHILATION_TOL``."""
    report = VerificationReport()
    trace = len(rho.members) * rho.diagonal / rho.rest
    _bounded(report, "trace", trace <= TRACE_TOL, trace,
             "Gram bound on the deviation of trace from 1", trace)
    rank = state_rank(rho)
    _bounded(report, "rank", rank is not None, rho.spread,
             f"complement rank from the Gram bound (expected {rho.rest})",
             None if rank is None else float(rank))
    annihilation = member_annihilation(rho)
    _bounded(report, "annihilation", annihilation <= MEMBER_ANNIHILATION_TOL, annihilation,
             "Gram bound on max <psi|rho|psi> over members", annihilation)
    return report


def bipartitions(n: int):
    """All 2^(n-1) - 1 bipartitions, each as the subset containing party 0."""
    cuts = []
    for mask in range(1, 2**n - 1):
        if mask & 1:
            cuts.append(tuple(p for p in range(n) if mask & (1 << p)))
    return cuts


def ppt_report(rho: DensityMatrix) -> VerificationReport:
    """A lower bound on the least partial-transpose eigenvalue for every
    bipartition: -``spread``, the same on every cut.  A cut passes iff the
    bound is >= -EIGENVALUE_SIGN_TOL."""
    n = len(rho.dims)
    low = 0.0 - rho.spread  # 0.0 rather than -0.0 for an exact set
    report = VerificationReport()
    for subset in bipartitions(n):
        _bounded(report, f"ppt[{cut_label(subset, n)}]", low >= -EIGENVALUE_SIGN_TOL, low,
                 "Gram bound on the min eigenvalue of the partial transpose", low)
    return report


def separability_completion(upb: Upb, singled_party: int) -> tuple[list, np.ndarray, float]:
    """Complete the UPB to a full orthogonal product basis across the cut
    singled_party | rest.  Requires the saturated shape: n = d+1 parties,
    all of dimension d.  Returns the singled-party kets, the D x d^d stack
    of rest vectors (the other parties in ascending order) and the
    completed basis's Gram deviation; state i is kets[i] (x) rests[i], and
    the first m states are the input members regrouped across the cut.

    Every member must carry a computational ket |c> or a dual-basis ket
    F|k> on the singled party s; r_i is member i's rest vector
    (``upb.dense`` at the other parties) and R_F the span of the rest
    vectors of the F|k> members.  As |<c|F k>| = 1/sqrt(d), a |c> member is
    orthogonal to an F|k> member only through its rest vector, so every |c>
    rest lies in the complement of R_F.  The completion is the members
    regrouped as (f_s, r_i), in member order, then for each c the kets
    |c> (x) w with w spanning the complement of the |c> rests and R_F, then
    for each k the kets F|k> (x) u with u spanning the complement of the
    F|k> rests and R_F's own complement, i.e. R_F minus the F|k> rests.
    The members are grouped by their ids at s, in first-seen order.  The
    result is certified by its size D and the largest entry of |G - I|, G
    its Gram matrix (``_cut_gram``); a dense factor on s is a contract
    violation.
    """
    dims = upb.dims
    n = len(dims)
    d = dims[0]
    if any(dj != d for dj in dims) or n != d + 1:
        raise UnsupportedShapeError(
            f"completion needs n = d+1 equal dimensions, got dims {dims}"
        )
    total = d ** (d + 1)
    # the largest array formed: the Gram matrix of the certificate
    require_dense_budget(total, total, "the completed basis's Gram matrix")
    s = int(singled_party)
    if not 0 <= s < n:
        raise ContractViolationError(f"singled party {s} outside 0..{n - 1}")
    tol = tolerance()

    ids = upb.ids[:, s]
    kets = [upb.factors[s][k] for k in ids.tolist()]
    for i, ket in enumerate(kets):
        if not isinstance(ket, (CB, DFT)):
            raise ContractViolationError(
                f"member {i} has a dense factor on party {party_label(s)}; "
                "the completion needs a computational or dual-basis ket there"
            )
    member_rests = upb.dense([p for p in range(n) if p != s])
    by_ket = {upb.factors[s][k]: list(member_rests[ids == k]) for k in dict.fromkeys(ids.tolist())}

    dual_rests = [r for ket, rs in by_ket.items() if isinstance(ket, DFT) for r in rs]
    dual_perp = orthogonal_complement_basis(dual_rests, d**d, tol)
    added = [(CB(c), dual_rests) for c in range(d)] + [(DFT(k), dual_perp) for k in range(d)]
    rests = list(member_rests)
    for ket, against in added:
        for w in orthogonal_complement_basis(by_ket.get(ket, []) + against, d**d, tol):
            kets.append(ket)
            rests.append(w)

    if len(kets) != total:
        raise ContractViolationError(
            f"completion produced {len(kets)} states, expected {total}"
        )
    rests = np.array(rests)
    g = _cut_gram(d, kets, rests)
    g[np.diag_indices(total)] -= 1.0
    deviation = float(np.max(np.abs(g)))
    if not deviation <= COMPLETION_GRAM_TOL:
        raise ContractViolationError(
            f"completed basis is not orthonormal (Gram deviation {deviation:.3e})"
        )
    return kets, rests, deviation


def _cut_gram(d: int, kets, rests: np.ndarray) -> np.ndarray:
    """Gram matrix of the states kets[i] (x) rests[i], party of dimension d
    first: G = O[a][:, a] * (R* R^T) entry by entry, with O the local
    overlap table of the distinct kets (``LocalFactors.overlap_table``, an
    exact 0 between distinct kets of one basis), a each state's index into
    it and R the stack of rest vectors."""
    index = {ket: k for k, ket in enumerate(dict.fromkeys(kets))}
    a = np.array([index[ket] for ket in kets], dtype=np.intp)
    singled = LocalFactors((d,), [list(index)], a[:, None])
    g = rests.conj() @ rests.T
    g *= singled.overlap_table(0)[np.ix_(a, a)]
    return g


def separability_report(upb: Upb) -> VerificationReport:
    """Run the completion for every singled party; passes iff all succeed.

    An input outside the saturated shape raises ``UnsupportedShapeError``
    from the first completion."""
    n = len(upb.dims)
    report = VerificationReport()
    for s in range(n):
        label = cut_label({s}, n)
        try:
            kets, _, deviation = separability_completion(upb, s)
        except ContractViolationError as exc:
            report.add(f"completion[{label}]", False, detail=str(exc))
            continue
        report.add(
            f"completion[{label}]",
            True,
            residual=deviation,
            detail=f"{len(kets)} cut-product states, Gram deviation",
        )
    return report
