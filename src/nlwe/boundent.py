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
(``LocalFactors.dense``): whole for the mixture and the annihilation
check, at the other parties for the completion's rest vectors.

Each matrix is diagonalised once: ``DensityMatrix`` keeps the spectrum of
rho that its positivity gate computed, ``state_rank`` reads it, and
``ppt_report`` diagonalises each partial transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import EIGENVALUE_SIGN_TOL, tolerance
from .errors import ContractViolationError, UnsupportedShapeError
from .linalg import (
    hermitian_eigenvalues,
    orthogonal_complement_basis,
    partial_transpose,
    require_dense_budget,
)
from .report import VerificationReport, cut_label, party_label
from .states import CB, DFT, LocalFactors
from .upb import Upb, extendibility_search

RANK_EIGENVALUE_THRESHOLD = 1e-8
MEMBER_ANNIHILATION_TOL = 1e-12
COMPLETION_GRAM_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix tagged with the
    tensor-factor dimensions.  Positivity is checked down to -1e-10; the
    ascending spectrum computed for that check is kept as ``eigenvalues``.
    A NaN or infinite entry is rejected first."""

    matrix: np.ndarray
    dims: tuple
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)
        total = math.prod(dims)
        if mat.shape != (total, total):
            raise ContractViolationError(
                f"matrix shape {mat.shape} does not match dims {dims}"
            )
        if not np.all(np.isfinite(mat)):
            raise ContractViolationError("matrix has a non-finite entry")
        herm = float(np.max(np.abs(mat - mat.conj().T), initial=0.0))
        if not herm <= 1e-12:
            raise ContractViolationError(f"matrix not Hermitian within 1e-12 ({herm:.3e})")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= 1e-10:
            raise ContractViolationError(f"trace {tr} deviates from 1 beyond 1e-10")
        evals = hermitian_eigenvalues(mat)
        object.__setattr__(self, "eigenvalues", evals)
        low = float(evals[0])
        if not low >= -EIGENVALUE_SIGN_TOL:
            raise ContractViolationError(
                f"matrix has a negative eigenvalue ({low:.3e})"
            )


def be_state(upb: Upb) -> DensityMatrix:
    """Uniform mixture on the complement of a UPB.

    The input must actually be unextendible, otherwise the entanglement
    conclusion would not follow and a contract error is raised.
    """
    total = math.prod(upb.dims)
    require_dense_budget(total, total, "the complement mixture")
    res = extendibility_search(upb)
    if res.extendible:
        raise ContractViolationError(
            "input set is extendible; the complement mixture need not be entangled"
        )
    m = len(upb)
    proj = np.zeros((total, total), dtype=complex)
    for v in upb.dense():
        proj += np.outer(v, v.conj())
    rho = (np.eye(total, dtype=complex) - proj) / (total - m)
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho, upb.dims)


def state_rank(rho: DensityMatrix) -> int:
    """Number of eigenvalues above ``RANK_EIGENVALUE_THRESHOLD``."""
    return int(np.sum(rho.eigenvalues > RANK_EIGENVALUE_THRESHOLD))


def member_annihilation(rho: DensityMatrix, upb: Upb) -> float:
    """max_i <psi_i| rho |psi_i> over the UPB members (should vanish)."""
    return max((abs(complex(v.conj() @ rho.matrix @ v)) for v in upb.dense()), default=0.0)


def bipartitions(n: int):
    """All 2^(n-1) - 1 bipartitions, each as the subset containing party 0."""
    cuts = []
    for mask in range(1, 2**n - 1):
        if mask & 1:
            cuts.append(tuple(p for p in range(n) if mask & (1 << p)))
    return cuts


def ppt_report(rho: DensityMatrix) -> VerificationReport:
    """Minimum partial-transpose eigenvalue for every bipartition.

    Passes iff every cut's minimum eigenvalue is >= -EIGENVALUE_SIGN_TOL.
    """
    n = len(rho.dims)
    report = VerificationReport()
    for subset in bipartitions(n):
        pt = partial_transpose(rho.matrix, rho.dims, subset)
        evals = hermitian_eigenvalues(pt)
        low = float(evals[0])
        report.add(
            f"ppt[{cut_label(subset, n)}]",
            low >= -EIGENVALUE_SIGN_TOL,
            residual=low,
            detail="min eigenvalue of the partial transpose",
        )
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
