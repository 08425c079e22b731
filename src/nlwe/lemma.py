"""Single-party measurement-branch checks.

A branch operator that keeps the computational basis orthogonal and the
dual basis orthogonal gains no information: its polar part must be unitary,
i.e. K†K is a multiple of the identity.  ``isotropy_dimension`` proves
that statement for one local dimension d: it is the dimension of the space
of matrices E that meet both orthogonality constraints, and E = K†K is one
of them, so a dimension of 1 (the multiples of the identity) leaves
K†K = c*1.  ``lemma_check`` tests the implication on one given operator.
The dual basis is fixed to the columns of the shared DFT convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import tolerance
from .errors import ContractViolationError, DimensionMismatchError
from .linalg import dft_matrix, require_dense_budget, span_dimension


def preserves_orthogonality(k: np.ndarray, basis) -> bool:
    """True iff the images of an orthonormal basis (its vectors, or the rows
    of a matrix) stay pairwise orthogonal, read off one Gram matrix of the
    images.

    Overlaps are evaluated on images rescaled by the largest image norm, so
    the answer is invariant under global rescaling of the operator; branches
    with (relatively) vanishing norm pass vacuously, and the zero operator is
    a degenerate pass.  Overlaps up to ``config.tolerance()`` count as 0.
    """
    tol = tolerance()
    k = np.asarray(k, dtype=complex)
    vecs = [np.asarray(b, dtype=complex) for b in basis]
    if any(v.shape != (k.shape[1],) for v in vecs):
        raise DimensionMismatchError("basis vectors do not match the operator dimension")
    images = np.reshape(vecs, (len(vecs), k.shape[1])) @ k.T  # row i is K|b_i>
    scale = float(np.max(np.linalg.norm(images, axis=1), initial=0.0))
    if scale == 0.0:
        return True
    overlaps = np.abs(images.conj() @ images.T)[np.triu_indices(len(vecs), 1)]
    return bool(np.all(overlaps / scale**2 <= tol))


@dataclass(frozen=True)
class LemmaCheck:
    constraints_hold: bool
    isotropy_residual: float


def lemma_check(k: np.ndarray) -> LemmaCheck:
    """Check both-basis orthogonality preservation and the isotropy residual.

    ``constraints_hold`` requires preservation on the computational basis
    and on the dual basis (the DFT columns).  ``isotropy_residual`` is the
    max entry of K†K - c*1 with c = trace(K†K)/d; the lemma predicts that
    the constraints force this residual down to numerical noise.  A NaN or
    infinite entry is a contract violation.
    """
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DimensionMismatchError("branch operator must be a square matrix")
    if not np.all(np.isfinite(k)):
        raise ContractViolationError("branch operator has a non-finite entry")
    d = k.shape[0]
    holds = preserves_orthogonality(k, np.eye(d)) and preserves_orthogonality(k, dft_matrix(d).T)
    ktk = k.conj().T @ k
    c = complex(np.trace(ktk)) / d
    residual = float(np.max(np.abs(ktk - c * np.eye(d))))
    return LemmaCheck(constraints_hold=holds, isotropy_residual=residual)


def isotropy_dimension(d: int) -> int:
    """Dimension of {E in C^(d x d) : <i|E|j> = 0 and <Fi|E|Fj> = 0, i != j}.

    The computational constraints leave E = diag(e).  On those, the
    constraint of the pair (i, j) is the row conj(F[k, i]) * F[k, j] =
    F[j - i, k]/sqrt(d) over k (indices mod d), and unit normalisation
    removes the 1/sqrt(d).  So the answer is d minus the ``span_dimension``
    of rows 1..d-1 of F at ``config.tolerance()``.  It is at least 1, and
    the rows are orthonormal (every singular value 1), so the rank is
    d - 1 at every tolerance in range and the dimension is exactly 1:
    E = c*1.  The d x d DFT matrix is held to the dense budget first.
    """
    require_dense_budget(d, d, "the lemma's DFT matrix")
    return d - span_dimension(dft_matrix(d)[1:])
