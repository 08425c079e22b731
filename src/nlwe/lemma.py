"""Single-party measurement-branch checks.

A branch operator that keeps the computational basis orthogonal and the
dual basis orthogonal gains no information: its polar part must be unitary,
i.e. K†K is a multiple of the identity.  ``lemma_check`` tests exactly that
implication, with the dual basis fixed to the columns of the shared DFT
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import tolerance
from .errors import ContractViolationError, DimensionMismatchError
from .linalg import dft_matrix, require_dense_budget

SCALE_RANGE = (0.25, 4.0)


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


def weyl_operators(d: int) -> list[np.ndarray]:
    """All d^2 shift-and-phase operators X^a Z^b.

    X is the cyclic shift |j> -> |j+1 mod d| and Z the diagonal of d-th
    roots of unity; every one preserves orthogonality in both bases.  The
    d^2 matrices of d x d entries are held to the dense budget.
    """
    require_dense_budget(d * d, d * d, "the Weyl operator family")
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ops = []
    for a in range(d):
        for b in range(d):
            ops.append(
                np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            )
    return ops


def random_gaussian_operator(d: int, rng: np.random.Generator) -> np.ndarray:
    """Complex-Gaussian d x d matrix (entries standard normal in re and im)."""
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_scaled_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary times a random complex scalar of magnitude
    in ``SCALE_RANGE``."""
    q, r = np.linalg.qr(random_gaussian_operator(d, rng))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    magnitude = rng.uniform(*SCALE_RANGE)
    phase = np.exp(2j * np.pi * rng.uniform())
    return magnitude * phase * q
