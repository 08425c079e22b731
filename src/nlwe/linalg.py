"""Dense complex linear algebra used by every other module.

Conventions
-----------
Vectors are 1-D complex ndarrays, matrices are 2-D (row-major).  Party 0
occupies the most significant tensor slot, i.e. ``kron_all([a, b])`` puts
``a`` on the slower-varying index.  The DFT uses the +i sign convention,
so for qubits it coincides with the Hadamard.

No command takes a spectrum: ``bestate`` certifies its rows from the
set's Gram extremes (``boundent``).  ``hermitian_eigenvalues`` (LAPACK
through ``np.linalg.eigvalsh``) and ``partial_transpose`` remain for the
tests' dense references, and ``jacobi_eigh``, a pure-Python cyclic-Jacobi
solver, as the independent reference for LAPACK; no library code calls
them.

Every rank, span and orthogonal complement is a view of one SVD of the
unit-normalised inputs (``_svd``), which holds them as one stacked copy
normalised in place (``unit_rows``); a caller that ranks many subsets of
one stack normalises it once and passes the picked rows to ``unit_svd``.

The arrays on whole spaces first pass their largest shape to
``require_dense_budget``: the complement mixture and the completed basis's
Gram matrix in ``boundent``, and the dense references that the tests
compare the factored ``verify`` checks against (a basis's Gram matrix and
the gate unitaries).
"""

from __future__ import annotations

import math

import numpy as np

from .config import tolerance
from .errors import (
    ContractViolationError,
    ConvergenceError,
    DegenerateCutError,
    DimensionMismatchError,
    InvalidDimensionError,
    TooLargeError,
)
from .report import count_text

HERMITICITY_TOL = 1e-10
JACOBI_OFFDIAG_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
# 64 MiB admits a 2048 x 2048 complex matrix: D = 1024 for canonical (5,4)
# fits, D = 15625 for (6,5) does not.
DENSE_BYTES_BUDGET = 2**26


def require_dense_budget(rows: int, cols: int, what: str) -> None:
    """Raise ``TooLargeError`` if a rows x cols complex array would exceed
    ``DENSE_BYTES_BUDGET``; call it before the array is formed.  The size
    is exact integer arithmetic, so a shape past float range is refused
    like any other."""
    nbytes = 16 * int(rows) * int(cols)
    if nbytes > DENSE_BYTES_BUDGET:
        # MiB to two places, rounded half to even as "%.2f" rounds
        hundredths, rest = divmod(100 * nbytes, 1 << 20)
        hundredths += 2 * rest > 1 << 20 or (2 * rest == 1 << 20 and hundredths % 2)
        whole, part = divmod(hundredths, 100)
        mib = count_text(whole)
        if mib.isdigit():  # exact digits, not a power of ten
            mib += f".{part:02d}"
        raise TooLargeError(
            f"{what} needs a {count_text(rows)} x {count_text(cols)} complex array "
            f"({mib} MiB), above the {DENSE_BYTES_BUDGET >> 20} MiB budget"
        )


def dft_matrix(d: int) -> np.ndarray:
    """Return the d-dimensional discrete Fourier transform matrix.

    Column n is the dual-basis ket expanded in the computational basis:
    ``F[l, n] = exp(+2j*pi*n*l/d) / sqrt(d)``.  For d = 2 this is the
    Hadamard, sending |0> to |0+1> and |1> to |0-1>.
    """
    if d < 1:
        raise InvalidDimensionError(f"DFT dimension must be a positive integer, got {d}")
    idx = np.arange(d)
    return np.exp(2j * np.pi * np.outer(idx, idx) / d) / np.sqrt(d)


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence of vectors or matrices."""
    factors = list(factors)
    if not factors:
        raise DimensionMismatchError("kron_all needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def gram(vectors) -> np.ndarray:
    """Matrix of pairwise inner products G[i, j] = <v_i|v_j>.

    Conjugate-linear in the first argument.  Zero vectors are legal inputs.
    """
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if not vecs:
        return np.zeros((0, 0), dtype=complex)
    dim = vecs[0].shape
    for v in vecs[1:]:
        if v.shape != dim:
            raise DimensionMismatchError("gram requires all vectors to share one dimension")
    stack = np.array(vecs)
    return stack.conj() @ stack.T


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def jacobi_eigh(
    a: np.ndarray,
    *,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix by cyclic Jacobi rotations.

    The pure-Python reference for ``hermitian_eigenvalues``.  Returns
    ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvector k stored in column k.  Sweeps run until the off-diagonal
    Frobenius norm drops below ``JACOBI_OFFDIAG_TOL``; exceeding
    ``max_sweeps`` raises a convergence error.
    """
    a = np.array(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("eigensolver requires a square matrix")
    if float(np.max(np.abs(a - a.conj().T), initial=0.0)) > HERMITICITY_TOL:
        raise ContractViolationError("matrix is not Hermitian within 1e-10")
    a = (a + a.conj().T) / 2
    n = a.shape[0]
    vecs = np.eye(n, dtype=complex)
    if n == 1:
        return a.real.diagonal().copy(), vecs

    skip_thresh = JACOBI_OFFDIAG_TOL / (100.0 * n)
    converged = _offdiag_norm(a) <= JACOBI_OFFDIAG_TOL
    for _ in range(max_sweeps):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip_thresh:
                    continue
                phase = apq / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # Rotation V: identity except V[p,p]=c, V[p,q]=s,
                # V[q,p]=-s*conj(phase), V[q,q]=c*conj(phase);  A <- V† A V.
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * row_p + c * phase * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * col_p + c * np.conj(phase) * col_q
                vcol_p = vecs[:, p].copy()
                vcol_q = vecs[:, q].copy()
                vecs[:, p] = c * vcol_p - s * np.conj(phase) * vcol_q
                vecs[:, q] = s * vcol_p + c * np.conj(phase) * vcol_q
        converged = _offdiag_norm(a) <= JACOBI_OFFDIAG_TOL
    if not converged:
        raise ConvergenceError(
            f"Jacobi sweeps did not reach off-diagonal norm {JACOBI_OFFDIAG_TOL:g} "
            f"within {max_sweeps} sweeps"
        )
    evals = a.real.diagonal().copy()
    order = np.argsort(evals, kind="stable")
    return evals[order], vecs[:, order]


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, from LAPACK.  A NaN or
    infinite entry is rejected before the Hermiticity gate."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("eigensolver requires a square matrix")
    if not np.all(np.isfinite(a)):
        raise ContractViolationError("matrix has a non-finite entry")
    if not float(np.max(np.abs(a - a.conj().T), initial=0.0)) <= HERMITICITY_TOL:
        raise ContractViolationError("matrix is not Hermitian within 1e-10")
    return np.linalg.eigvalsh((a + a.conj().T) / 2)


def partial_transpose(rho: np.ndarray, dims, subset) -> np.ndarray:
    """Transpose the tensor indices of the parties in ``subset``.

    ``rho`` must be D x D with D the product of ``dims``.  The subset must
    be a nonempty proper set of party indices; transposing everything (or
    nothing) is rejected as a degenerate cut.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    total = math.prod(dims)
    if rho.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {rho.shape} does not match dims {dims} (D={total})"
        )
    parties = sorted(set(int(p) for p in subset))
    if any(p < 0 or p >= n for p in parties):
        raise DimensionMismatchError(f"subset {parties} outside party range 0..{n - 1}")
    if not parties or len(parties) == n:
        raise DegenerateCutError("partial transpose needs a nonempty proper subset of parties")
    t = rho.reshape(dims + dims)
    axes = list(range(2 * n))
    for p in parties:
        axes[p], axes[n + p] = axes[n + p], axes[p]
    return t.transpose(axes).reshape(total, total)


def unit_rows(vectors, dim: int | None = None) -> np.ndarray:
    """The nonzero inputs stacked as rows, each scaled to unit norm, as one
    new array (the caller's is never written); empty when no input is
    nonzero.  Each row's norm is one 1-D norm: a norm along the axis sums
    in another order and would move the last bits of the unit rows."""
    stack = np.array(vectors, dtype=complex)
    if not stack.size:
        return stack
    stack = stack.reshape(len(stack), dim or -1)
    norms = np.array([np.linalg.norm(row) for row in stack])
    if not norms.all():
        keep = norms != 0.0
        stack, norms = stack[keep], norms[keep]
    stack /= norms[:, None]
    return stack


def unit_svd(rows: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """(rank, vh) of a nonempty stack of unit rows (``unit_rows``): the rank
    counts the singular values above ``tol``, ``vh[:rank]`` spans the rows
    and ``vh[rank:]`` their orthogonal complement.  An added row lowers no
    singular value (Cauchy interlacing), so the rank is monotone in the
    rows.  The full vh is asked for only when there are fewer rows than
    columns; otherwise the reduced one is already square, and a tall stack
    forms no m x m U.  The singular values are those of the full
    decomposition: without U and V they can differ in the last bits."""
    _, s, vh = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    return int(np.count_nonzero(s > tol)), vh


def _svd(vectors, tol: float, dim: int | None = None) -> tuple[int, np.ndarray]:
    """``unit_svd`` of the inputs' ``unit_rows`` in C^dim; with no nonzero
    input the rank is 0 and vh the identity."""
    stack = unit_rows(vectors, dim)
    if not stack.size:
        return 0, np.eye(dim or 0, dtype=complex)
    return unit_svd(stack, tol)


def orthonormalize(vectors, tol: float | None = None) -> list[np.ndarray]:
    """Orthonormal basis of span(vectors); exact zero vectors contribute
    nothing, and rescaling an input changes nothing."""
    rank, vh = _svd(vectors, tolerance(tol))
    return list(vh[:rank])


def span_dimension(vectors, tol: float | None = None) -> int:
    """Dimension of the span: singular values above tol of the unit inputs."""
    return _svd(vectors, tolerance(tol))[0]


def orthogonal_complement_basis(vectors, ambient_dim: int, tol: float | None = None) -> list[np.ndarray]:
    """Orthonormal basis of the orthogonal complement of span(vectors) in
    C^ambient_dim; each vector overlaps every unit-normalised input by at
    most tol, and the same input gives the same output."""
    rank, vh = _svd(vectors, tolerance(tol), int(ambient_dim))
    return list(vh[rank:])
