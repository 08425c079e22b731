"""Product states over multiple parties with symbolic or dense local factors.

A factor is either ``CB(i)`` (computational-basis ket), ``DFT(i)`` (the DFT
image of a computational ket, i.e. a dual-basis ket), or ``Dense(vector)``.
Symbolic factors are kept exact end-to-end; densification happens only when
a verification needs numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError
from .linalg import dft_matrix, gram, kron_all, require_dense_budget

DENSE_FACTOR_NORM_TOL = 1e-12


@dataclass(frozen=True)
class CB:
    index: int


@dataclass(frozen=True)
class DFT:
    index: int


class Dense:
    """Dense local factor; entries are stored as an immutable complex vector."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex).copy()
        if arr.ndim != 1:
            raise DimensionMismatchError("dense factor must be a 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ContractViolationError("dense factor has a non-finite entry")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other):
        return isinstance(other, Dense) and np.array_equal(self.entries, other.entries)

    def __repr__(self):
        return f"Dense({self.entries.tolist()!r})"


Factor = CB | DFT | Dense


def factor_dense(factor: Factor, dim: int) -> np.ndarray:
    """Render one local factor as a dense vector of the given dimension."""
    if isinstance(factor, CB):
        v = np.zeros(dim, dtype=complex)
        v[factor.index] = 1.0
        return v
    if isinstance(factor, DFT):
        return dft_matrix(dim)[:, factor.index].copy()
    if isinstance(factor, Dense):
        if factor.entries.shape[0] != dim:
            raise DimensionMismatchError(
                f"dense factor has dimension {factor.entries.shape[0]}, expected {dim}"
            )
        return factor.entries.copy()
    raise TypeError(f"not a factor: {factor!r}")


def factor_descriptor(factor: Factor) -> str:
    """Hashable census key: 'CB0', 'DFT2', or a rounded dense signature."""
    if isinstance(factor, CB):
        return f"CB{factor.index}"
    if isinstance(factor, DFT):
        return f"DFT{factor.index}"
    rounded = np.round(factor.entries, 9)
    return "dense:" + ",".join(f"{z.real:+.9f}{z.imag:+.9f}j" for z in rounded)


@dataclass(frozen=True)
class ProductState:
    """One local factor per party, all sharing the dimension vector."""

    factors: tuple
    dims: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "dims", dims)
        if len(factors) != len(dims):
            raise DimensionMismatchError(
                f"{len(factors)} factors for {len(dims)} parties"
            )
        for f, d in zip(factors, dims):
            if isinstance(f, (CB, DFT)):
                if not 0 <= f.index < d:
                    raise ContractViolationError(
                        f"symbolic index {f.index} out of range for dimension {d}"
                    )
            elif isinstance(f, Dense):
                if f.entries.shape[0] != d:
                    raise DimensionMismatchError(
                        f"dense factor dimension {f.entries.shape[0]} != {d}"
                    )
                nrm = float(np.linalg.norm(f.entries))
                if not abs(nrm - 1.0) <= DENSE_FACTOR_NORM_TOL:
                    raise ContractViolationError(
                        f"dense factor norm {nrm} deviates from 1 beyond 1e-12"
                    )
            else:
                raise TypeError(f"not a factor: {f!r}")

    def dense(self) -> np.ndarray:
        """Full state vector, party 0 most significant."""
        return kron_all(factor_dense(f, d) for f, d in zip(self.factors, self.dims))

    def dft_parties(self) -> tuple[int, ...]:
        return tuple(p for p, f in enumerate(self.factors) if isinstance(f, DFT))

    def is_symbolic(self) -> bool:
        return all(isinstance(f, (CB, DFT)) for f in self.factors)

    def symbolic_key(self):
        """Order-insensitive comparison key; None if any factor is dense."""
        if not self.is_symbolic():
            return None
        return tuple((type(f).__name__, f.index) for f in self.factors)


@dataclass(frozen=True)
class ProductBasis:
    """Ordered set of mutually orthogonal product states on shared dims."""

    dims: tuple
    states: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        states = tuple(self.states)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "states", states)
        for s in states:
            if s.dims != dims:
                raise DimensionMismatchError("state dims differ from basis dims")

    def __len__(self) -> int:
        return len(self.states)

    def gram(self) -> np.ndarray:
        m = len(self.states)
        require_dense_budget(m, max(m, int(np.prod(self.dims))), "the Gram matrix")
        return gram([s.dense() for s in self.states])

    def gram_deviation(self) -> float:
        g = self.gram()
        return float(np.max(np.abs(g - np.eye(len(self.states)))))
