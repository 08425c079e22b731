"""Product states over multiple parties with symbolic or dense local factors.

A factor is either ``CB(i)`` (computational-basis ket), ``DFT(i)`` (the DFT
image of a computational ket, i.e. a dual-basis ket), or ``Dense(vector)``.
Symbolic factors are kept exact end-to-end; densification happens only when
a verification needs numbers.

A factor is its own interning key (dense factors are equal exactly when
their entries are bit-identical).  A product set is one ``LocalFactors``
table: per party, the distinct local factors in first-seen order, and an
m x n integer array ``ids`` whose row i names member i's factor at each
party.  A control-DFT basis has at most 2d
distinct kets per party however many members it has, so circuits, files
and checks all work on the table.  ``ProductBasis`` and ``upb.Upb``
subclass it, so every set is read directly.  ``LocalFactors.dense``
renders the members, at every party or at some, from the table; the
``states`` tuple of ``ProductState`` objects is a view built on first use
for ``ProductBasis.gram`` and the tests, the dense references.  Norms, the
Gram matrix and the census come from the table's distinct factors, with
no vector or matrix of the full dimension D = prod(d_j).  A product
overlap is the product of the local overlaps, and it vanishes exactly
when one local overlap does (Bennett et al., PRL 82, 5385 (1999)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError
from .linalg import gram, kron_all, require_dense_budget

DENSE_FACTOR_NORM_TOL = 1e-12


@dataclass(frozen=True)
class CB:
    index: int


@dataclass(frozen=True)
class DFT:
    index: int


class Dense:
    """Dense local factor; entries are stored as an immutable complex vector,
    whose bytes (taken once) are its equality and hash."""

    __slots__ = ("entries", "_bytes")

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex).copy()
        if arr.ndim != 1:
            raise DimensionMismatchError("dense factor must be a 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ContractViolationError("dense factor has a non-finite entry")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "_bytes", arr.tobytes())

    def __eq__(self, other):
        return isinstance(other, Dense) and self._bytes == other._bytes

    def __hash__(self):
        return hash(self._bytes)

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
        # column k of ``dft_matrix(dim)``, rendered alone
        return np.exp(2j * np.pi * (np.arange(dim) * factor.index) / dim) / np.sqrt(dim)
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
    rounded = np.round(factor.entries, 9) + 0.0  # + 0.0 turns -0.0 into 0.0
    return "dense:" + ",".join(f"{z.real:+.9f}{z.imag:+.9f}j" for z in rounded)


def check_factor(factor: Factor, dim: int) -> None:
    """Require a factor to be a unit vector of the given dimension: a
    symbolic index in range, or dense entries of that length and norm 1.
    Dense entries are finite by construction."""
    if isinstance(factor, (CB, DFT)):
        if not 0 <= factor.index < dim:
            raise ContractViolationError(
                f"symbolic index {factor.index} out of range for dimension {dim}"
            )
    elif isinstance(factor, Dense):
        if factor.entries.shape[0] != dim:
            raise DimensionMismatchError(
                f"dense factor dimension {factor.entries.shape[0]} != {dim}"
            )
        nrm = float(np.linalg.norm(factor.entries))
        if not abs(nrm - 1.0) <= DENSE_FACTOR_NORM_TOL:
            raise ContractViolationError(
                f"dense factor norm {nrm} deviates from 1 beyond 1e-12"
            )
    else:
        raise TypeError(f"not a factor: {factor!r}")


@dataclass(frozen=True)
class ProductState:
    """One local factor per party, all sharing the dimension vector."""

    factors: tuple
    dims: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        dims = tuple(map(int, self.dims))
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "dims", dims)
        if len(factors) != len(dims):
            raise DimensionMismatchError(
                f"{len(factors)} factors for {len(dims)} parties"
            )
        for f, d in zip(factors, dims):
            check_factor(f, d)

    def dense(self) -> np.ndarray:
        """Full state vector, party 0 most significant."""
        return kron_all(factor_dense(f, d) for f, d in zip(self.factors, self.dims))


@dataclass(frozen=True, eq=False)
class LocalFactors:
    """A product set of m members on n parties, as interned local factors.

    ``factors[p]`` lists party p's distinct factors in first-seen order
    (equal factors are one factor: the same symbolic ket, or dense factors
    with bit-identical entries) and ``ids[i, p]`` is the index there of
    member i's factor.  The factors are taken as checked (``check_factor``):
    the builders (``from_states``, ``circuit.images`` and the file loader)
    check each distinct factor once, or make only valid ones, and pass
    ``dims`` as a tuple of ints.  ``vectors[p]`` stacks the distinct
    factors' renderings in id order, ``overlaps[p][a, b]`` is <f_a|f_b>,
    written as an exact 0 when f_a and f_b are distinct kets of one basis
    (computational or DFT), and ``states`` is the members as
    ``ProductState`` objects, the dense references' view; all three are
    built on first use.
    """

    dims: tuple
    factors: list
    ids: np.ndarray

    @classmethod
    def from_states(cls, states, dims, **fields):
        """The set of ``ProductState`` members in listed order; ``fields``
        are a subclass's other fields."""
        dims = tuple(int(d) for d in dims)
        if any(s.dims != dims for s in states):
            raise DimensionMismatchError("state dims differ from the set's dims")
        distinct = []
        ids = np.zeros((len(states), len(dims)), dtype=np.intp)
        for p in range(len(dims)):
            first = {}  # party p's factors, each mapped to its first-seen id
            ids[:, p] = [first.setdefault(s.factors[p], len(first)) for s in states]
            distinct.append(list(first))
        return cls(dims, distinct, ids, **fields)

    def __len__(self) -> int:
        return self.ids.shape[0]

    @cached_property
    def states(self) -> tuple:
        return tuple(
            ProductState(tuple(kept[k] for kept, k in zip(self.factors, row)), self.dims)
            for row in self.ids.tolist()
        )

    @cached_property
    def vectors(self) -> list[np.ndarray]:
        for kept, d in zip(self.factors, self.dims):
            require_dense_budget(len(kept), d, "the local factor table")
        return [
            np.array([factor_dense(f, d) for f in kept]).reshape(len(kept), d)
            for kept, d in zip(self.factors, self.dims)
        ]

    def dense(self, parties=None) -> np.ndarray:
        """The members rendered at ``parties`` (default: every party), as an
        m x prod(d_p) array: row i is the Kronecker product of member i's
        rendered factors there, in ascending party order, taken from
        ``vectors[p][ids[:, p]]``.  Held to the dense budget before it is
        formed."""
        m = len(self)
        parties = sorted(range(len(self.dims)) if parties is None else parties)
        require_dense_budget(m, math.prod(self.dims[p] for p in parties), "the rendered members")
        blocks = [self.vectors[p][self.ids[:, p]] for p in parties]
        out = blocks[0] if blocks else np.ones((m, 1), dtype=complex)
        for rows in blocks[1:]:
            out = (out[:, :, None] * rows[:, None, :]).reshape(m, out.shape[1] * rows.shape[1])
        return out

    @cached_property
    def overlaps(self) -> list[np.ndarray]:
        return [_overlap_table(kept, v) for kept, v in zip(self.factors, self.vectors)]

    def gram_extremes(self) -> tuple[float, float]:
        """(max_i |G_ii - 1|, max_{i != j} |G_ij|) for the Gram matrix
        G_ij = <psi_i|psi_j> = prod_p overlaps[p][ids[i, p], ids[j, p]].

        Members are sorted by their id tuples, and pairs of members are
        walked party by party over the trie of shared id prefixes: a pair
        of subtrees is dropped at the first party whose overlap is an exact
        0, so the work scales with the pairs that are not orthogonal early,
        not with m^2.  Identical members meet at a leaf and show their
        overlap (about 1) off the diagonal; on no parties every member is
        the empty product 1, so two members overlap by 1.
        """
        m, n = self.ids.shape
        if m == 0:
            return 0.0, 0.0
        rows = self.ids[np.lexsort(self.ids.T[::-1])] if n else self.ids
        # children[p][node] lists (factor id at party p, child node) for the
        # trie nodes at depth p, i.e. the runs of equal prefixes rows[:, :p]
        children = []
        new_run = np.zeros(m - 1, dtype=bool)
        starts = np.zeros(1, dtype=np.intp)
        for p in range(n):
            new_run |= rows[1:, p] != rows[:-1, p]
            child_starts = np.flatnonzero(np.concatenate(([True], new_run)))
            parents = np.searchsorted(starts, child_starts, side="right") - 1
            level = [[] for _ in starts]
            for c, (q, k) in enumerate(zip(parents.tolist(), rows[child_starts, p].tolist())):
                level[q].append((k, c))
            children.append(level)
            starts = child_starts
        leaf_sizes = np.diff(np.append(starts, m)).tolist()
        tables = [t.tolist() for t in self.overlaps]

        diag = off = 0.0
        stack = [(0, 0, 0, 1.0)]  # (depth, node a, node b, partial product)
        while stack:
            p, a, b, value = stack.pop()
            if p == n:
                if a != b:
                    off = max(off, abs(value))
                else:
                    diag = max(diag, abs(value - 1.0))
                    if leaf_sizes[a] > 1:
                        off = max(off, abs(value))
                continue
            table = tables[p]
            kids_a = children[p][a]
            for x, (ka, na) in enumerate(kids_a):
                row = table[ka]
                # a node paired with itself meets each unordered child pair
                # once; |G_ij| = |G_ji|, so the order within a pair is free
                for kb, nb in kids_a[x:] if a == b else children[p][b]:
                    t = row[kb]
                    if t != 0:
                        stack.append((p + 1, na, nb, value * t))
        return float(diag), float(off)


_BASIS_KIND = {CB: 0, DFT: 1}


def _overlap_table(factors, vectors: np.ndarray) -> np.ndarray:
    """<f_a|f_b> for the distinct factors of one party, with an exact 0 for
    two distinct kets of the computational or of the DFT basis.  Symbolic
    factors give at most 2d x 2d; only distinct dense factors can make the
    table large, so it is held to the dense budget."""
    k = len(factors)
    require_dense_budget(k, k, "the local overlap table")
    table = vectors.conj() @ vectors.T
    kind = np.array([_BASIS_KIND.get(type(f), -1) for f in factors])
    index = np.array([getattr(f, "index", -1) for f in factors])
    one_basis = (kind[:, None] == kind[None, :]) & (kind[:, None] >= 0)
    table[one_basis & (index[:, None] != index[None, :])] = 0.0
    return table


class ProductBasis(LocalFactors):
    """A product set checked as a basis: its norms and Gram matrix."""

    def gram(self) -> np.ndarray:
        """Dense Gram matrix of the rendered states: the reference that
        ``gram_deviation`` is tested against."""
        m = len(self)
        require_dense_budget(m, max(m, math.prod(self.dims)), "the Gram matrix")
        return gram([s.dense() for s in self.states])

    def gram_deviation(self) -> float:
        """Largest entry of |G - I|, G the states' Gram matrix, computed from
        the local overlap tables (``LocalFactors.gram_extremes``) with no
        m x m or m x D array."""
        return max(self.gram_extremes())

    def norm_deviation(self) -> float:
        """Largest |<psi|psi>^(1/2) - 1| over the states, from the norms of
        their distinct local factors: each member's norm is the product of
        its factors' norms."""
        norms = np.ones(len(self))
        for p, v in enumerate(self.vectors):
            norms *= np.linalg.norm(v, axis=1)[self.ids[:, p]]
        return float(np.max(np.abs(norms - 1.0), initial=0.0))
