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

Two CB or DFT kets of one party overlap by 1 (the same ket), exactly 0
(another ket of the same basis) or 1/sqrt(d) (kets of the two bases) in
modulus, whatever their indices.  So the orthogonality gate
(``LocalFactors.max_overlap``) decides symbolic overlaps from kind and
index and renders a party only when it holds a ``Dense`` factor; a set of
symbolic factors is checked with no number rendered.  Each party is
rendered at most once per set (``LocalFactors.rendered``).
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
    ``dims`` as a tuple of ints.  ``rendered(p)`` stacks party p's
    distinct factors' renderings in id order, built on first use;
    ``overlap_table(p)`` is their complex <f_a|f_b>, written as an exact 0
    when f_a and f_b are distinct kets of one basis (computational or DFT);
    ``states`` is the members as ``ProductState`` objects, the dense
    references' view, built on first use.  ``max_overlap`` and
    ``gram_extremes`` read the Gram matrix's extremes from a walk over the
    members' trie of shared id prefixes (``_trie``).
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
    def _rendered(self) -> dict:
        return {}

    def rendered(self, p: int) -> np.ndarray:
        """Party p's distinct factors rendered in id order, a k x d_p
        array held to the dense budget before it is formed.  Each party is
        rendered once per set, on first use."""
        cache = self._rendered
        if p not in cache:
            kept, d = self.factors[p], self.dims[p]
            require_dense_budget(len(kept), d, "the local factor table")
            cache[p] = np.array([factor_dense(f, d) for f in kept]).reshape(len(kept), d)
        return cache[p]

    def dense(self, parties=None) -> np.ndarray:
        """The members rendered at ``parties`` (default: every party), as an
        m x prod(d_p) array: row i is the Kronecker product of member i's
        rendered factors there, in ascending party order, taken from
        ``rendered(p)[ids[:, p]]``.  Held to the dense budget before it is
        formed."""
        m = len(self)
        parties = sorted(range(len(self.dims)) if parties is None else parties)
        require_dense_budget(m, math.prod(self.dims[p] for p in parties), "the rendered members")
        blocks = [self.rendered(p)[self.ids[:, p]] for p in parties]
        out = blocks[0] if blocks else np.ones((m, 1), dtype=complex)
        for rows in blocks[1:]:
            out = (out[:, :, None] * rows[:, None, :]).reshape(m, out.shape[1] * rows.shape[1])
        return out

    def overlap_table(self, p: int) -> np.ndarray:
        """<f_a|f_b> for party p's distinct factors, from their renderings,
        with an exact 0 for two distinct kets of the computational or of the
        DFT basis.  Held to the dense budget (only distinct dense factors can
        make it large).  The orthogonality walk reads it only at parties that
        hold a ``Dense`` factor; ``gram_extremes`` reads its diagonal."""
        kept = self.factors[p]
        vectors = self.rendered(p)
        require_dense_budget(len(kept), len(kept), "the local overlap table")
        table = vectors.conj() @ vectors.T
        kind = np.array([_KIND.get(type(f), -1) for f in kept])
        index = np.array([getattr(f, "index", -1) for f in kept])
        one_basis = (kind[:, None] == kind[None, :]) & (kind[:, None] >= 0)
        table[one_basis & (index[:, None] != index[None, :])] = 0.0
        return table

    def _trie(self) -> tuple:
        """The members' trie of shared id prefixes, with its one-child
        chains contracted.  ``rows`` lists the members' id rows in
        lexicographic order.  Node u holds rows lo[u]:hi[u], which agree
        at every party below depth[u]; unless depth[u] is n they split
        there into the nodes of kids[u], (factor id there, node) pairs in
        row order.  The nodes are built bottom-up from the common prefix
        lengths of adjacent rows, in one pass; the last one is the root."""
        m, n = self.ids.shape
        rows = self.ids[np.lexsort(self.ids.T[::-1])] if n else self.ids
        # lcp[i]: the parties at which rows i and i + 1 agree before they differ
        differ = np.concatenate([rows[1:] != rows[:-1], np.ones((max(m - 1, 0), 1), bool)], axis=1)
        lcp = differ.argmax(axis=1).tolist()
        rows = rows.tolist()
        lo, hi, depth, kids = [], [], [], []
        stack = []  # open nodes: (depth, first row, kids so far)
        start = 0  # first row of the current leaf
        for i, h in enumerate(lcp + [-1]):
            if h == n:
                continue  # row i + 1 repeats row i
            child = len(lo)
            lo.append(start)
            hi.append(i + 1)
            depth.append(n)
            kids.append(())
            start = i + 1
            # close every open node that splits below h, and hang it on the next
            while stack and stack[-1][0] > h:
                q, first_row, children = stack.pop()
                children.append((rows[lo[child]][q], child))
                child = len(lo)
                lo.append(first_row)
                hi.append(i + 1)
                depth.append(q)
                kids.append(children)
            if stack and stack[-1][0] == h:
                stack[-1][2].append((rows[lo[child]][h], child))
            elif h >= 0:
                stack.append((h, lo[child], [(rows[lo[child]][h], child)]))
        return rows, lo, hi, depth, kids

    def max_overlap(self) -> float:
        """max_{i != j} |G_ij| for the Gram matrix G_ij = <psi_i|psi_j>
        (``_walk``).  Only parties that hold a ``Dense`` factor are
        rendered: a set of symbolic factors renders nothing."""
        return self._walk(None)[1]

    def gram_extremes(self) -> tuple[float, float]:
        """(max_i |G_ii - 1|, max_{i != j} |G_ij|) for the Gram matrix
        G_ij = <psi_i|psi_j> (``_walk``).  The first takes each distinct
        factor's float self-overlap, the diagonal of its party's
        ``overlap_table``, so it keeps the rounding of the rendered kets
        (a DFT ket's <f|f> is 1 to within an ulp or two); every party is
        rendered for it."""
        return self._walk([np.diagonal(self.overlap_table(p)).tolist()
                           for p in range(len(self.dims))])

    def _walk(self, selfs) -> tuple[float, float]:
        """(max_i |G_ii - 1|, max_{i != j} |G_ij|), the first 0.0 unless
        ``selfs[p]`` lists party p's complex self-overlaps by id.

        |G_ij| is the product over the parties of |<f|g>| for member i's
        factor f and member j's factor g there.  For two symbolic kets that
        is the kinds rule: 1 for the same (kind, index), an exact 0 for
        another index of the same kind, and 1/sqrt(d) for kets of the other
        basis.  A party that holds a ``Dense`` factor (or, in a hand-built
        table, one ket under two ids) reads a real table of
        |``overlap_table``| instead.  G_ii is the product of the member's
        ``selfs`` in party order.

        Pairs of members are walked party by party over ``_trie``: a pair of
        subtrees is dropped at the first party whose overlap is an exact 0,
        so the work scales with the pairs that are not orthogonal early,
        not with m^2.  Identical members meet at a leaf and show their
        overlap (1, or the product of their dense factors' |<f|f>|) off the
        diagonal; on no parties every member is the empty product 1, so two
        members overlap by 1.
        """
        m, n = self.ids.shape
        if m == 0:
            return 0.0, 0.0
        rows, lo, hi, depth, kids = self._trie()
        tables = [None] * n  # |overlap_table(p)| as lists, where the rule is not enough
        kinds = []  # per party, each id's _KIND (-1 for a Dense factor)
        for p, kept in enumerate(self.factors):
            kinds.append([_KIND.get(type(f), -1) for f in kept])
            if -1 in kinds[p] or len(set(kept)) < len(kept):
                # a Dense factor, or one ket under two ids (a hand-built table)
                tables[p] = np.abs(self.overlap_table(p)).tolist()
        scales = [1 / math.sqrt(d) for d in self.dims]

        def overlap(p, f, g):
            # |<f|g>| for factor ids f and g of party p
            if tables[p] is not None:
                return tables[p][f][g]
            return 1.0 if f == g else 0.0 if kinds[p][f] == kinds[p][g] else scales[p]

        diag = off = 0.0
        root = len(lo) - 1
        # (node a, node b, party p, |G| below p, and for a = b G_ii below p)
        stack = [(root, root, 0, 1.0, 1.0)]
        while stack:
            a, b, p, value, own = stack.pop()
            if a == b:
                # the node with itself: its rows agree down to depth[a]
                q = depth[a]
                row = rows[lo[a]]
                for r in range(p, q):
                    if tables[r] is not None:
                        value *= tables[r][row[r]][row[r]]
                    if selfs:
                        own *= selfs[r][row[r]]
                if q == n:
                    if selfs:
                        diag = max(diag, abs(own - 1.0))
                    if hi[a] - lo[a] > 1:
                        off = max(off, value)
                    continue
                # each unordered pair of subtrees once: |G_ij| = |G_ji|
                table = tables[q]
                if table is None:
                    kind, s = kinds[q], scales[q]
                    dft = [w for g, w in kids[a] if kind[g]]
                    for f, u in kids[a]:
                        stack.append((u, u, q + 1, value, own * selfs[q][f] if selfs else own))
                        if dft and not kind[f]:
                            for w in dft:
                                stack.append((u, w, q + 1, value * s, own))
                    continue
                for x, (f, u) in enumerate(kids[a]):
                    line = table[f]
                    stack.append((u, u, q + 1, value * line[f], own * selfs[q][f] if selfs else own))
                    for g, w in kids[a][x + 1:]:
                        if line[g]:
                            stack.append((u, w, q + 1, value * line[g], own))
                continue
            while p < n and depth[a] > p and depth[b] > p:
                # neither subtree splits at p: one factor each
                t = overlap(p, rows[lo[a]][p], rows[lo[b]][p])
                if not t:
                    break
                value *= t
                p += 1
            else:
                if p == n:
                    off = max(off, value)
                    continue
                for f, u in kids[a] if depth[a] == p else [(rows[lo[a]][p], a)]:
                    for g, w in kids[b] if depth[b] == p else [(rows[lo[b]][p], b)]:
                        t = overlap(p, f, g)
                        if t:
                            stack.append((u, w, p + 1, value * t, own))
        return diag, off


_KIND = {CB: 0, DFT: 1}


class ProductBasis(LocalFactors):
    """A product set checked as a basis: its norms and Gram matrix."""

    def gram(self) -> np.ndarray:
        """Dense Gram matrix of the rendered states: the reference that
        ``gram_deviation`` is tested against."""
        m = len(self)
        require_dense_budget(m, max(m, math.prod(self.dims)), "the Gram matrix")
        return gram([s.dense() for s in self.states])

    def gram_deviation(self) -> float:
        """Largest entry of |G - I|, G the states' Gram matrix, from
        ``LocalFactors.gram_extremes`` with no m x m or m x D array."""
        return max(self.gram_extremes())

    def norm_deviation(self) -> float:
        """Largest |<psi|psi>^(1/2) - 1| over the states, from the norms of
        their distinct local factors: each member's norm is the product of
        its factors' norms."""
        norms = np.ones(len(self))
        for p in range(len(self.dims)):
            norms *= np.linalg.norm(self.rendered(p), axis=1)[self.ids[:, p]]
        return float(np.max(np.abs(norms - 1.0), initial=0.0))
