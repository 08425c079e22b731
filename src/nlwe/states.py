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
modulus, whatever their indices.  That holds for distinct kets with
indices in range, so a table is checked for exactly that, and classified
by kind, once at construction (``LocalFactors``).  The orthogonality gate
(``LocalFactors.max_overlap``), ``overlap_table``, ``local_overlaps`` and
the extendibility search (``upb``) read that one classification: the gate
renders a party only when it holds a ``Dense`` factor, so a set of
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

# a factor's kind, one byte per id in ``LocalFactors.kinds``
KIND_CB, KIND_DFT, KIND_DENSE = 0, 1, 2
_KIND_OF = {CB: KIND_CB, DFT: KIND_DFT, Dense: KIND_DENSE}


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
    member i's factor.  ``dims`` is a tuple of ints.  Construction checks
    the table once: one factor list per party and an m x n integer
    ``ids`` (else ``DimensionMismatchError``); every id names one of its
    party's factors, no party lists one factor under two ids, and every
    factor passes ``check_factor`` at its party's dimension (else
    ``ContractViolationError``).  So two CB or DFT ids of one party are two
    distinct kets with indices in range, which the kinds rule needs.  The
    same pass classifies each party's factors: ``kinds[p]`` holds one byte
    per id, its factor's kind (``KIND_CB``, ``KIND_DFT`` or ``KIND_DENSE``),
    and ``masks[p]`` is the party's (CB ids, DFT ids) as bitmasks.

    ``rendered(p)`` stacks party p's distinct factors' renderings in id
    order, built on first use; ``overlap_table(p)`` is their complex
    <f_a|f_b>, written as an exact 0 when f_a and f_b are distinct kets of
    one basis (computational or DFT); ``states`` is the members as
    ``ProductState`` objects, the dense references' view, built on first
    use.  ``max_overlap`` reads the Gram matrix's off-diagonal maximum from
    a walk over the members' trie of shared id prefixes (``_trie``).
    """

    dims: tuple
    factors: list
    ids: np.ndarray

    def __post_init__(self):
        ids = self.ids
        n = len(self.dims)
        if len(self.factors) != n:
            raise DimensionMismatchError(f"{len(self.factors)} factor lists for {n} parties")
        if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu"
                and ids.ndim == 2 and ids.shape[1] == n):
            raise DimensionMismatchError(f"ids must be an m x {n} integer array")
        # whole-table reductions, with no table-sized temporary, cost what the
        # per-party ones along axis 0 cost on a narrow table and half on a wide
        # one (0.76 against 1.38 ms at 9 801 x 100, numpy 2.4), so each party's
        # range is taken only when some id is negative or reaches the shortest
        # factor list
        if ids.size and (ids.min() < 0 or ids.max() >= min(map(len, self.factors))):
            for p, (kept, lo, hi) in enumerate(zip(self.factors, ids.min(axis=0).tolist(),
                                                   ids.max(axis=0).tolist())):
                if lo < 0 or hi >= len(kept):
                    raise ContractViolationError(
                        f"id {lo if lo < 0 else hi} at party {p} names none of its "
                        f"{len(kept)} factors"
                    )
        kinds, masks = [], []
        for p, (kept, d) in enumerate(zip(self.factors, self.dims)):
            kind = bytearray()
            bits = [0, 0, 0]  # the ids of each kind, as bitmasks
            for k, f in enumerate(kept):
                check_factor(f, d)
                kind.append(_KIND_OF[type(f)])
                bits[kind[k]] |= 1 << k
            if len(set(kept)) < len(kept):
                raise ContractViolationError(f"party {p} lists one factor under two ids")
            kinds.append(bytes(kind))
            masks.append((bits[KIND_CB], bits[KIND_DFT]))
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "masks", masks)

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
        vectors = self.rendered(p)
        require_dense_budget(len(vectors), len(vectors), "the local overlap table")
        table = vectors.conj() @ vectors.T
        kind = np.frombuffer(self.kinds[p], dtype=np.uint8)
        one_basis = (kind[:, None] == kind) & (kind != KIND_DENSE)
        np.fill_diagonal(one_basis, False)
        table[one_basis] = 0.0
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

    def gram_extremes(self) -> tuple[float, float]:
        """(max_i |G_ii - 1|, max_{i != j} |G_ij|) for the Gram matrix
        G_ij = <psi_i|psi_j>.  G_ii is the product, in party order, of the
        member's factors' float self-overlaps, the diagonals of the parties'
        ``overlap_table``s, so it keeps the rounding of the rendered kets (a
        DFT ket's <f|f> is 1 to within an ulp or two); every party is
        rendered for it.  The second is ``max_overlap``, taken first, so
        that the walk and the members' G_ii are not held at once."""
        off = self.max_overlap()
        own = [1.0] * len(self)  # each member's G_ii over the parties so far
        for p, col in enumerate(self.ids.T.tolist()):
            selfs = np.diagonal(self.overlap_table(p)).tolist()
            own = [g * selfs[k] for g, k in zip(own, col)]
        return max((abs(g - 1.0) for g in own), default=0.0), off

    def max_overlap(self) -> float:
        """max_{i != j} |G_ij| for the Gram matrix G_ij = <psi_i|psi_j>.

        |G_ij| is the product over the parties of |<f|g>| for member i's
        factor f and member j's factor g there.  For two symbolic kets that
        is the kinds rule: 1 for the same id, an exact 0 for another id of
        the same kind, and 1/sqrt(d) for kets of the other basis.  A party
        that holds a ``Dense`` factor reads a real table of
        |``overlap_table``| instead; a set of symbolic factors renders
        nothing.

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
            return 0.0
        rows, lo, hi, depth, kids = self._trie()
        kinds = self.kinds
        # |overlap_table(p)| as lists, where the rule is not enough
        tables = [np.abs(self.overlap_table(p)).tolist() if KIND_DENSE in kinds[p] else None
                  for p in range(n)]
        scales = [1 / math.sqrt(d) for d in self.dims]

        def overlap(p, f, g):
            # |<f|g>| for factor ids f and g of party p
            if tables[p] is not None:
                return tables[p][f][g]
            return 1.0 if f == g else 0.0 if kinds[p][f] == kinds[p][g] else scales[p]

        off = 0.0
        root = len(lo) - 1
        stack = [(root, root, 0, 1.0)]  # (node a, node b, party p, |G| below p)
        while stack:
            a, b, p, value = stack.pop()
            if a == b:
                # the node with itself: its rows agree down to depth[a]
                q = depth[a]
                row = rows[lo[a]]
                for r in range(p, q):
                    if tables[r] is not None:
                        value *= tables[r][row[r]][row[r]]
                if q == n:
                    if hi[a] - lo[a] > 1:
                        off = max(off, value)
                    continue
                # each unordered pair of subtrees once: |G_ij| = |G_ji|
                table = tables[q]
                if table is None:
                    kind, s = kinds[q], scales[q]
                    dft = [w for g, w in kids[a] if kind[g] == KIND_DFT]
                    for f, u in kids[a]:
                        stack.append((u, u, q + 1, value))
                        if dft and kind[f] == KIND_CB:
                            for w in dft:
                                stack.append((u, w, q + 1, value * s))
                    continue
                for x, (f, u) in enumerate(kids[a]):
                    line = table[f]
                    stack.append((u, u, q + 1, value * line[f]))
                    for g, w in kids[a][x + 1:]:
                        if line[g]:
                            stack.append((u, w, q + 1, value * line[g]))
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
                            stack.append((u, w, p + 1, value * t))
        return off

    def local_overlaps(self, p: int, factor) -> list:
        """|<f|factor>| for each of party p's distinct factors f in id
        order, ``factor`` a checked factor of party p's dimension: the kinds
        rule (1, 0 or 1/sqrt(d)) where both kets are symbolic, and from the
        renderings where a ``Dense`` factor takes part."""
        d, kind = self.dims[p], self.kinds[p]
        own = _KIND_OF[type(factor)]
        numeric = []
        if own == KIND_DENSE or KIND_DENSE in kind:
            numeric = np.abs(self.rendered(p).conj() @ factor_dense(factor, d)).tolist()
        scale = 1 / math.sqrt(d)
        return [
            numeric[k] if KIND_DENSE in (own, c)
            else 1.0 if f == factor else 0.0 if c == own else scale
            for k, (f, c) in enumerate(zip(self.factors[p], kind))
        ]


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
