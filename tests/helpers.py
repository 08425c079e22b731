"""Shared test oracles, independent of the library code paths they check."""

import itertools
import json

import numpy as np
from hypothesis import strategies as st

from nlwe.circuit import Circuit, ControlDftGate
from nlwe.linalg import span_dimension
from nlwe.states import CB, DFT, Dense, ProductState, factor_dense


def ket(index, d):
    v = np.zeros(d, dtype=complex)
    v[index] = 1.0
    return v


def dft_col(n, d):
    """Dual-basis ket by direct summation of the defining formula."""
    return np.array(
        [np.exp(2j * np.pi * n * l / d) / np.sqrt(d) for l in range(d)]
    )


def kron_chain(*vecs):
    out = vecs[0]
    for v in vecs[1:]:
        out = np.kron(out, v)
    return out


def local_factors(states, dims):
    return [
        [factor_dense(s.factors[j], dims[j]) for j in range(len(dims))]
        for s in states
    ]


def brute_force_extendible(states, dims, tol=1e-9):
    """Enumerate every member->party assignment with numpy SVD ranks.

    Returns (number of viable assignments, first viable assignment or None).
    Only usable for small sets.
    """
    m, n = len(states), len(dims)
    local = local_factors(states, dims)
    rank = []
    for j in range(n):
        table = {}
        for mask in range(1 << m):
            vecs = [local[i][j] for i in range(m) if mask & (1 << i)]
            table[mask] = (
                0 if not vecs else np.linalg.matrix_rank(np.array(vecs), tol=tol)
            )
        rank.append(table)
    hits = 0
    first = None
    for assign in itertools.product(range(n), repeat=m):
        masks = [0] * n
        for i, j in enumerate(assign):
            masks[j] |= 1 << i
        if all(rank[j][masks[j]] < dims[j] for j in range(n)):
            hits += 1
            if first is None:
                first = assign
    return hits, first


def residual_search(states, dims, tol=1e-9):
    """Reference decider: depth-first search over member->party assignments
    with a running Gram-Schmidt basis per party, the way the library decided
    extendibility before it interned local factors.

    Members in listed order, parties ascending; a branch is pruned when the
    member's residual would complete its party's span.  Returns (witness
    assignment or None, assignments covered, nodes visited).
    """
    local = local_factors(states, dims)
    m, n = len(local), len(dims)
    ortho = [[] for _ in range(n)]
    assignment = []
    covered = 0
    nodes = 0

    def residual(v, basis):
        for _ in range(2):
            for b in basis:
                v = v - np.vdot(b, v) * b
        return v

    def dfs(i):
        nonlocal covered, nodes
        if i == m:
            covered += 1
            return tuple(assignment)
        for j in range(n):
            nodes += 1
            v = residual(local[i][j], ortho[j])
            nrm = float(np.linalg.norm(v))
            grows = nrm > tol
            if grows and len(ortho[j]) + 1 == dims[j]:
                covered += n ** (m - i - 1)
                continue
            if grows:
                ortho[j].append(v / nrm)
            assignment.append(j)
            found = dfs(i + 1)
            assignment.pop()
            if grows:
                ortho[j].pop()
            if found is not None:
                return found
        return None

    return dfs(0), covered, nodes


def member_search(factors, dims, tol=1e-9):
    """Reference decider: the library's member->party search as it was
    before it remembered failed states, on the same ``LocalFactors`` table.

    Members in listed order, parties ascending; party masks of interned
    factor ids with memoised ``span_dimension`` ranks; a placement is pruned
    when its party's rank would reach d_j.  Every subtree is walked, so its
    node count is that of ``residual_search``.  Returns (witness assignment
    or None, assignments covered, nodes visited).
    """
    ids = factors.ids.tolist()
    m = len(ids)
    n = len(dims)
    memo = [{} for _ in range(n)]
    masks = [0] * n
    assignment = []  # party chosen for each member placed so far
    saved = []  # the mask each placement replaced, restored on backtrack
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
            j = assignment.pop()
            masks[j] = saved.pop()
            j += 1
            continue
        nodes += 1
        grown = masks[j] | 1 << ids[i][j]
        rank = memo[j].get(grown)
        if rank is None:
            picked = [v for k, v in enumerate(factors.vectors[j]) if grown >> k & 1]
            rank = memo[j][grown] = span_dimension(picked, tol)
        if rank >= dims[j]:
            # party j would be fully spanned: no product state can be
            # orthogonal there, so every completion of this branch fails
            covered += n ** (m - i - 1)
            j += 1
            continue
        saved.append(masks[j])
        masks[j] = grown
        assignment.append(j)
        j = 0


def min_total_overlap(states, dims, restarts=20, iters=200, seed=7):
    """Minimize sum_i |<psi_i| prod_j phi_j>|^2 by alternating eigenvector
    updates with random restarts.  Independent certificate: a minimum bounded
    away from zero means no orthogonal product state exists."""
    rng = np.random.default_rng(seed)
    m, n = len(states), len(dims)
    local = local_factors(states, dims)
    best = np.inf
    for _ in range(restarts):
        phi = []
        for j in range(n):
            v = rng.standard_normal(dims[j]) + 1j * rng.standard_normal(dims[j])
            phi.append(v / np.linalg.norm(v))
        val = np.inf
        for _ in range(iters):
            low = val
            for j in range(n):
                mat = np.zeros((dims[j], dims[j]), dtype=complex)
                for i in range(m):
                    beta = 1.0
                    for l in range(n):
                        if l != j:
                            beta *= np.vdot(local[i][l], phi[l])
                    c = np.conj(beta) * local[i][j]
                    mat += np.outer(c, c.conj())
                w, v = np.linalg.eigh(mat)
                phi[j] = v[:, 0]
                low = w[0]
            if abs(val - low) < 1e-15:
                break
            val = low
        best = min(best, val)
    return float(best)


# I/4 spoiled by a NaN on the diagonal, a NaN off it, or an infinite pair
NON_FINITE_CASES = {
    "nan-diagonal": ([(3, 3)], np.nan),
    "nan-off-diagonal": ([(0, 1)], np.nan),
    "inf-symmetric": ([(1, 2), (2, 1)], np.inf),
}


def non_finite_matrix(case):
    entries, value = NON_FINITE_CASES[case]
    a = np.eye(4, dtype=complex) / 4
    for pos in entries:
        a[pos] = value
    return a


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2


@st.composite
def factor_sets(draw):
    """Small sets of product states whose factors are drawn from three
    complete bases per party: computational, dual and a random unitary's
    columns (dense).  Members need not be orthogonal."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3)))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unitaries = []
    for d in dims:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        unitaries.append(q)
    states = []
    for _ in range(m):
        factors = []
        for d, q in zip(dims, unitaries):
            k = draw(st.integers(0, d - 1))
            kind = draw(st.sampled_from(("cb", "dft", "dense")))
            factors.append({"cb": CB(k), "dft": DFT(k), "dense": Dense(q[:, k])}[kind])
        states.append(ProductState(tuple(factors), dims))
    return states, dims


@st.composite
def control_dft_circuits(draw):
    """2-4 control-DFT gates on 2-3 parties of dimension 2-3, each with a
    random target and a random subset of the other parties as controls;
    the gate set may or may not be exclusive."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3)))
    gates = []
    for _ in range(draw(st.integers(2, 4))):
        target = draw(st.integers(0, len(dims) - 1))
        controls = {
            p: draw(st.integers(0, d - 1))
            for p, d in enumerate(dims)
            if p != target and draw(st.booleans())
        }
        gates.append(ControlDftGate(controls, target=target))
    return Circuit(dims, gates)


class Float17Encoder(json.JSONEncoder):
    """The standard library's pure-Python encoder with floats formatted to
    17 significant digits: the reference that ``serialize.dumps`` must
    match byte for byte (it was the program's encoder before ``dumps``
    cached the text of shared objects)."""

    def iterencode(self, o, _one_shot=False):
        markers = {} if self.check_circular else None
        if self.ensure_ascii:
            _encoder = json.encoder.encode_basestring_ascii
        else:
            _encoder = json.encoder.encode_basestring

        def floatstr(x, _inf=float("inf")):
            if x != x or x == _inf or x == -_inf:
                raise ValueError("non-finite float is not serializable")
            return format(x, ".17g")

        iterencode = json.encoder._make_iterencode(
            markers,
            self.default,
            _encoder,
            self.indent,
            floatstr,
            self.key_separator,
            self.item_separator,
            self.sort_keys,
            self.skipkeys,
            _one_shot,
        )
        return iterencode(o, 0)


def reference_dumps(obj) -> str:
    return json.dumps(obj, cls=Float17Encoder, indent=2) + "\n"
