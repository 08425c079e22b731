"""Shared test oracles, independent of the library code paths they check."""

import itertools
import json
import math

import numpy as np
from hypothesis import strategies as st

from nlwe.boundent import RANK_EIGENVALUE_THRESHOLD, bipartitions, separability_completion
from nlwe.circuit import Circuit, ControlDftGate, gate_unitary, generate_basis
from nlwe.config import EIGENVALUE_SIGN_TOL, tolerance
from nlwe.ensembles import shift_circuit
from nlwe.errors import ContractViolationError, DimensionMismatchError
from nlwe.linalg import (
    hermitian_eigenvalues,
    partial_transpose,
    require_dense_budget,
    span_dimension,
)
from nlwe.report import cut_label
from nlwe.states import CB, DFT, Dense, LocalFactors, ProductState, factor_dense
from nlwe.upb import extract_upb


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


def circuit_unitary(circuit):
    """Dense reference: the product of the gate unitaries in listed order
    (the last gate acts first)."""
    u = np.eye(math.prod(circuit.dims), dtype=complex)
    for gate in circuit.gates:
        u = u @ gate_unitary(gate, circuit.dims)
    return u


def apply_dense(circuit, cb_input):
    """Dense reference: the circuit unitary applied to the computational
    input vector.  Exclusivity is not required here."""
    flat = np.ravel_multi_index(tuple(cb_input), circuit.dims)
    return circuit_unitary(circuit)[:, flat].copy()


def basis_row(circuit, cb_input):
    """The image of one computational input: its row of ``generate_basis``,
    whose inputs run in lexicographic order."""
    return generate_basis(circuit).states[np.ravel_multi_index(tuple(cb_input), circuit.dims)]


def completion_states(upb, singled_party):
    """``separability_completion`` as ``ProductState``s (ket, Dense(rest)) on
    the cut dims, the dense reference's view; building each one checks its
    ket's index and its rest vector's unit norm within 1e-12."""
    kets, rests, _ = separability_completion(upb, singled_party)
    cut_dims = (upb.dims[singled_party], rests.shape[1])
    return [ProductState((ket, Dense(r)), cut_dims) for ket, r in zip(kets, rests)]


def dft_parties(state):
    """The parties at which a product state carries a dual-basis ket."""
    return tuple(p for p, f in enumerate(state.factors) if isinstance(f, DFT))


def symbolic_key(state):
    """Hashable key of a product state with symbolic factors, one (kind,
    index) pair per party, for comparing sets of states."""
    return tuple((type(f).__name__, f.index) for f in state.factors)


def local_factors(states, dims):
    return [
        [factor_dense(s.factors[j], dims[j]) for j in range(len(dims))]
        for s in states
    ]


def from_states(cls, states, dims, **fields):
    """The set of ``ProductState`` members in listed order, as a ``cls``
    (``LocalFactors`` or a subclass): each party's distinct factors in
    first-seen order and the members' ids there.  ``fields`` are the
    subclass's other fields."""
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


def shift_upb():
    """The SHIFT extraction with every excluded index 0: four members on
    three qubits, unextendible."""
    return extract_upb(shift_circuit(), {0: 0, 1: 0, 2: 0})


def tiles():
    """Tiles on two qutrits (Bennett et al., PRL 82, 5385 (1999)): four
    members with the dense factors (|0> - |1>)/sqrt(2) and (|1> - |2>)/sqrt(2),
    and the stopper F|0> (x) F|0>.  It is unextendible."""
    a = Dense(np.array([1.0, -1.0, 0.0]) / np.sqrt(2))
    b = Dense(np.array([0.0, 1.0, -1.0]) / np.sqrt(2))
    factors = [[CB(0), a, CB(2), b, DFT(0)], [a, CB(2), b, CB(0), DFT(0)]]
    return LocalFactors((3, 3), factors, np.repeat(np.arange(5), 2).reshape(5, 2))


def product_set(left, right):
    """The members s (x) t of two product sets, s-major, as one id table:
    each side keeps its parties' distinct factors, and row (i, k) is left's
    row i followed by right's row k."""
    ids = np.hstack([np.repeat(left.ids, len(right), axis=0), np.tile(right.ids, (len(left), 1))])
    return LocalFactors(left.dims + right.dims, list(left.factors) + list(right.factors), ids)


def without(table, drop):
    """The set with member ``drop`` left out, each party's factors
    renumbered in first-seen order, as a file of those members reads."""
    ids = np.delete(table.ids, drop, axis=0)
    factors = []
    for p, kept in enumerate(table.factors):
        first = {k: x for x, k in enumerate(dict.fromkeys(ids[:, p].tolist()))}
        factors.append([kept[k] for k in first])
        ids[:, p] = [first[k] for k in ids[:, p].tolist()]
    return LocalFactors(table.dims, factors, ids)


def shift_times_cb(d):
    """SHIFT (x) {|0>, ..., |d-1>}, members SHIFT-major."""
    basis = LocalFactors((d,), [[CB(k) for k in range(d)]], np.arange(d).reshape(d, 1))
    return product_set(shift_upb(), basis)


def shift_times_shift():
    return product_set(shift_upb(), shift_upb())


def shift_cubed():
    """SHIFT (x) SHIFT (x) SHIFT: 64 members on nine qubits, unextendible."""
    return product_set(shift_times_shift(), shift_upb())


def tiles_cubed():
    """Tiles (x) Tiles (x) Tiles: 125 members on six qutrits, unextendible."""
    return product_set(product_set(tiles(), tiles()), tiles())


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


def _project_out(v: np.ndarray, basis) -> np.ndarray:
    # two passes of classical Gram-Schmidt for numerical safety
    for _ in range(2):
        for b in basis:
            v = v - np.vdot(b, v) * b
    return v


def gs_orthonormalize(vectors, tol: float | None = None) -> list[np.ndarray]:
    """Reference rank primitive: the Gram-Schmidt routines the library used
    before its SVD, kept unchanged.  Orthonormal basis of span(vectors),
    built in input order.

    Inputs are normalized first, so the result is invariant under nonzero
    rescaling of any input.  Exact zero vectors contribute nothing.
    """
    tol = tolerance(tol)
    basis: list[np.ndarray] = []
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            continue
        v = _project_out(v / nrm, basis)
        resid = np.linalg.norm(v)
        if resid > tol:
            basis.append(v / resid)
    return basis


def gs_span_dimension(vectors, tol: float | None = None) -> int:
    """Dimension of the span, rejecting Gram-Schmidt residuals below tol."""
    return len(gs_orthonormalize(vectors, tol))


def gs_complement_basis(vectors, ambient_dim: int, tol: float | None = None) -> list[np.ndarray]:
    """Orthonormal basis of the orthogonal complement of span(vectors).

    The complement is generated deterministically by sweeping the
    computational basis of the ambient space in index order, so repeated
    calls on the same input produce identical output.
    """
    tol = tolerance(tol)
    seed = gs_orthonormalize(vectors, tol)
    comp: list[np.ndarray] = []
    for i in range(int(ambient_dim)):
        v = np.zeros(int(ambient_dim), dtype=complex)
        v[i] = 1.0
        v = _project_out(v, seed)
        v = _project_out(v, comp)
        resid = np.linalg.norm(v)
        if resid > tol:
            comp.append(v / resid)
    return comp


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

    def dfs(i):
        nonlocal covered, nodes
        if i == m:
            covered += 1
            return tuple(assignment)
        for j in range(n):
            nodes += 1
            v = _project_out(local[i][j], ortho[j])
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


def member_search(factors, tol=1e-9, dominance=False):
    """Reference decider: the library's member->party search as it was
    before it remembered failed states, on the same ``LocalFactors`` table.

    Members in listed order, parties ascending; party masks of interned
    factor ids with memoised ``span_dimension`` ranks; a placement is pruned
    when its party's rank would reach d_j.  Every subtree is walked, so its
    node count is that of ``residual_search``.  With ``dominance``, a member
    whose failed placement added no new factor to its party's mask skips
    its later parties, their completions counted as covered (the library's
    dominance rule, read here from a flag kept per placement).  Returns
    (witness assignment or None, assignments covered, nodes visited).
    """
    dims = factors.dims
    ids = factors.ids.tolist()
    m = len(ids)
    n = len(dims)
    memo = [{} for _ in range(n)]
    masks = [0] * n
    assignment = []  # party chosen for each member placed so far
    saved = []  # the mask each placement replaced, restored on backtrack
    same = []  # whether each placement left its party's mask as it was
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
            if same.pop() and dominance:
                covered += (n - 1 - j) * n ** (m - i)
                j = n
            else:
                j += 1
            continue
        nodes += 1
        grown = masks[j] | 1 << ids[i][j]
        rank = memo[j].get(grown)
        if rank is None:
            picked = [v for k, v in enumerate(factors.rendered(j)) if grown >> k & 1]
            rank = memo[j][grown] = span_dimension(picked, tol)
        if rank >= dims[j]:
            # party j would be fully spanned: no product state can be
            # orthogonal there, so every completion of this branch fails
            covered += n ** (m - i - 1)
            j += 1
            continue
        saved.append(masks[j])
        same.append(grown == masks[j])
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


class DenseDensity:
    """Dense reference for ``boundent.DensityMatrix``: a D x D matrix checked
    as a density matrix (finite, Hermitian within 1e-12, trace 1 within
    1e-10, no eigenvalue below -1e-10), with its ascending LAPACK spectrum
    kept as ``eigenvalues``."""

    def __init__(self, matrix, dims):
        mat = np.asarray(matrix, dtype=complex)
        self.matrix, self.dims = mat, tuple(int(d) for d in dims)
        total = math.prod(self.dims)
        if mat.shape != (total, total):
            raise ContractViolationError(f"matrix shape {mat.shape} does not match dims {dims}")
        if not np.all(np.isfinite(mat)):
            raise ContractViolationError("matrix has a non-finite entry")
        if not float(np.max(np.abs(mat - mat.conj().T), initial=0.0)) <= 1e-12:
            raise ContractViolationError("matrix not Hermitian within 1e-12")
        if not abs(complex(np.trace(mat)) - 1.0) <= 1e-10:
            raise ContractViolationError("trace deviates from 1 beyond 1e-10")
        self.eigenvalues = hermitian_eigenvalues(mat)
        if not float(self.eigenvalues[0]) >= -EIGENVALUE_SIGN_TOL:
            raise ContractViolationError("matrix has a negative eigenvalue")


def complement_mixture(members):
    """The uniform mixture on the complement of a product set, summed over
    the members' dense product states, with no unextendibility gate."""
    total = math.prod(members.dims)
    proj = np.zeros((total, total), dtype=complex)
    for state in members.states:
        v = state.dense()
        proj += np.outer(v, v.conj())
    rho = (np.eye(total) - proj) / (total - len(members))
    return DenseDensity((rho + rho.conj().T) / 2, members.dims)


def dense_rank(rho):
    """Eigenvalues above ``RANK_EIGENVALUE_THRESHOLD`` in the kept spectrum."""
    return int(np.sum(rho.eigenvalues > RANK_EIGENVALUE_THRESHOLD))


def dense_annihilation(rho, members):
    """max_i |<psi_i| rho |psi_i>| over the members' dense product states."""
    return max((abs(complex(s.dense().conj() @ rho.matrix @ s.dense())) for s in members.states),
               default=0.0)


def dense_ppt_minima(rho):
    """The least eigenvalue of the partial transpose on every bipartition,
    by cut label, each from LAPACK."""
    n = len(rho.dims)
    return {
        cut_label(subset, n):
            float(hermitian_eigenvalues(partial_transpose(rho.matrix, rho.dims, subset))[0])
        for subset in bipartitions(n)
    }


@st.composite
def orthonormal_product_sets(draw):
    """A proper subset of an orthonormal product basis on 2-3 parties of
    dimension 2-3, as a ``LocalFactors`` table.  Each branch of the
    basis's tree (the members agreeing on the parties before p) takes its
    own local basis at party p: the computational basis, the dual basis or
    a random unitary's columns (``Dense``), so the members are orthogonal
    within rounding only where dense factors meet."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [()]
    for d in dims:
        grown = []
        for row in rows:
            kind = draw(st.sampled_from(("cb", "dft", "dense", "dense")))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            grown += [row + ({"cb": CB(k), "dft": DFT(k), "dense": Dense(q[:, k])}[kind],)
                      for k in range(d)]
        rows = grown
    keep = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=len(rows) - 1,
                         unique=True))
    return from_states(LocalFactors, [ProductState(rows[i], dims) for i in keep], dims)


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


def _dense_factors(draw, d):
    """A unit vector of dimension d (entries of either sign, -0.0 among
    them), a bit-identical copy of it, and a copy one ulp away in one
    entry."""
    parts = st.lists(st.floats(-1, 1), min_size=d, max_size=d)
    v = np.array(draw(parts)) + 1j * np.array(draw(parts))
    v[0] += 2.0  # keeps the norm at least 1
    v /= np.linalg.norm(v)
    near = v.copy()
    near[0] = complex(np.nextafter(v[0].real, 2.0), v[0].imag)
    return [Dense(v), Dense(v.copy()), Dense(near)]


@st.composite
def product_rows(draw, max_members=40):
    """``(rows, dims)``: 1-``max_members`` members on 1-4 parties of
    dimension 2-5, each member a tuple of factors drawn from a per-party
    pool of computational, dual and dense kets, the dense ones including
    bit-identical and nearly identical pairs.  Members need not be
    orthogonal."""
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    pools = []
    for d in dims:
        pool = [CB(i) for i in range(d)] + [DFT(i) for i in range(d)]
        for _ in range(draw(st.integers(0, 2))):
            pool += _dense_factors(draw, d)
        pools.append(pool)
    row = st.tuples(*[st.sampled_from(pool) for pool in pools])
    return draw(st.lists(row, min_size=1, max_size=max_members)), dims


def product_tables(max_members=40):
    """The ``LocalFactors`` tables of ``product_rows``."""
    return product_rows(max_members).map(
        lambda case: from_states(LocalFactors, [ProductState(r, case[1]) for r in case[0]], case[1])
    )


def reference_interning(rows, n):
    """Each party's distinct factors in first-seen order, and the members'
    ids, interned by a key read from each factor: (kind, index) for a
    symbolic ket, the entries' bytes for a dense one.  Keys are found by a
    linear scan, so neither factor equality nor hashing is involved."""
    keys = [[] for _ in range(n)]
    distinct = [[] for _ in range(n)]
    ids = []
    for row in rows:
        for p, f in enumerate(row):
            key = f.entries.tobytes() if isinstance(f, Dense) else (type(f).__name__, f.index)
            if key not in keys[p]:
                keys[p].append(key)
                distinct[p].append(f)
            ids.append(keys[p].index(key))
    return distinct, np.array(ids, dtype=np.intp).reshape(len(rows), n)


@st.composite
def circuits_on(draw, dims, min_gates=0, max_gates=3):
    """Control-DFT gates on ``dims``, each with a random target and a
    random subset of the other parties as controls; the gate set may or
    may not be exclusive."""
    gates = []
    for _ in range(draw(st.integers(min_gates, max_gates))):
        target = draw(st.integers(0, len(dims) - 1))
        controls = {
            p: draw(st.integers(0, d - 1))
            for p, d in enumerate(dims)
            if p != target and draw(st.booleans())
        }
        gates.append(ControlDftGate(controls, target=target))
    return Circuit(dims, gates)


@st.composite
def control_dft_circuits(draw):
    """2-4 control-DFT gates on 2-3 parties of dimension 2-3."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3)))
    return draw(circuits_on(dims, 2, 4))


class Float17Encoder(json.JSONEncoder):
    """The standard library's pure-Python encoder with floats formatted to
    17 significant digits, and -0.0 as ``-0.0`` so that JSON reads back a
    float with its sign: the reference that ``serialize.dumps``,
    ``basis_pieces`` and ``upb_pieces`` must match byte for byte (it was the
    program's encoder before ``dumps``)."""

    def iterencode(self, o, _one_shot=False):
        markers = {} if self.check_circular else None
        if self.ensure_ascii:
            _encoder = json.encoder.encode_basestring_ascii
        else:
            _encoder = json.encoder.encode_basestring

        def floatstr(x, _inf=float("inf")):
            if x != x or x == _inf or x == -_inf:
                raise ValueError("non-finite float is not serializable")
            text = format(x, ".17g")
            return "-0.0" if text == "-0" else text

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


SCALE_RANGE = (0.25, 4.0)


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


def isotropy_dimension_dense(d):
    """Dense reference for ``lemma.isotropy_dimension``: the null-space
    dimension of the whole 2d(d - 1) x d^2 constraint matrix on the entries
    of E, one row <b_i|E|b_j> = sum_kl conj(b_i[k]) b_j[l] E[k, l] per
    ordered pair i != j of the computational and the dual basis, with no
    elimination and numpy's own rank rule."""
    rows = [
        np.outer(basis[:, i].conj(), basis[:, j]).ravel()
        for basis in (np.eye(d), np.array([dft_col(n, d) for n in range(d)]).T)
        for i in range(d)
        for j in range(d)
        if i != j
    ]
    return d * d - (np.linalg.matrix_rank(np.array(rows)) if rows else 0)
