"""Named preset constructions and the generic n-party circuit family.

The canonical n-party circuit has one gate per party.  Gate k targets party
n-1-k; its controls assign party s the value (s+k) mod n.  Successive gates
are cyclic slot-shifts of the first, so the whole set is exclusive whenever
every local dimension is at least n-1.
"""

from __future__ import annotations

import re

import numpy as np

from .circuit import Circuit, ControlDftGate
from .errors import ConstructionError, TooLargeError, UnknownPresetError
from .linalg import require_dense_budget
from .report import party_label
from .states import ProductBasis, factor_descriptor


def _check_canonical(n: int, dims, parties: int) -> None:
    """Refuse the canonical circuit on n parties with ``parties`` local
    dimensions ``dims`` (party j's at j): n below 3, ``parties`` other than
    n, a d below n - 1, then a d x d local factor table above the dense
    budget (the table that the commutation check and ``upb.extract_upb``
    build; it bounds n to 2049), before any gate is built."""
    if n < 3:
        raise ConstructionError(f"canonical circuit needs n >= 3 parties, got {n}")
    if parties != n:
        raise ConstructionError(f"expected {n} dimensions, got {parties}")
    for j, d in enumerate(dims):
        if d < n - 1:
            raise ConstructionError(
                f"party {party_label(j)} has d_{j + 1} = {d} < {n - 1}; "
                f"every local dimension must be at least n-1"
            )
    for d in dims:
        require_dense_budget(d, d, "the local factor table")


def canonical_gates(n: int, dims) -> list[tuple]:
    """The gates of the canonical circuit on n parties of dimensions
    ``dims``, as (target, controls) pairs in order, controls ascending by
    party as ``ControlDftGate`` keeps them: gate k targets party n-1-k and
    requires (s+k) mod n at each other party s.

    Violating the dimension condition raises a construction error naming the
    offending party; a local dimension whose d x d table would not fit the
    dense budget is too large.
    """
    n = int(n)
    _check_canonical(n, tuple(int(d) for d in dims), len(dims))
    return [(n - 1 - k, tuple((s, (s + k) % n) for s in range(n) if s != n - 1 - k))
            for k in range(n)]


def canonical_circuit(n: int, dims) -> Circuit:
    """The n-gate exclusive circuit on n parties with d_j >= n-1
    (``canonical_gates``)."""
    dims = tuple(int(d) for d in dims)
    return Circuit(dims, [ControlDftGate(controls, target=target)
                          for target, controls in canonical_gates(n, dims)])


def shift_circuit() -> Circuit:
    """Three-qubit canonical circuit (generates the SHIFT ensemble)."""
    return canonical_circuit(3, (2, 2, 2))


def four_qutrit_circuit() -> Circuit:
    """Four-qutrit canonical circuit (minimal four-party gate set)."""
    return canonical_circuit(4, (3, 3, 3, 3))


# Control pattern of the extra four-qutrit gate family: slot s of the first
# extra gate requires value _EXTRA_PATTERN[s]; the remaining gates are the
# same cyclic slot-shifts used by the canonical family.
_EXTRA_PATTERN = {0: 0, 1: 2, 2: 1}


def extended_circuit_fig4() -> Circuit:
    """Four-qutrit circuit with a second exclusive gate family (8 gates).

    The first added gate fires on |0>|2>|1> at parties A, B, C and applies
    the qutrit DFT to party D; its cyclic shifts complete the family.  The
    combined circuit stays exclusive, and its basis carries strictly more
    dual-basis factors than the minimal four-qutrit one.
    """
    base = four_qutrit_circuit()
    n = 4
    extra = []
    for k in range(n):
        target = n - 1 - k
        controls = {
            s: _EXTRA_PATTERN[(s + k) % n] for s in range(n) if s != target
        }
        extra.append(ControlDftGate(controls, target=target))
    return Circuit(base.dims, base.gates + extra)


def local_factor_census(basis: ProductBasis, party: int) -> dict[str, int]:
    """Count the distinct local factor descriptors one party sees.

    For a basis generated by a canonical circuit the census never exceeds
    2*d descriptors: the d computational and d dual-basis kets.  The
    members of each distinct factor are counted from the basis's ids;
    dense factors that differ only past the descriptor's rounding are
    counted together.
    """
    kept = basis.factors[party]
    counts = np.bincount(basis.ids[:, party], minlength=len(kept))
    census = {}
    for factor, count in zip(kept, counts.tolist()):
        key = factor_descriptor(factor)
        census[key] = census.get(key, 0) + count
    return census


_CANONICAL_RE = re.compile(r"^canonical:n=(\d+),d=([\d,]+)$")


def preset_circuit(name: str, size=None) -> Circuit:
    """Resolve a CLI preset name to its circuit.

    Accepted: ``oneway``, ``shift``, ``fig4``,
    ``canonical:n=<n>,d=<d1,..,dn>``.  ``size`` is a check of the dims
    that the caller's set must pass (``circuit.require_basis_size``,
    ``upb.require_upb_size``): a canonical preset that fails it is refused
    before any gate is built.
    """
    if name == "oneway":
        return Circuit((2, 2), [ControlDftGate({0: 1}, target=1)])
    if name == "shift":
        return shift_circuit()
    if name == "fig4":
        return extended_circuit_fig4()
    m = _CANONICAL_RE.match(name)
    if m:
        try:
            n = int(m.group(1))
            dims = tuple(int(tok) for tok in m.group(2).split(",") if tok)
        except ValueError:  # more digits than the interpreter converts
            raise TooLargeError("a preset number has too many digits") from None
        if len(dims) == 1:
            # one d for all n parties: checked once before it is repeated
            _check_canonical(n, dims, n)
            dims = dims * n
        if size:  # the circuit's own faults first, then the set's size
            _check_canonical(n, dims, len(dims))
            size(dims)
        return canonical_circuit(n, dims)
    raise UnknownPresetError(
        f"no preset named {name!r}; expected oneway, shift, fig4, or "
        f"canonical:n=<n>,d=<d1,..,dn>"
    )
