"""JSON schemas for circuits, bases, UPBs, density matrices, and reports.

Complex values are always two-element [re, im] arrays; floats are emitted
with 17 significant digits so re-serialization is byte-identical and
round-trips exactly.  Party indices are 0-based in files.  Integer fields
(dims, indices, targets, control values, rows and cols) must be JSON
integers and control keys decimal strings; anything else is malformed, not
truncated.

A basis or UPB file lists every member's factors, but a set is held as one
``states.LocalFactors`` table with a few distinct factors per party (at
most 2d for a control-DFT basis), so the per-factor work is done once per
distinct factor.  ``basis_to_obj`` and ``upb_to_obj`` take one shared
factor object per distinct factor from the table and ``dumps`` encodes
each container object once per indent depth and reuses the text.  One
loader (``_table_from_obj``) fills the table for both file kinds: it
checks each factor object's shape, kind and integer index where it reads
it, and each distinct factor's range, dimension, finiteness and norm once.
"""

from __future__ import annotations

import json

import numpy as np

from .circuit import Circuit, ControlDftGate
from .errors import DimensionMismatchError, MalformedJsonError
from .states import (
    CB,
    DFT,
    Dense,
    LocalFactors,
    ProductBasis,
    ProductState,
    check_factor,
    factor_key,
)
from .upb import Upb


_encode_str = json.encoder.encode_basestring_ascii


def _scalar_text(value, _inf=float("inf")) -> str:
    """JSON text of a str, None, bool, int or float (subclasses included);
    a float has 17 significant digits, and NaN or an infinity raises."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value or value == _inf or value == -_inf:
            raise ValueError("non-finite float is not serializable")
        return format(value, ".17g")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key_text(key) -> str:
    """A dict key's JSON text: a string, or a number, bool or None quoted."""
    return _encode_str(key) if isinstance(key, str) else '"' + _scalar_text(key) + '"'


def dumps(obj) -> str:
    """JSON text of ``obj`` with a 2-space indent, ASCII-escaped strings and
    floats in 17 significant digits, plus a final newline; a non-finite
    float raises ``ValueError``.

    Values are dicts, lists, tuples, strings, ints, floats (numpy floats
    included), booleans and None.  The text of each dict, list or tuple is
    cached by its id and indent depth, so an object that occurs many times
    at one depth (a shared factor object) is encoded once.
    """
    texts = {}
    open_ids = set()

    def encode(value, depth):
        if not isinstance(value, (list, tuple, dict)):
            return _scalar_text(value)
        key = (id(value), depth)
        text = texts.get(key)
        if text is not None:
            return text
        if id(value) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(value))
        pad = "\n" + "  " * (depth + 1)
        if isinstance(value, dict):
            items = [_key_text(k) + ": " + encode(v, depth + 1) for k, v in value.items()]
            brackets = "{}"
        else:
            items = [encode(v, depth + 1) for v in value]
            brackets = "[]"
        open_ids.discard(id(value))
        if items:
            text = brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]
        else:
            text = brackets
        texts[key] = text
        return text

    try:
        return encode(obj, 0) + "\n"
    finally:
        # ``encode`` refers to itself, a cycle that would keep every cached
        # text alive until the next full garbage collection
        texts.clear()


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(f"invalid JSON: {exc}") from exc


def load_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise MalformedJsonError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedJsonError(f"{path} is not UTF-8 text: {exc}") from exc


def _int(value, field: str) -> int:
    """A JSON integer field; a float, boolean or string is refused."""
    if type(value) is not int:
        raise MalformedJsonError(f"{field} must be a JSON integer, got {value!r}")
    return value


def _dims(obj) -> tuple:
    return tuple(_int(d, "dims entry") for d in obj["dims"])


def _party_key(key) -> int:
    """A control key: the party index as a decimal string (JSON keys are strings)."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit()):
        raise MalformedJsonError(f"control key must be a decimal string, got {key!r}")
    return int(key)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pair_complex(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def factor_to_obj(factor) -> dict:
    if isinstance(factor, CB):
        return {"kind": "cb", "index": factor.index}
    if isinstance(factor, DFT):
        return {"kind": "dft", "index": factor.index}
    return {"kind": "dense", "entries": [_complex_pair(z) for z in factor.entries]}


_SYMBOLIC = {"cb": CB, "dft": DFT}


def _factor_key(obj):
    """The key under which the loader interns the factor a file object
    describes, after checking the object's shape, kind and index type: a
    ("cb" | "dft", index) pair, or a dense factor's entry bytes.  The index
    must be a JSON integer, so ``true`` or ``1.0``, which hash like ``1``,
    never find the factor a ``1`` made."""
    try:
        kind = obj["kind"]
        if kind == "cb" or kind == "dft":
            return kind, _int(obj["index"], "factor index")
        if kind == "dense":
            return np.array([_pair_complex(p) for p in obj["entries"]], dtype=complex).tobytes()
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad factor object: {exc}") from exc
    raise MalformedJsonError(f"unknown factor kind {kind!r}")


def _table_from_obj(objs, dims) -> LocalFactors:
    """The table of a file's ``states`` list.

    Each state's ``factors`` must be a list with one factor object per
    party.  A factor seen for the first time at a party is built (once per
    file for all parties), checked against that party's dimension
    (``states.check_factor``) and given the next id there.
    """
    made = {}
    seen = [{} for _ in dims]
    distinct = [[] for _ in dims]
    rows = []
    for state in objs:
        try:
            factor_objs = state["factors"]
        except (KeyError, TypeError) as exc:
            raise MalformedJsonError(f"bad state object: {exc}") from exc
        if not isinstance(factor_objs, list):
            raise MalformedJsonError(
                f"a state's factors must be a list, got {type(factor_objs).__name__}"
            )
        keys = [_factor_key(f) for f in factor_objs]
        if len(keys) != len(dims):
            raise DimensionMismatchError(f"{len(keys)} factors for {len(dims)} parties")
        row = []
        for key, key_ids, kept, d in zip(keys, seen, distinct, dims):
            k = key_ids.get(key)
            if k is None:
                factor = made.get(key)
                if factor is None:
                    factor = made[key] = (
                        Dense(np.frombuffer(key, dtype=complex)) if isinstance(key, bytes)
                        else _SYMBOLIC[key[0]](key[1])
                    )
                check_factor(factor, d)
                k = key_ids[key] = len(kept)
                kept.append(factor)
            row.append(k)
        rows.append(row)
    return LocalFactors(dims, distinct, np.array(rows, dtype=np.intp).reshape(len(rows), len(dims)))


def _table_to_obj(table: LocalFactors) -> list:
    """The members' objects, with one factor object shared by every
    occurrence of a factor at any party: CB and DFT factors by value,
    dense ones by entry bytes."""
    shared = {}
    columns = []
    for kept, col in zip(table.factors, table.ids.T.tolist()):
        objs = []
        for f in kept:
            key = factor_key(f)
            obj = shared.get(key)
            if obj is None:
                obj = shared[key] = factor_to_obj(f)
            objs.append(obj)
        columns.append([objs[k] for k in col])
    return [{"factors": list(row)} for row in zip(*columns)]


def state_to_obj(state: ProductState) -> dict:
    return _table_to_obj(LocalFactors.from_states([state], state.dims))[0]


def state_from_obj(obj, dims) -> ProductState:
    return _table_from_obj([obj], tuple(dims)).states()[0]


def circuit_to_obj(circuit: Circuit) -> dict:
    return {
        "dims": list(circuit.dims),
        "gates": [
            {"controls": {str(p): v for p, v in g.controls}, "target": g.target}
            for g in circuit.gates
        ],
    }


def circuit_from_obj(obj) -> Circuit:
    try:
        dims = _dims(obj)
        gates = [
            ControlDftGate(
                {_party_key(p): _int(v, "control value") for p, v in g["controls"].items()},
                target=_int(g["target"], "target"),
            )
            for g in obj["gates"]
        ]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedJsonError(f"bad circuit object: {exc}") from exc
    return Circuit(dims, gates)


def basis_to_obj(basis: ProductBasis, circuit: Circuit | None = None) -> dict:
    """The basis file's object.  Its factor objects are shared between
    states (see ``_table_to_obj``), so it must not be mutated."""
    obj = {
        "dims": list(basis.dims),
        "states": _table_to_obj(basis.table),
    }
    if circuit is not None:
        obj["circuit"] = circuit_to_obj(circuit)
    return obj


def basis_from_obj(obj) -> tuple[ProductBasis, Circuit | None]:
    try:
        dims = _dims(obj)
        table = _table_from_obj(obj["states"], dims)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad basis object: {exc}") from exc
    circuit = circuit_from_obj(obj["circuit"]) if "circuit" in obj else None
    if circuit is not None and circuit.dims != dims:
        raise DimensionMismatchError(
            f"embedded circuit dims {circuit.dims} differ from the basis dims {dims}"
        )
    return ProductBasis(table), circuit


def upb_to_obj(upb: Upb) -> dict:
    """The UPB file's object; like ``basis_to_obj``'s, it shares factor
    objects and must not be mutated."""
    return {
        "dims": list(upb.dims),
        "states": _table_to_obj(upb.table),
        "stopper_index": upb.stopper_index,
    }


def upb_from_obj(obj) -> Upb:
    try:
        dims = _dims(obj)
        table = _table_from_obj(obj["states"], dims)
        stopper = _int(obj["stopper_index"], "stopper_index")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad UPB object: {exc}") from exc
    return Upb(table, stopper)


def density_to_obj(matrix: np.ndarray, dims) -> dict:
    matrix = np.asarray(matrix, dtype=complex)
    rows, cols = matrix.shape
    return {
        "dims": list(int(d) for d in dims),
        "rows": rows,
        "cols": cols,
        "entries": [_complex_pair(z) for z in matrix.reshape(-1)],
    }


def density_from_obj(obj) -> tuple[np.ndarray, tuple]:
    try:
        dims = _dims(obj)
        rows = _int(obj["rows"], "rows")
        cols = _int(obj["cols"], "cols")
        flat = np.array([_pair_complex(p) for p in obj["entries"]])
        matrix = flat.reshape(rows, cols)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad density-matrix object: {exc}") from exc
    return matrix, dims
