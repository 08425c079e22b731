"""JSON schemas for circuits, bases, UPBs, density matrices, and reports.

Complex values are always two-element [re, im] arrays; floats are emitted
with 17 significant digits so re-serialization is byte-identical and
round-trips exactly.  Party indices are 0-based in files.  Integer fields
(dims, indices, targets, control values, rows and cols) must be JSON
integers and control keys decimal strings; anything else is malformed, not
truncated.

A basis or UPB file repeats a few local factors many times (at most 2d
distinct kets per party for a control-DFT basis), so the per-factor work is
done once per distinct factor: ``basis_to_obj`` and ``upb_to_obj`` share
one factor object among its occurrences, ``dumps`` encodes each container
object once per indent depth and reuses the text, and ``basis_from_obj``
and ``upb_from_obj`` build each distinct symbolic factor once.
"""

from __future__ import annotations

import json

import numpy as np

from .circuit import Circuit, ControlDftGate
from .errors import DimensionMismatchError, MalformedJsonError
from .states import CB, DFT, Dense, ProductBasis, ProductState
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

    return encode(obj, 0) + "\n"


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


def factor_from_obj(obj, symbolic: dict | None = None):
    """The factor an object describes.  With a ``symbolic`` memo, a CB or
    DFT factor is looked up by its validated (kind, index) and built only
    on a miss; the key is never the raw JSON index, which for ``true`` or
    ``1.0`` would hash like ``1``."""
    if symbolic is None:
        symbolic = {}
    try:
        kind = obj["kind"]
        if kind == "cb" or kind == "dft":
            key = (kind, _int(obj["index"], "factor index"))
            factor = symbolic.get(key)
            if factor is None:
                factor = symbolic[key] = _SYMBOLIC[kind](key[1])
            return factor
        if kind == "dense":
            return Dense(np.array([_pair_complex(p) for p in obj["entries"]]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad factor object: {exc}") from exc
    raise MalformedJsonError(f"unknown factor kind {kind!r}")


def state_to_obj(state: ProductState) -> dict:
    return _states_to_obj([state])[0]


def state_from_obj(obj, dims, symbolic: dict | None = None) -> ProductState:
    try:
        factors = tuple(factor_from_obj(f, symbolic) for f in obj["factors"])
    except (KeyError, TypeError) as exc:
        raise MalformedJsonError(f"bad state object: {exc}") from exc
    return ProductState(factors, dims)


def _states_to_obj(states) -> list:
    """The states' objects, with one factor object shared by all occurrences
    of a factor: CB and DFT factors by value, Dense ones by entry bytes."""
    shared = {}

    def factor_obj(f):
        key = f.entries.tobytes() if isinstance(f, Dense) else (type(f), f.index)
        obj = shared.get(key)
        if obj is None:
            obj = shared[key] = factor_to_obj(f)
        return obj

    return [{"factors": [factor_obj(f) for f in s.factors]} for s in states]


def _states_from_obj(objs, dims) -> tuple:
    """The states of a set, sharing one memo of symbolic factors."""
    symbolic = {}
    return tuple(state_from_obj(s, dims, symbolic) for s in objs)


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
    states (see ``_states_to_obj``), so it must not be mutated."""
    obj = {
        "dims": list(basis.dims),
        "states": _states_to_obj(basis.states),
    }
    if circuit is not None:
        obj["circuit"] = circuit_to_obj(circuit)
    return obj


def basis_from_obj(obj) -> tuple[ProductBasis, Circuit | None]:
    try:
        dims = _dims(obj)
        states = _states_from_obj(obj["states"], dims)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad basis object: {exc}") from exc
    circuit = circuit_from_obj(obj["circuit"]) if "circuit" in obj else None
    if circuit is not None and circuit.dims != dims:
        raise DimensionMismatchError(
            f"embedded circuit dims {circuit.dims} differ from the basis dims {dims}"
        )
    return ProductBasis(dims, states), circuit


def upb_to_obj(upb: Upb) -> dict:
    """The UPB file's object; like ``basis_to_obj``'s, it shares factor
    objects and must not be mutated."""
    return {
        "dims": list(upb.dims),
        "states": _states_to_obj(upb.states),
        "stopper_index": upb.stopper_index,
    }


def upb_from_obj(obj) -> Upb:
    try:
        dims = _dims(obj)
        states = _states_from_obj(obj["states"], dims)
        stopper = _int(obj["stopper_index"], "stopper_index")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad UPB object: {exc}") from exc
    return Upb(states, dims, stopper_index=stopper)


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
