"""JSON schemas for circuits, bases, UPBs, density matrices, and reports.

Complex values are always two-element [re, im] arrays; floats are emitted
with 17 significant digits so re-serialization is byte-identical and
round-trips exactly.  Party indices are 0-based in files.  Integer fields
(dims, indices, targets, control values, rows and cols) must be JSON
integers and control keys decimal strings; anything else is malformed, not
truncated.
"""

from __future__ import annotations

import json

import numpy as np

from .circuit import Circuit, ControlDftGate
from .errors import DimensionMismatchError, MalformedJsonError
from .states import CB, DFT, Dense, ProductBasis, ProductState
from .upb import Upb


class _Float17Encoder(json.JSONEncoder):
    """Standard encoder with floats formatted to 17 significant digits."""

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


def dumps(obj) -> str:
    return json.dumps(obj, cls=_Float17Encoder, indent=2) + "\n"


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


def factor_from_obj(obj):
    try:
        kind = obj["kind"]
        if kind == "cb":
            return CB(_int(obj["index"], "factor index"))
        if kind == "dft":
            return DFT(_int(obj["index"], "factor index"))
        if kind == "dense":
            return Dense(np.array([_pair_complex(p) for p in obj["entries"]]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad factor object: {exc}") from exc
    raise MalformedJsonError(f"unknown factor kind {kind!r}")


def state_to_obj(state: ProductState) -> dict:
    return {"factors": [factor_to_obj(f) for f in state.factors]}


def state_from_obj(obj, dims) -> ProductState:
    try:
        factors = tuple(factor_from_obj(f) for f in obj["factors"])
    except (KeyError, TypeError) as exc:
        raise MalformedJsonError(f"bad state object: {exc}") from exc
    return ProductState(factors, dims)


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
    obj = {
        "dims": list(basis.dims),
        "states": [state_to_obj(s) for s in basis.states],
    }
    if circuit is not None:
        obj["circuit"] = circuit_to_obj(circuit)
    return obj


def basis_from_obj(obj) -> tuple[ProductBasis, Circuit | None]:
    try:
        dims = _dims(obj)
        states = tuple(state_from_obj(s, dims) for s in obj["states"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad basis object: {exc}") from exc
    circuit = circuit_from_obj(obj["circuit"]) if "circuit" in obj else None
    if circuit is not None and circuit.dims != dims:
        raise DimensionMismatchError(
            f"embedded circuit dims {circuit.dims} differ from the basis dims {dims}"
        )
    return ProductBasis(dims, states), circuit


def upb_to_obj(upb: Upb) -> dict:
    return {
        "dims": list(upb.dims),
        "states": [state_to_obj(s) for s in upb.states],
        "stopper_index": upb.stopper_index,
    }


def upb_from_obj(obj) -> Upb:
    try:
        dims = _dims(obj)
        states = tuple(state_from_obj(s, dims) for s in obj["states"])
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
