"""JSON schemas for circuits, bases, UPBs, density matrices, operators
and reports: every file the command line reads or writes.

Complex values are always two-element [re, im] arrays of JSON numbers;
floats are emitted with 17 significant digits so re-serialization is
byte-identical and round-trips exactly; -0.0 is written as ``-0.0``, as
``-0`` would read back as the integer 0 and lose the sign.  Party
indices are 0-based in files.  Integer fields (dims, indices, targets,
control values, rows and cols) must be JSON integers and control keys
decimal strings; anything else is malformed, not truncated.  A dims
entry below 1 is an invalid dimension, and one whose factor would not
fit the dense budget is too large.

A basis or UPB file lists every member's factors, but a set is one
``states.LocalFactors`` table (a ``ProductBasis`` or ``Upb``) with a few
distinct factors per party (at most 2d for a control-DFT basis), so the
per-factor work is done once per distinct factor.  ``basis_pieces`` and
``upb_pieces`` stream a file from the table, one text piece per member
between a head and a tail: each distinct factor's text is encoded once
per party and each member's text is one join of those texts, so a writer
holds one member's text at a time.  The pieces join (``basis_text``,
``upb_text``) byte for byte to the text that ``dumps`` gives for
``basis_to_obj`` and ``upb_to_obj`` (which share one factor object per
distinct factor).  ``loads`` shares factor objects the same way: equal
symbolic factor objects of a file are one dict, so a loaded basis holds a
few factor objects, not one per occurrence.  One loader
(``_table_from_obj``) reads the factors and ids for both file kinds in
one pass: it checks each distinct factor object's shape, kind and integer
index where it first reads it, and each distinct factor's range,
dimension, finiteness and norm once.

``density_pieces`` streams a density-matrix file from the array, one piece
per matrix row, each one %-format of the row's float parts; the pieces
join (``density_text``) byte for byte to ``dumps`` of ``density_to_obj``,
which stays the writer's reference.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .circuit import Circuit, ControlDftGate
from .errors import DimensionMismatchError, InvalidDimensionError, MalformedJsonError
from .linalg import require_dense_budget
from .states import (
    CB,
    DFT,
    Dense,
    LocalFactors,
    ProductBasis,
    check_factor,
)
from .upb import Upb


_encode_str = json.encoder.encode_basestring_ascii


def _scalar_text(value, _inf=float("inf")) -> str:
    """JSON text of a str, None, bool, int or float (subclasses included);
    a float has 17 significant digits (-0.0 is ``-0.0``, which keeps its
    sign when read back), and NaN or an infinity raises."""
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
        text = format(value, ".17g")
        return "-0.0" if text == "-0" else text
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key_text(key) -> str:
    """A dict key's JSON text: a string, or a number, bool or None quoted."""
    return _encode_str(key) if isinstance(key, str) else '"' + _scalar_text(key) + '"'


def _container_text(items, depth: int, brackets: str = "[]") -> str:
    """``brackets`` around the element texts ``items``, one per line at
    indent depth ``depth + 1``, the closing bracket at ``depth``."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _encode(value, depth: int, open_ids: set) -> str:
    """JSON text of ``value`` with its first line at indent depth ``depth``;
    ``open_ids`` holds the ids of the containers being encoded around it."""
    if not isinstance(value, (list, tuple, dict)):
        return _scalar_text(value)
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(value))
    if isinstance(value, dict):
        items = [_key_text(k) + ": " + _encode(v, depth + 1, open_ids) for k, v in value.items()]
        text = _container_text(items, depth, "{}")
    else:
        text = _container_text([_encode(v, depth + 1, open_ids) for v in value], depth)
    open_ids.discard(id(value))
    return text


def dumps(obj) -> str:
    """JSON text of ``obj`` with a 2-space indent, ASCII-escaped strings and
    floats in 17 significant digits, plus a final newline; a non-finite
    float raises ``ValueError``.

    Values are dicts, lists, tuples, strings, ints, floats (numpy floats
    included), booleans and None.
    """
    return _encode(obj, 0, set()) + "\n"


def loads(text: str):
    """The JSON value of ``text``, with one dict shared by every object
    that has exactly the keys ``kind`` (a string) and ``index`` (an
    integer) with equal values: a file's symbolic factor objects, so a
    basis file holds a few factor objects, not one per occurrence.  Like
    ``basis_to_obj``'s, the tree must not be mutated.

    Every other object is kept as parsed, and nothing is checked here: an
    object whose index is ``true`` or ``1.0`` is its own, since only JSON
    integers are keys, and the loaders find its faults as for plain
    ``json.loads``."""
    shared = {}

    def share(obj):
        if len(obj) == 2:
            kind, index = obj.get("kind"), obj.get("index")
            if type(kind) is str and type(index) is int:
                return shared.setdefault((kind, index), obj)
        return obj

    try:
        return json.loads(text, object_hook=share)
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
    """JSON integers of at least 1, each within the dense budget as a 1 x d row."""
    dims = tuple(_int(d, "dims entry") for d in obj["dims"])
    for d in dims:
        if d < 1:
            raise InvalidDimensionError(f"dims entry {d} is below 1")
        require_dense_budget(1, d, "a local factor")
    return dims


def _party_key(key) -> int:
    """A control key: the party index as a decimal string (JSON keys are strings)."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit()):
        raise MalformedJsonError(f"control key must be a decimal string, got {key!r}")
    return int(key)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


_NUMBER = (int, float)


def _pair_complex(pair) -> complex:
    """A [re, im] entry; each part must be a JSON number, so a string or a
    boolean is refused rather than converted."""
    re, im = pair
    if type(re) not in _NUMBER or type(im) not in _NUMBER:
        raise MalformedJsonError(f"a complex entry must be two JSON numbers, got {pair!r}")
    return complex(re, im)


def factor_to_obj(factor) -> dict:
    if isinstance(factor, CB):
        return {"kind": "cb", "index": factor.index}
    if isinstance(factor, DFT):
        return {"kind": "dft", "index": factor.index}
    return {"kind": "dense", "entries": [_complex_pair(z) for z in factor.entries]}


_SYMBOLIC = {"cb": CB, "dft": DFT}


def _factor_key(obj):
    """A factor object's interning key: a ("cb" | "dft", index) pair, the
    index a JSON integer (so ``true`` or ``1.0``, which hash like ``1``,
    never find the factor a ``1`` made), or a dense factor's entry bytes
    (the bytes a ``Dense`` compares and hashes by)."""
    kind = obj["kind"]
    if kind == "cb" or kind == "dft":
        index = obj["index"]
        if type(index) is not int:
            raise MalformedJsonError(f"factor index must be a JSON integer, got {index!r}")
        return kind, index
    if kind == "dense":
        return np.array([_pair_complex(z) for z in obj["entries"]], dtype=complex).tobytes()
    raise MalformedJsonError(f"unknown factor kind {kind!r}")


def _table_from_obj(objs, dims) -> tuple[list, np.ndarray]:
    """The ``factors`` and ``ids`` of the set in a file's ``states`` list,
    for the caller to make a ``ProductBasis`` or ``Upb`` on ``dims``.

    Each state's ``factors`` must be a list with one factor object per
    party.  A factor object is interned under its ``_factor_key``, read
    once per distinct object (``loads`` shares equal symbolic ones): the
    keys are held by ``id``, which stays valid while ``objs`` is alive.
    Every factor object of a state is read before its length is compared
    with the parties'.  A key seen for the first time at a party is then
    built into a factor (once per file for all parties), checked against
    that party's dimension (``states.check_factor``) and given the next id
    there.
    """
    n = len(dims)
    keys = {}  # id of a factor object -> its key
    made = {}
    seen = [{} for _ in dims]
    distinct = [[] for _ in dims]
    ids = []
    new = []  # (position in ids, party, key) of this state's unseen keys
    for state in objs:
        try:
            factor_objs = state["factors"]
        except (KeyError, TypeError) as exc:
            raise MalformedJsonError(f"bad state object: {exc}") from exc
        if not isinstance(factor_objs, list):
            raise MalformedJsonError(
                f"a state's factors must be a list, got {type(factor_objs).__name__}"
            )
        try:
            for p, obj in enumerate(factor_objs):
                key = keys.get(id(obj))
                if key is None:
                    key = keys[id(obj)] = _factor_key(obj)
                if p < n:
                    k = seen[p].get(key)
                    if k is None:
                        new.append((len(ids), p, key))
                    ids.append(k)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedJsonError(f"bad factor object: {exc}") from exc
        if len(factor_objs) != n:
            raise DimensionMismatchError(f"{len(factor_objs)} factors for {n} parties")
        for at, p, key in new:
            factor = made.get(key)
            if factor is None:
                factor = made[key] = (
                    Dense(np.frombuffer(key, dtype=complex)) if isinstance(key, bytes)
                    else _SYMBOLIC[key[0]](key[1])
                )
            check_factor(factor, dims[p])
            ids[at] = seen[p][key] = len(distinct[p])
            distinct[p].append(factor)
        new.clear()
    return distinct, np.array(ids, dtype=np.intp).reshape(len(objs), n)


def _table_to_obj(table: LocalFactors) -> list:
    """The members' objects, with one factor object shared by every
    occurrence of a factor at any party (a factor is its own key)."""
    shared = {}
    columns = []
    for kept, col in zip(table.factors, table.ids.T.tolist()):
        objs = [shared.setdefault(f, factor_to_obj(f)) for f in kept]
        columns.append([objs[k] for k in col])
    rows = zip(*columns) if columns else [()] * len(table.ids)
    return [{"factors": list(row)} for row in rows]


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
        "states": _table_to_obj(basis),
    }
    if circuit is not None:
        obj["circuit"] = circuit_to_obj(circuit)
    return obj


def basis_from_obj(obj) -> tuple[ProductBasis, Circuit | None]:
    try:
        dims = _dims(obj)
        factors, ids = _table_from_obj(obj["states"], dims)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad basis object: {exc}") from exc
    circuit = circuit_from_obj(obj["circuit"]) if "circuit" in obj else None
    if circuit is not None and circuit.dims != dims:
        raise DimensionMismatchError(
            f"embedded circuit dims {circuit.dims} differ from the basis dims {dims}"
        )
    return ProductBasis(dims, factors, ids), circuit


def upb_to_obj(upb: Upb) -> dict:
    """The UPB file's object; like ``basis_to_obj``'s, it shares factor
    objects and must not be mutated."""
    return {
        "dims": list(upb.dims),
        "states": _table_to_obj(upb),
        "stopper_index": upb.stopper_index,
    }


def _set_pieces(table: LocalFactors, tail: dict):
    """The text of ``{"dims": ..., "states": [...], **tail}`` for a basis or
    UPB file, byte for byte ``dumps`` of ``basis_to_obj``/``upb_to_obj``,
    as pieces: the head, one piece per member, then the tail.  It is
    written from the table: each party's distinct factors are encoded
    once, at the depth where factor objects sit, and each member's text is
    one join of its factors' texts inside a fixed frame."""
    # indent depths: the file 0, "states" 1, a member 2, its "factors" 3,
    # a factor object 4
    texts = [[_encode(factor_to_obj(f), 4, set()) for f in kept] for kept in table.factors]
    columns = [[t[k] for k in col] for t, col in zip(texts, table.ids.T.tolist())]
    if columns:
        frame = _container_text(['"factors": ' + _container_text(["\0"], 3)], 2, "{}")
        before, _, after = frame.partition("\0")
        sep = ",\n" + "  " * 4
        members = (before + sep.join(row) + after for row in zip(*columns))
    else:
        members = [_container_text(['"factors": []'], 2, "{}")] * len(table.ids)
    # the frame that _container_text(items, 0, "{}") puts around the items
    # "dims", "states" and the tail's, with the members at depth 2
    head = '{\n  "dims": ' + _encode(list(table.dims), 1, set()) + ',\n  "states": '
    end = "".join(",\n  " + _key_text(k) + ": " + _encode(v, 1, set())
                  for k, v in tail.items()) + "\n}\n"
    if not len(table.ids):
        yield head + "[]" + end
        return
    yield head + "["
    lead = "\n    "
    for member in members:
        yield lead + member
        lead = ",\n    "
    yield "\n  ]" + end


def basis_pieces(basis: ProductBasis, circuit: Circuit | None = None):
    """The basis file's text in pieces, one per member between a head and
    a tail; they join to ``dumps(basis_to_obj(basis, circuit))``."""
    return _set_pieces(basis, {} if circuit is None else {"circuit": circuit_to_obj(circuit)})


def upb_pieces(upb: Upb):
    """The UPB file's text in pieces; they join to ``dumps(upb_to_obj(upb))``."""
    return _set_pieces(upb, {"stopper_index": upb.stopper_index})


def basis_text(basis: ProductBasis, circuit: Circuit | None = None) -> str:
    """The basis file's text: ``dumps(basis_to_obj(basis, circuit))``."""
    return "".join(basis_pieces(basis, circuit))


def upb_text(upb: Upb) -> str:
    """The UPB file's text: ``dumps(upb_to_obj(upb))``."""
    return "".join(upb_pieces(upb))


def upb_from_obj(obj) -> Upb:
    try:
        dims = _dims(obj)
        factors, ids = _table_from_obj(obj["states"], dims)
        stopper = _int(obj["stopper_index"], "stopper_index")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad UPB object: {exc}") from exc
    return Upb(dims, factors, ids, stopper)


def density_to_obj(matrix: np.ndarray, dims) -> dict:
    matrix = np.asarray(matrix, dtype=complex)
    rows, cols = matrix.shape
    return {
        "dims": list(int(d) for d in dims),
        "rows": rows,
        "cols": cols,
        "entries": [_complex_pair(z) for z in matrix.reshape(-1)],
    }


def density_pieces(matrix: np.ndarray, dims):
    """The density-matrix file's text in pieces: the head, one piece per
    matrix row, then the tail; they join to ``dumps(density_to_obj(matrix,
    dims))``.  Each row's entries are formatted by one ``%.17g`` %-format
    over its float parts, and each exact ``-0`` token is then written
    ``-0.0`` as ``dumps`` writes it, so a writer holds one row's text at a
    time.  A non-finite entry raises ``ValueError`` before any piece."""
    matrix = np.asarray(matrix, dtype=complex)
    rows, cols = matrix.shape
    parts = np.ascontiguousarray(matrix).view(float)  # row r: re, im, re, ...
    if not np.isfinite(parts).all():
        raise ValueError("non-finite float is not serializable")
    # indent depths: the file 0, "entries" 1, an entry 2, its parts 3
    items = ['"dims": ' + _encode([int(d) for d in dims], 1, set()),
             f'"rows": {rows}', f'"cols": {cols}', '"entries": \0']
    head, _, tail = (_container_text(items, 0, "{}") + "\n").partition("\0")
    if not parts.size:
        return (head + "[]" + tail,)
    row = ",\n    ".join(["[\n      %.17g,\n      %.17g\n    ]"] * cols)
    first, rest = "[\n    " + row, ",\n    " + row
    texts = ((rest if r else first) % tuple(p.tolist()) for r, p in enumerate(parts))
    pieces = (t.replace(" -0,\n", " -0.0,\n").replace(" -0\n", " -0.0\n") for t in texts)
    return itertools.chain((head,), pieces, ("\n  ]" + tail,))


def density_text(matrix: np.ndarray, dims) -> str:
    """The density-matrix file's text: ``dumps(density_to_obj(matrix, dims))``."""
    return "".join(density_pieces(matrix, dims))


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


def operator_from_obj(obj) -> np.ndarray:
    """The operator of a ``lemma --kraus`` file: ``{"matrix": [[[re, im],
    ...], ...]}``, rows of [re, im] entries."""
    try:
        return np.array([[_pair_complex(p) for p in row] for row in obj["matrix"]])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedJsonError(f"bad operator file: {exc}") from exc
