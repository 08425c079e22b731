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
holds one member's text at a time.  The pieces join byte for byte to
the text that ``dumps`` gives for ``basis_to_obj`` and ``upb_to_obj``
(which share one factor object per distinct factor).

``read_basis`` and ``read_upb`` follow one rule: the window reads a
fault-free file in nlwe's layout, and the tree reader reads everything
else.  A regular file in the layout nlwe writes (one JSON object, "dims"
before "states", no key given twice) is read through a window of
``_WINDOW`` characters into the table, so neither the file's text nor a
tree of its members is held whole.  The window reads each member one of
two ways: a run of members in nlwe's own text (symbolic factors in the
writer's indentation, ``_run_match``) by one regex match and one
``findall`` of its factor keys, and any other member by one scan of
json's own scanner, as the plain JSON object the tree reader would
hold.  At the first fault the window meets (JSON, layout, dims, or a
member's factor, kind, index or length) the file is read again from its
start, whole, by the tree readers ``basis_from_obj`` and
``upb_from_obj`` of ``loads``, as is every other input (another layout,
a pipe), so a faulty file's fault is theirs by construction and costs
its whole text and tree in memory.  A file the window reads to its end
goes through the tree readers' own tail (``_set_from_obj``: dims, the
circuit or stopper index, then the set itself), so no fault is raised by
other code.  The member builder (``_table_from_obj``) looks a run's keys
up n at a time; of a member object it checks every factor object's
shape, kind and integer index, and each distinct factor's range,
dimension, finiteness and norm once.  ``loads`` (the tree readers' and
``lemma --kraus``'s) shares one dict among a file's equal symbolic
factor objects.

``density_pieces`` streams a density-matrix file from the array, one piece
per matrix row, each one %-format of the row's float parts; the pieces
join byte for byte to ``dumps`` of ``density_to_obj``,
which stays the writer's reference.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np

from .circuit import Circuit, ControlDftGate
from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    MalformedJsonError,
    NlweError,
)
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
    that has exactly the keys ``kind`` (``"cb"`` or ``"dft"``) and
    ``index`` (an int, not a bool) with equal values: a file's symbolic
    factor objects, so a basis file holds a few factor objects, not one
    per occurrence.  Like ``basis_to_obj``'s, the tree must not be
    mutated.

    Every other object is kept as parsed, and nothing is checked here: an
    object whose index is ``true`` or ``1.0`` is its own, since only JSON
    integers are keys, and the loaders find its faults as for plain
    ``json.loads``."""
    shared = {}

    def share(obj):
        if len(obj) == 2:
            kind, index = obj.get("kind"), obj.get("index")
            if kind in ("cb", "dft") and type(index) is int:
                return shared.setdefault((kind, index), obj)
        return obj

    try:
        return json.loads(text, object_hook=share)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, too deep or too long a number
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


def _table_from_obj(states, dims) -> tuple[list, np.ndarray]:
    """The ``factors`` and ``ids`` of the set whose members ``states`` (any
    iterable, counted as it is read) lists, for the caller to make a
    ``ProductBasis`` or ``Upb`` on ``dims``.

    A member is a JSON member object or a ``_Run`` of ``read_basis``.  A
    member object's ``factors`` must be a list with one factor object per
    party: every factor object's ``_factor_key`` is read before the
    list's length is compared with the parties'.  A run gives n text keys
    per member, looked up n at a time; a text key new at its party takes
    the id of its ``(kind, index)`` key.  A key seen for the first time at
    a party is built into a factor (once per file for all parties),
    checked against that party's dimension (``states.check_factor``) and
    given the next id there.  Factor objects are not remembered by
    ``id``: a streamed member's objects are freed once it is read, and
    their ids reused.
    """
    n = len(dims)
    made = {}
    seen = [{} for _ in dims]  # a party's keys: JSON gives no str key, a run only str ones
    distinct = [[] for _ in dims]
    ids = []
    m = 0

    def intern(p, key):
        k = seen[p].get(key)
        if k is None:
            factor = made.get(key)
            if factor is None:
                factor = made[key] = (
                    Dense(np.frombuffer(key, dtype=complex)) if isinstance(key, bytes)
                    else _SYMBOLIC[key[0]](key[1])
                )
            # the table checks its factors again; this check raises inside
            # the window's member loop, so a faulty member sends the file
            # to the tree reader
            check_factor(factor, dims[p])
            k = seen[p][key] = len(distinct[p])
            distinct[p].append(factor)
        return k

    def intern_text(p, text):
        k = seen[p].get(text)
        if k is None:
            kind, index = text.split(_KIND_TO_INDEX)
            k = seen[p][text] = intern(p, (kind, int(index)))
        return k

    for state in states:
        if type(state) is _Run:
            row = list(map(dict.get, itertools.cycle(seen), state))
            if None in row:  # a key new at its party, or one made new earlier in the run
                row = [intern_text(i % n, text) if k is None else k
                       for i, (k, text) in enumerate(zip(row, state))]
            ids += row
            m += len(row) // n
            continue
        m += 1
        try:
            factor_objs = state["factors"]
        except (KeyError, TypeError) as exc:
            raise MalformedJsonError(f"bad state object: {exc}") from exc
        if not isinstance(factor_objs, list):
            raise MalformedJsonError(
                f"a state's factors must be a list, got {type(factor_objs).__name__}")
        try:
            keys = [_factor_key(obj) for obj in factor_objs]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedJsonError(f"bad factor object: {exc}") from exc
        if len(keys) != n:
            raise DimensionMismatchError(f"{len(keys)} factors for {n} parties")
        ids += [intern(p, key) for p, key in enumerate(keys)]
    return distinct, np.array(ids, dtype=np.intp).reshape(m, n)


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


def _set_from_obj(obj, upb: bool, table=None):
    """The set of a basis file's (``upb`` false) or UPB file's top-level
    object: a basis and its embedded circuit, or None; or a ``Upb``.  Its
    members' ``(factors, ids)`` are ``table`` as the window read them, or
    else read from ``obj["states"]``."""
    try:
        dims = _dims(obj)
        factors, ids = table or _table_from_obj(obj["states"], dims)
        if upb:
            stopper = _int(obj["stopper_index"], "stopper_index")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad {'UPB' if upb else 'basis'} object: {exc}") from exc
    if upb:
        return Upb(dims, factors, ids, stopper)
    circuit = circuit_from_obj(obj["circuit"]) if "circuit" in obj else None
    if circuit is not None and circuit.dims != dims:
        raise DimensionMismatchError(
            f"embedded circuit dims {circuit.dims} differ from the basis dims {dims}"
        )
    return ProductBasis(dims, factors, ids), circuit


def basis_from_obj(obj) -> tuple[ProductBasis, Circuit | None]:
    """The basis and embedded circuit (or None) of a parsed basis file."""
    return _set_from_obj(obj, upb=False)


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


def upb_from_obj(obj) -> Upb:
    """The UPB of a parsed UPB file."""
    return _set_from_obj(obj, upb=True)


# characters of a set file that ``read_basis`` reads at a time
_WINDOW = 1 << 16
# a scanned value counts only if this many characters follow it in the
# window (or the file ends): a number cut at the window's end reads short
# ("1|2" as 1), and the scanner ends a number before a cut "." or "e+"
_MARGIN = 3
_SPACE = re.compile(r"[ \t\n\r]*").match
_scan_value = json.JSONDecoder().scan_once
# a symbolic factor object as ``_set_pieces`` writes it, at indent depth 4:
# no sign, leading zero, fraction or exponent, and 7 digits cover 2^22
_RUN_FACTOR = (r'\{\n          "kind": "(?:cb|dft)",'
               r'\n          "index": (?:0|[1-9][0-9]{0,6})\n        \}')
_KIND_TO_INDEX = '",\n          "index": '
# a run's factor keys in order: each factor's text from its kind to its index
_run_keys = re.compile('"kind": "((?:cb|dft)%s[0-9]+)' % _KIND_TO_INDEX).findall


def _run_match(n: int):
    """The ``match`` of a run of members as ``_set_pieces`` writes them on
    n parties with symbolic factors (a member at indent depth 2), each
    followed by ",\n    " and the next member's "{"; it never matches with
    no parties.  ``re`` keeps the compiled pattern for each n."""
    member = (r'\{\n      "factors": \[\n        %s(?:,\n        %s){%d}\n      \]\n    \}'
              % (_RUN_FACTOR, _RUN_FACTOR, n - 1))
    return re.compile(r'(?:%s,\n    (?=\{))+' % member if n else "(?!)").match


class _Run(list):
    """The factor keys of a run of members, n per member in party order,
    each the text that ``_run_keys`` gives; a type no JSON value has."""


class _NotNlweLayout(Exception):
    """The set file is not in the layout that the window reads (one object,
    "dims" before "states", no key twice, valid JSON): like a fault in its
    dims or members, this sends it to the tree reader."""


class _Window:
    """A text file read ``_WINDOW`` or more characters at a time into
    ``text``, of which ``text[pos:]`` is not yet consumed.  A fault it
    meets raises, and ``_read_set`` leaves the file to the tree reader."""

    def __init__(self, fh):
        self.fh = fh
        self.text = ""
        self.pos = 0
        self.eof = False

    def more(self) -> None:
        """Drop the read text and read on: at least ``_WINDOW`` characters,
        and at least as many as are left, so a value longer than the window
        is scanned a bounded number of times."""
        text, pos = self.text, self.pos
        chunk = self.fh.read(max(_WINDOW, len(text) - pos))
        self.eof = not chunk
        self.text, self.pos = text[pos:] + chunk, 0

    def char(self) -> str:
        """The next character after whitespace, left at ``pos``; "" at the
        end of the file."""
        while True:
            self.pos = _SPACE(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos:self.pos + 1]
            self.more()

    def expect(self, chars: str) -> str:
        """The next character after whitespace, which must be one of
        ``chars``, consumed with the whitespace after it."""
        c = self.char()
        if not c or c not in chars:
            raise _NotNlweLayout
        self.pos += 1
        self.char()
        return c

    def value(self):
        """The JSON value at ``pos``, which is not whitespace."""
        while True:
            try:
                value, end = _scan_value(self.text, self.pos)
            except (StopIteration, json.JSONDecodeError):
                if self.eof:
                    raise _NotNlweLayout from None
            except (ValueError, RecursionError):  # too long a number, or too deep
                raise _NotNlweLayout from None
            else:
                if end + _MARGIN <= len(self.text) or self.eof:
                    self.pos = end
                    return value
            self.more()

    def members(self, run):
        """The elements of the array whose "[" is at ``pos``, one at a time,
        but each run of members that ``run`` matches at ``pos`` as one
        ``_Run`` of their factor keys, and every other element as json's
        scanner reads it.  The member after a run is read on to when it
        does not close in the window, so a run stops at a window's end at
        most once per window and json reads about one member per window."""
        self.expect("[")
        if self.char() == "]":
            self.pos += 1
            return
        while True:
            match = run(self.text, self.pos)
            if match:
                yield _Run(_run_keys(self.text, self.pos, match.end()))
                self.pos = match.end()
                if not self.eof and self.text.find("\n    }", self.pos) < 0:
                    self.more()
                continue
            yield self.value()
            if self.expect(",]") == "]":
                return

    def set_file(self) -> dict:
        """The file's one top-level object, its "states" array read into
        the ``(factors, ids)`` that ``_table_from_obj`` gives on the "dims"
        before it; a fault in the dims or the members raises."""
        obj = {}
        c = self.expect("{")
        while c != "}":
            if self.char() != '"':
                raise _NotNlweLayout
            key = self.value()
            self.expect(":")
            if key in obj or (key == "states" and "dims" not in obj):
                raise _NotNlweLayout
            if key == "states":
                dims = _dims(obj)
                obj[key] = _table_from_obj(self.members(_run_match(len(dims))), dims)
            else:
                obj[key] = self.value()
            c = self.expect(",}")
        if self.char():
            raise _NotNlweLayout
        return obj


def _read_set(path: str, upb: bool):
    """A basis or UPB file's set: streamed through the window if the file
    is in nlwe's layout (every file nlwe writes, and any ``sort_keys`` copy
    of one) and the window meets no fault in it; else read whole, from its
    start, by ``loads`` and the tree readers, which give its set or its
    fault."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.seekable():
                # the faults: another layout, or what _set_from_obj reports
                try:
                    obj = _Window(fh).set_file()
                except (_NotNlweLayout, NlweError, KeyError, TypeError, ValueError):
                    fh.seek(0)
                else:
                    return _set_from_obj(obj, upb, obj.get("states"))
            tree = loads(fh.read())
    except OSError as exc:
        raise MalformedJsonError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedJsonError(f"{path} is not UTF-8 text: {exc}") from exc
    return upb_from_obj(tree) if upb else basis_from_obj(tree)


def read_basis(path: str) -> tuple[ProductBasis, Circuit | None]:
    """The basis and embedded circuit (or None) of the basis file at
    ``path``, or its fault, as ``basis_from_obj`` of ``load_file`` gives
    them: a fault-free file in nlwe's layout is read through a
    ``_WINDOW``-character window into the id table, and any other file
    (one with a fault, too) is read whole by the tree reader (see
    ``_read_set``)."""
    return _read_set(path, upb=False)


def read_upb(path: str) -> Upb:
    """The UPB of the UPB file at ``path``, or its fault, as
    ``upb_from_obj`` of ``load_file`` gives it, read as ``read_basis``
    reads."""
    return _read_set(path, upb=True)


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
