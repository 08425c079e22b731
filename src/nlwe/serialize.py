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

A set (``states.LocalFactors``: a ``ProductBasis`` or ``Upb``) has a few
distinct factors per party, and both directions of its file use one
table of member text.  Split on ``_SEP`` (``"kind": "``), a written
member is its opening ``_FIRST`` and one piece per factor: the factor
object's text after its kind's key, then the text up to the next
``_SEP`` (``_piece``, from the encoder).  ``basis_pieces`` and
``upb_pieces`` write a head, blocks of about ``_WINDOW`` characters of
members (one join of the pieces their ids name) and a tail, which join
byte for byte to ``dumps`` of ``basis_to_obj``/``upb_to_obj``.

``read_basis`` and ``read_upb`` follow one rule: the window reads a
fault-free file in nlwe's layout (one JSON object, "dims" before
"states", no key given twice) ``_WINDOW`` characters at a time into the
table, and the tree reader reads everything else.  The window splits a
run of members in nlwe's own text into pieces, each mapped to its id by
one dict per party and accepted only if it equals the writer's piece
for the CB or DFT factor it names there (``_piece_key``), and reads any
other member with json's scanner, as the plain object the tree reader
would hold.  At the first fault it meets (JSON, layout, dims, or a
member's factor, kind, index or length) the file is read again, whole,
by ``loads`` and the tree readers ``basis_from_obj`` and
``upb_from_obj``, as is every other input (another layout, a pipe), so
a file's fault is theirs by construction.  A file the window reads to
its end goes through the tree readers' own tail (``_set_from_obj``).
``density_pieces`` streams a density-matrix file from the array, one piece
per matrix row, each one %-format of the row's float parts; the pieces
join byte for byte to ``dumps`` of ``density_to_obj``,
which stays the writer's reference.
"""

from __future__ import annotations

import functools
import itertools
import json
import re

import numpy as np

from .circuit import Circuit, ControlDftGate
from .errors import DimensionMismatchError, InvalidDimensionError, MalformedJsonError, NlweError
from .linalg import require_dense_budget
from .states import CB, DFT, Dense, LocalFactors, ProductBasis, check_factor
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
    """JSON text of ``obj`` (dicts, lists, tuples, strings, ints, floats,
    numpy floats included, booleans and None) with a 2-space indent,
    ASCII-escaped strings and floats in 17 significant digits, plus a final
    newline; a non-finite float raises ``ValueError``."""
    return _encode(obj, 0, set()) + "\n"


def loads(text: str):
    """The JSON value of ``text``, with one dict shared by every object
    that has exactly the keys ``kind`` (``"cb"`` or ``"dft"``) and
    ``index`` (an int, not a bool) with equal values: a file's symbolic
    factor objects.  Like ``basis_to_obj``'s, the tree must not be mutated.
    Every other object is kept as parsed and nothing is checked: one whose
    index is ``true`` or ``1.0`` is its own, and the loaders find its faults
    as for plain ``json.loads``."""
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


class _Table:
    """A set's distinct factors and ids as its members are read on ``dims``:
    ``add`` reads a member object (each of ``states``), every factor
    object's ``_factor_key`` before the length of its list is compared with
    the parties', and the window adds a run's ids itself (``piece``).  A key
    new at a party is built into a factor once per file, checked against
    the party's dimension and given the next id there."""

    def __init__(self, dims, states=()):
        self.dims = dims
        self.made = {}
        self.seen = [{} for _ in dims]  # party p's _factor_keys and pieces: their ids
        self.distinct = [[] for _ in dims]
        self.ids = []
        self.m = 0
        for state in states:
            self.add(state)

    def intern(self, p, key) -> int:
        k = self.seen[p].get(key)
        if k is None:
            factor = self.made.get(key)
            if factor is None:
                factor = self.made[key] = (
                    Dense(np.frombuffer(key, dtype=complex)) if isinstance(key, bytes)
                    else _SYMBOLIC[key[0]](key[1]))
            # checked again by the table; here a faulty member raises in the window
            check_factor(factor, self.dims[p])
            k = self.seen[p][key] = len(self.distinct[p])
            self.distinct[p].append(factor)
        return k

    def piece(self, p, piece: str):
        """The id of a run's piece at party p, or None if no CB or DFT factor's."""
        k = self.seen[p].get(piece)
        if k is None:
            key = _piece_key(piece, p == len(self.dims) - 1)
            if key is not None:
                k = self.seen[p][piece] = self.intern(p, key)
        return k

    def add(self, state) -> None:
        self.m += 1
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
        if len(keys) != len(self.dims):
            raise DimensionMismatchError(f"{len(keys)} factors for {len(self.dims)} parties")
        self.ids += [self.intern(p, key) for p, key in enumerate(keys)]

    def result(self) -> tuple[list, np.ndarray]:
        return self.distinct, np.array(self.ids, dtype=np.intp).reshape(self.m, len(self.dims))


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
        factors, ids = table or _Table(dims, obj["states"]).result()
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


# a member as _set_pieces writes it (indent depth 2, factor objects at 4)
# is _FIRST, its "{" up to its first factor's kind, and one piece per factor
_SEP = '"kind": "'
_MEMBER_OPEN, _MEMBER_CLOSE = _container_text(
    ['"factors": ' + _container_text(["\0"], 3)], 2, "{}").split("\0")
_FACTOR_OPEN = _container_text(["\0"], 4, "{}").partition("\0")[0]
_FIRST = _MEMBER_OPEN + _FACTOR_OPEN + _SEP
# a factor object's text is followed, up to the next _SEP, by the next
# factor's opening, or at party n - 1 by the member's close and the next's
_LINKS = (",\n" + "  " * 4 + _FACTOR_OPEN,
          _MEMBER_CLOSE + ",\n    " + _MEMBER_OPEN + _FACTOR_OPEN)
# a piece's index has at most this many digits (2^22 needs 7)
_DIGITS = 7


def _piece(obj: dict, last: bool) -> str:
    """The piece of the factor object ``obj`` at a party (the last one if
    ``last``): its text at indent depth 4 after its _SEP, and the link on."""
    return _encode(obj, 4, set()).partition(_SEP)[2] + _LINKS[last]


# by kind and last party, the text around a CB or DFT piece's index (the
# first "0" of index 0's); by last party, the longest piece and its _SEP
_AROUND_INDEX = {(kind, last): tuple(_piece({"kind": kind, "index": 0}, last).split("0", 1))
                 for kind in _SYMBOLIC for last in (False, True)}
_LONGEST = [len(_piece({"kind": "dft", "index": 10**_DIGITS - 1}, last)) + len(_SEP)
            for last in (False, True)]


def _piece_key(piece: str, last: bool):
    """The ``(kind, index)`` of the CB or DFT factor whose piece at a party (the
    last if ``last``) is ``piece``, or None: parsed, then checked by equality."""
    kind = piece.partition('"')[0]
    digits = piece.partition(": ")[2].partition("\n")[0]
    if kind in _SYMBOLIC and digits.isdecimal() and len(digits) <= _DIGITS:
        before, after = _AROUND_INDEX[kind, last]
        if piece == before + str(int(digits)) + after:
            return kind, int(digits)
    return None


def _set_pieces(table: LocalFactors, tail: dict):
    """The text of ``{"dims": ..., "states": [...], **tail}`` for a basis or
    UPB file, byte for byte ``dumps`` of ``basis_to_obj``/``upb_to_obj``, as
    the head (with the first ``_FIRST``), blocks of whole members of about
    ``_WINDOW`` characters, each one join of cells (a piece and its _SEP)."""
    head = '{\n  "dims": ' + _encode(list(table.dims), 1, set()) + ',\n  "states": '
    # the frame that _container_text(items, 0, "{}") puts around the items
    # "dims", "states" and the tail's, with the members at depth 2
    end = "".join(",\n  " + _key_text(k) + ": " + _encode(v, 1, set())
                  for k, v in tail.items()) + "\n}\n"
    m, n = table.ids.shape
    if not m:
        yield head + "[]" + end
        return
    if n:  # a factor's cell is the same text at every party below n - 1
        cell = functools.cache(lambda f, last: _piece(factor_to_obj(f), last) + _SEP)
        cells = [[cell(f, p == n - 1) for f in kept] for p, kept in enumerate(table.factors)]
        ids, first = table.ids, _FIRST
    else:  # a member with no factor is one cell
        cells = [[_container_text(['"factors": []'], 2, "{}") + ",\n    "]]
        ids, first = np.zeros((m, 1), dtype=np.intp), ""
    yield head + "[\n    " + first
    size = max(1, _WINDOW // sum(max(map(len, kept)) for kept in cells))  # members per block
    for i in range(0, m, size):
        block = "".join(map(list.__getitem__, itertools.cycle(cells),
                            ids[i:i + size].ravel().tolist()))
        yield block if i + size < m else block[:-len(",\n    " + first)]
    yield "\n  ]" + end


def basis_pieces(basis: ProductBasis, circuit: Circuit | None = None):
    """The basis file's text in pieces, blocks of members between a head
    and a tail; they join to ``dumps(basis_to_obj(basis, circuit))``."""
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


class _NotNlweLayout(Exception):
    """The set file is not in the layout the window reads (one object, "dims"
    before "states", no key twice, valid JSON): it goes to the tree reader."""


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

    def members(self, table: _Table) -> None:
        """Read the elements of the array whose "[" is at ``pos`` into ``table``:
        runs of nlwe's own members by ``run``, any other by json's scanner."""
        self.expect("[")
        if self.char() == "]":
            self.pos += 1
            return
        while True:
            self.run(table)
            table.add(self.value())
            if self.expect(",]") == "]":
                return

    def run(self, table: _Table) -> None:
        """Read the members from ``pos`` on that are in nlwe's own text into
        ``table``, up to the first that does not open with ``_FIRST``, holds
        a piece ``table.piece`` refuses or ends the array.  Chunks start at a
        member's first piece: the first holds any valid member (``span``),
        so a member that does not read costs about one member, and each
        after one read whole is twice as long, up to ``_WINDOW``."""
        n = len(table.dims)
        size = span = (n - 1) * _LONGEST[False] + _LONGEST[True]
        while n:
            while len(self.text) - self.pos < len(_FIRST) + span and not self.eof:
                self.more()
            if not self.text.startswith(_FIRST, self.pos):
                return
            start = self.pos + len(_FIRST)
            pieces = self.pieces(start, start + size)
            row = list(map(dict.get, itertools.cycle(table.seen), pieces))
            whole = len(pieces) - len(pieces) % n  # the pieces of whole members
            ended = not whole
            i = 0
            while not ended:  # a piece new at its party
                try:
                    i = row.index(None, i)
                except ValueError:
                    break
                row[i] = table.piece(i % n, pieces[i])
                if row[i] is None:
                    whole, ended = i - i % n, True
            table.ids += row[:whole]
            table.m += whole // n
            self.pos += sum(map(len, pieces[:whole])) + whole * len(_SEP)
            if ended:
                return
            size = max(span, min(2 * size, _WINDOW))

    def pieces(self, start: int, stop: int) -> list:
        """The pieces that a _SEP ends in ``text[start:stop]``, which starts at one."""
        return self.text[start:stop].split(_SEP)[:-1]

    def set_file(self) -> dict:
        """The file's one top-level object, its "states" array read into the
        ``_Table.result`` on the "dims" before it; a fault in the dims or the
        members raises."""
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
                table = _Table(_dims(obj))
                self.members(table)
                obj[key] = table.result()
            else:
                obj[key] = self.value()
            c = self.expect(",}")
        if self.char():
            raise _NotNlweLayout
        return obj


def _read_set(path: str, upb: bool):
    """A basis or UPB file's set: streamed through the window if the file is
    in nlwe's layout (any ``sort_keys`` copy, too) and the window meets no
    fault in it; else read whole by ``loads`` and the tree readers, which
    give its set or its fault."""
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
    them (see ``_read_set``)."""
    return _read_set(path, upb=False)


def read_upb(path: str) -> Upb:
    """The UPB of the UPB file at ``path``, or its fault, as
    ``upb_from_obj`` of ``load_file`` gives it (see ``_read_set``)."""
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
