"""Wire formats and a byte-deterministic JSON writer.

All numeric payloads use explicit [re, im] pairs so that files round-trip
without complex-literal ambiguity.  Reports are written with a fixed-order,
17-significant-digit float format: running the same command with the same
seed reproduces the output byte for byte.

Both directions work one array at a time.  The ``*_to_json`` functions hand
complex data to ``dumps`` as float64 ``(..., 2)`` arrays of [re, im] pairs,
which ``dumps`` formats with one %-template per array, laid out exactly as
the equivalent nested lists.  The parsers check the structure and element
types of a whole block (one vector, one matrix, or the A, B or f entries of
_ATOM_BLOCK consecutive atoms) at once and convert it with one ``np.array``
call.  A block that check turns down is converted where it stands, atom by
atom and pair by pair, by the step that raises the error naming the atom
and path.  ``_stacked_document`` joins the blocks of every instance.

Files are streamed.  ``dump`` writes a document to a file piece by piece,
and ``read_pair`` decodes an instance file one atom at a time and converts
it a block of atoms at a time, so neither holds the whole text of a file.
The binary companion of an instance file (``_write_companion``,
``_read_companion``) holds the arrays ``read_pair`` returns for it, so that
the same text need not be decoded twice.
"""

from __future__ import annotations

import functools
import io
import json
import math
import numbers
import re
import zipfile
from dataclasses import dataclass, field
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .mispace import (
    BiorthogonalityReport,
    EquivalenceReport,
    FiberedFunction,
    FiberedSystem,
    MeasureModel,
)
from .subspace import Subspace
from .zak import FiniteGroupSpec, ZakPlan

# ---------------------------------------------------------------------------
# Writer.


# The text json.dumps gives a str, without its dispatch.
_quote = encode_basestring_ascii


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize a non-finite float")
    return format(x, ".17g")


@functools.lru_cache(maxsize=256)
def _array_template(shape: tuple[int, ...], indent: int) -> str:
    """The %-template that lays out a float array of this shape as _write
    lays out the same values as nested lists."""
    if len(shape) == 1:
        return "[" + ", ".join(["%.17g"] * shape[0]) + "]"
    pad = "  " * indent
    row = pad + "  " + _array_template(shape[1:], indent + 1)
    return "[\n" + ",\n".join([row] * shape[0]) + "\n" + pad + "]"


def _write_array(a: np.ndarray, write, indent: int):
    if a.ndim == 0 or 0 in a.shape:
        _write(a.tolist(), write, indent)
        return
    if not np.isfinite(a).all():
        raise ValueError("cannot serialize a non-finite float")
    # '%.17g' formats a float exactly as format(x, ".17g") in _fmt_float
    write(_array_template(a.shape, indent) % tuple(a.ravel().tolist()))


def _scalar(obj) -> str | None:
    """The JSON text of a float, str, None, bool or integer; None for anything
    else.  The numbers.Integral check (an ABC, so slow) comes last, after
    bool, which it would also match."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    return None


_CONTAINERS = (dict, list, tuple, np.ndarray)


def _write(obj, write, indent: int):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        write("{\n")
        last = len(obj) - 1
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            head, sep = f"{pad}  {_quote(key)}: ", ",\n" if i < last else "\n"
            # a scalar value goes out in one piece with its key
            text = None if isinstance(value, _CONTAINERS) else _scalar(value)
            if text is None:
                write(head)
                _write(value, write, indent + 1)
                write(sep)
            else:
                write(head + text + sep)
        write(pad + "}")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        _write_array(obj, write, indent)
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            write("[]")
            return
        if not isinstance(items[0], _CONTAINERS):
            parts = [_scalar(v) for v in items]
            if None not in parts:
                write("[" + ", ".join(parts) + "]")
                return
        write("[\n")
        last = len(items) - 1
        for i, value in enumerate(items):
            write(pad + "  ")
            _write(value, write, indent + 1)
            write(",\n" if i < last else "\n")
        write(pad + "]")
    else:
        text = _scalar(obj)
        if text is None:
            raise ValueError(f"cannot serialize object of type {type(obj).__name__}")
        write(text)


def dump(obj, fh):
    """Write dumps(obj) to the text file fh, one piece (a key, a scalar, a
    whole array) at a time.

    On a value dumps rejects, the text before it is already written; write
    to a temporary file first to write all of a document or none of it.
    """
    _write(obj, fh.write, 0)
    fh.write("\n")


def dumps(obj) -> str:
    """Deterministic JSON text of obj, newline-terminated.  A float64 ndarray
    is written as the nested lists of its values; NaN and inf raise ValueError."""
    buf = io.StringIO()
    dump(obj, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Scalars, vectors, matrices.


def _pairs(z) -> np.ndarray:
    """Complex values as a float64 (..., 2) array of [re, im] pairs, the form
    in which dumps writes them.  A view of z when z is C-contiguous complex128."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return z.view(np.float64).reshape(z.shape + (2,))


def _is_int(obj) -> bool:
    # JSON true/false arrive as bool, which is a subclass of int
    return isinstance(obj, int) and not isinstance(obj, bool)


def _as_list(doc):
    """An array (a float array of a *_to_json function, or a report column)
    is read as the nested lists it is written as; anything else is unchanged."""
    return doc.tolist() if isinstance(doc, np.ndarray) else doc


def _pair_block(doc, shape: tuple[int, ...]) -> np.ndarray | None:
    """doc as a complex128 array of the given shape, when doc nests lists of
    exactly that shape down to [re, im] pairs of finite floats and ints.

    Returns None on anything else; the caller then walks doc pair by pair,
    which raises the error that names the offending entry.
    """
    level = [doc]
    for n in shape + (2,):
        if set(map(type, level)) != {list} or set(map(len, level)) != {n}:
            return None
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {float, int}:
        return None
    try:
        flat = np.array(level, dtype=np.float64)
    except OverflowError:
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.view(np.complex128).reshape(shape)


def _number_from(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, numbers.Real):
        raise ValueError(f"{where}: expected a number, got {obj!r}")
    try:
        x = float(obj)
    except OverflowError:
        raise ValueError(f"{where}: number is out of float range") from None
    if not np.isfinite(x):
        raise ValueError(f"{where}: number must be finite")
    return x


def _complex_from(obj, where: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"{where}: expected a [re, im] pair")
    return complex(_number_from(obj[0], where), _number_from(obj[1], where))


def vector_to_json(v) -> np.ndarray:
    return _pairs(np.asarray(v, dtype=np.complex128).reshape(-1))


def vector_from_json(doc, where: str = "vector") -> np.ndarray:
    doc = _as_list(doc)
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"{where}: expected a non-empty list of [re, im] pairs")
    block = _pair_block(doc, (len(doc),))
    if block is not None:
        return block
    return np.array([_complex_from(p, f"{where}[{i}]") for i, p in enumerate(doc)])


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "data": _pairs(m.reshape(-1))}


def matrix_from_json(doc, where: str = "matrix") -> np.ndarray:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object with rows/cols/data")
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except KeyError as exc:
        raise ValueError(f"{where}: missing key {exc.args[0]!r}") from None
    if not _is_int(rows) or not _is_int(cols) or rows < 0 or cols < 0:
        raise ValueError(f"{where}: rows and cols must be non-negative integers")
    data = _as_list(data)
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"{where}: data must hold rows*cols = {rows * cols} pairs")
    block = _pair_block(data, (rows * cols,))
    if block is None:
        flat = [_complex_from(p, f"{where}.data[{i}]") for i, p in enumerate(data)]
        block = np.array(flat, dtype=np.complex128)
    return block.reshape(rows, cols)


# ---------------------------------------------------------------------------
# Domain objects.


def _system_from_json(doc, where: str, fiber_dim: int) -> np.ndarray:
    """The A or B entry of one atom, {"dim": fiber_dim, "vectors": r vectors},
    as its C-ordered (fiber_dim, r) matrix: column i is vector i."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object with dim/vectors")
    dim = doc.get("dim")
    vectors = _as_list(doc.get("vectors"))
    if not _is_int(dim) or dim < 1:
        raise ValueError(f"{where}: dim must be a positive integer")
    if not isinstance(vectors, list) or not vectors:
        raise ValueError(f"{where}: vectors must be a non-empty list")
    block = _pair_block(vectors, (len(vectors), dim))
    if block is None:
        block = np.array([signal_from_json(v, dim, f"{where}.vectors[{i}]") for i, v in enumerate(vectors)])
    if dim != fiber_dim:
        raise ValueError(f"{where} has dim {dim}, expected {fiber_dim}")
    # C order, as _system_block lays it out: the layout reaches BLAS
    return np.ascontiguousarray(block.T)


def subspace_to_json(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": matrix_to_json(s.basis)}


def subspace_from_json(doc, where: str = "subspace") -> Subspace:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object with ambient_dim/basis")
    dim = doc.get("ambient_dim")
    if not _is_int(dim) or dim < 1:
        raise ValueError(f"{where}: ambient_dim must be a positive integer")
    basis = matrix_from_json(doc.get("basis"), f"{where}.basis")
    if basis.shape[0] != dim:
        raise ValueError(f"{where}: basis has {basis.shape[0]} rows, expected {dim}")
    try:
        return Subspace(basis)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class PairDocument:
    """A parsed instance file: measure, system A, optional B, targets, probe."""

    measure: MeasureModel
    sa: FiberedSystem
    sb: FiberedSystem | None = None
    targets: list[Subspace] | None = None
    probe: FiberedFunction | None = None
    meta: dict = field(default_factory=dict)


def pair_to_json(
    sa: FiberedSystem,
    sb: FiberedSystem | None = None,
    targets: list[Subspace] | None = None,
    probe: FiberedFunction | None = None,
    meta: dict | None = None,
) -> dict:
    measure, d = sa.measure, sa.fiber_dim
    # every atom's "vectors" block at once: row i of a block is generator i
    vectors_a = _pairs(sa.matrices.swapaxes(-1, -2))
    vectors_b = None if sb is None else _pairs(sb.matrices.swapaxes(-1, -2))
    atoms = []
    for k, atom in enumerate(measure.atoms):
        entry: dict = {"id": atom, "weight": float(measure.weights[k])}
        entry["A"] = {"dim": d, "vectors": vectors_a[k]}
        if sb is not None:
            entry["B"] = {"dim": d, "vectors": vectors_b[k]}
        if targets is not None:
            entry["W"] = subspace_to_json(targets[k])
        if probe is not None:
            entry["f"] = vector_to_json(probe.values[k])
        atoms.append(entry)
    doc = {"fiber_dim": sa.fiber_dim, "atoms": atoms}
    if meta:
        doc["meta"] = meta
    return doc


def _fiber_dim(value) -> int:
    if not _is_int(value) or value < 1:
        raise ValueError("fiber_dim must be a positive integer")
    return value


# Atoms converted at a time by pair_from_json and read_pair.  A block's
# vectors go through one _pair_block call per kind; larger blocks pay the
# per-call overhead fewer times, and read_pair holds a block's decoded
# entries at once.
_ATOM_BLOCK = 32


class _AtomBlock(NamedTuple):
    """Consecutive atoms converted at once: ids, float64 weights, the A and B
    stacks (atoms, fiber_dim, r), targets, and the f stack (atoms,
    fiber_dim); None for a B, W or f that no atom of the block has."""

    ids: list
    weights: np.ndarray
    a: np.ndarray
    b: np.ndarray | None
    targets: list | None
    probe: np.ndarray | None


def _atom_from_json(entry, k: int, fiber_dim: int) -> _AtomBlock:
    """Entry k of an instance's atoms list as a one-atom block, or the
    ValueError that names the atom and what is wrong with it: the message
    step of _atom_blocks."""
    where = f"atoms[{k}]"
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object")
    atom_id = entry.get("id")
    if not isinstance(atom_id, str) or not atom_id:
        raise ValueError(f"{where}: id must be a non-empty string")
    where = f"atom {atom_id!r}"
    weight = _number_from(entry.get("weight"), f"{where}: weight")
    if weight <= 0.0:
        raise ValueError(f"{where}: weight must be positive")
    if "A" not in entry:
        raise ValueError(f"{where}: missing system A")
    a = _system_from_json(entry["A"], f"{where}: A", fiber_dim)[None]
    b = _system_from_json(entry["B"], f"{where}: B", fiber_dim)[None] if "B" in entry else None
    targets = [subspace_from_json(entry["W"], f"{where}: W")] if "W" in entry else None
    if targets and targets[0].ambient_dim != fiber_dim:
        raise ValueError(f"{where}: W has wrong ambient dimension")
    probe = vector_from_json(entry["f"], f"{where}: f")[None] if "f" in entry else None
    if probe is not None and probe.shape[1] != fiber_dim:
        raise ValueError(f"{where}: f has length {probe.shape[1]}, expected {fiber_dim}")
    return _AtomBlock([atom_id], np.array([weight]), a, b, targets, probe)


def _system_block(docs: list, fiber_dim: int) -> np.ndarray | None:
    """The A or B entries of a block as one (atoms, fiber_dim, r) stack, r the
    first entry's vector count, or None unless every entry is
    {"dim": fiber_dim, "vectors": r vectors of [re, im] pairs}."""
    vectors = []
    for doc in docs:
        if type(doc) is not dict or type(doc.get("dim")) is not int or doc["dim"] != fiber_dim:
            return None
        vectors.append(_as_list(doc.get("vectors")))
    if type(vectors[0]) is not list:
        return None
    block = _pair_block(vectors, (len(vectors), len(vectors[0]), fiber_dim))
    # C order, as _system_from_json lays it out: the layout reaches BLAS and
    # with it the rounding of every product downstream
    return None if block is None else np.ascontiguousarray(block.swapaxes(1, 2))


def _fast_block(entries: list, fiber_dim: int) -> _AtomBlock | None:
    """Atom entries converted as one block, to the values _atom_from_json
    gives them one at a time.  Returns None, raising nothing, unless every
    entry is one _atom_from_json takes, with the keys and vector counts of
    the first entry."""
    first = entries[0]
    if type(first) is not dict:
        return None
    keys = ("B" in first, "W" in first, "f" in first)
    for entry in entries:
        if type(entry) is not dict or ("B" in entry, "W" in entry, "f" in entry) != keys:
            return None
        atom_id = entry.get("id")
        if type(atom_id) is not str or not atom_id:
            return None
    ids = [entry["id"] for entry in entries]
    weights = [entry.get("weight") for entry in entries]
    if not set(map(type, weights)) <= {float, int}:
        return None
    try:
        weights = np.array(weights, dtype=np.float64)
    except OverflowError:
        return None
    if not (np.isfinite(weights).all() and (weights > 0.0).all()):
        return None
    a = _system_block([entry.get("A") for entry in entries], fiber_dim)
    b = _system_block([entry["B"] for entry in entries], fiber_dim) if keys[0] else None
    probe = None
    if keys[2]:
        probe = _pair_block([_as_list(entry["f"]) for entry in entries], (len(entries), fiber_dim))
    if a is None or (keys[0] and b is None) or (keys[2] and probe is None):
        return None
    targets = None
    if keys[1]:
        try:
            targets = [subspace_from_json(entry["W"]) for entry in entries]
        except ValueError:
            return None
        if any(t.ambient_dim != fiber_dim for t in targets):
            return None
    return _AtomBlock(ids, weights, a, b, targets, probe)


def _atom_blocks(entries, fiber_dim: int) -> list[_AtomBlock]:
    """The atom entries, an iterable, converted _ATOM_BLOCK at a time.  A
    block _fast_block turns down is converted where it stands, atom by atom,
    by _atom_from_json, which raises the error of its first invalid atom."""
    blocks, entries, k = [], iter(entries), 0
    while batch := list(islice(entries, _ATOM_BLOCK)):
        block = _fast_block(batch, fiber_dim)
        if block is None:
            blocks += [_atom_from_json(entry, k + i, fiber_dim) for i, entry in enumerate(batch)]
        else:
            blocks.append(block)
        k += len(batch)
    return blocks


def _joined(stacks: list[np.ndarray]) -> np.ndarray:
    # np.concatenate copies even a single array: a companion's is kept as read
    return stacks[0] if len(stacks) == 1 else np.concatenate(stacks)


def _fibered_system(measure: MeasureModel, stacks: list[np.ndarray]) -> FiberedSystem:
    counts = sorted({s.shape[2] for s in stacks})
    if len(counts) > 1:
        raise ValueError(f"generator counts are not uniform: {counts}")
    return FiberedSystem(measure, _joined(stacks))


def _stacked_document(blocks: list[_AtomBlock], meta) -> PairDocument:
    """A PairDocument from converted atom blocks, each stack joined once.
    Raises the errors between atoms: a B, W or f that some atoms lack, then
    duplicate ids or differing generator counts."""
    for label, part in (("B", "b"), ("W", "targets"), ("f", "probe")):
        present = [getattr(blk, part) is not None for blk in blocks]
        if any(present) and not all(present):
            missing = blocks[present.index(False)].ids[0]
            raise ValueError(f"atom {missing!r}: missing {label} (present on other atoms)")
    first, ids = blocks[0], tuple(chain.from_iterable(blk.ids for blk in blocks))
    try:
        measure = MeasureModel(ids, _joined([blk.weights for blk in blocks]))
        sa = _fibered_system(measure, [blk.a for blk in blocks])
        sb = None if first.b is None else _fibered_system(measure, [blk.b for blk in blocks])
    except ValueError as exc:
        raise ValueError(f"inconsistent atoms: {exc}") from None
    targets = None if first.targets is None else [t for blk in blocks for t in blk.targets]
    probe = None
    if first.probe is not None:
        probe = FiberedFunction(measure, _joined([blk.probe for blk in blocks]))
    return PairDocument(measure, sa, sb, targets, probe, meta if isinstance(meta, dict) else {})


def pair_from_json(doc) -> PairDocument:
    if not isinstance(doc, dict):
        raise ValueError("instance file must be a JSON object")
    fiber_dim = _fiber_dim(doc.get("fiber_dim"))
    entries = doc.get("atoms")
    if not isinstance(entries, list) or not entries:
        raise ValueError("atoms must be a non-empty list")
    return _stacked_document(_atom_blocks(entries, fiber_dim), doc.get("meta"))


# Characters read from an instance file at a time by read_pair.
_READ_CHUNK = 1 << 16
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_DIGITS = frozenset("0123456789")
_NUMBER_GOES_ON = _DIGITS | frozenset(".eE")
_DECODER = json.JSONDecoder()


class _Unrecognised(ValueError):
    """Input the streamed reader leaves to json.load and pair_from_json."""


class _Scanner:
    """JSON values decoded one at a time from a text file.  The buffer holds
    the unread rest of the last chunk plus the value being decoded."""

    def __init__(self, fh):
        # last: the length of the last value decoded
        self.fh, self.buf, self.pos, self.last = fh, "", 0, 0

    def _fill(self, size: int) -> bool:
        chunk = self.fh.read(size)
        self.buf = self.buf[self.pos :] + chunk
        self.pos = 0
        return bool(chunk)

    def peek(self) -> str:
        """The next non-whitespace character, '' at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if not self._fill(_READ_CHUNK):
                return ""

    def skip(self, char: str) -> bool:
        """Step over the next non-whitespace character if it is char."""
        if self.peek() != char:
            return False
        self.pos += 1
        return True

    def expect(self, char: str):
        if not self.skip(char):
            raise _Unrecognised(f"expected {char!r}")

    def value(self):
        """The next value.  One that reaches the end of the buffer (a number
        cut at a chunk boundary, an unfinished object) is decoded again with
        more text; each retry reads twice as much, so a value costs time
        linear in its length however many chunks it spans.  When less text is
        left than the last value took, more is read before the first try: the
        atoms of an instance are about equally long, so this spares decoding
        most of an atom only to find it cut."""
        self.peek()
        if len(self.buf) - self.pos <= self.last:
            self._fill(max(_READ_CHUNK, self.last))
        size = _READ_CHUNK
        while True:
            try:
                obj, end = _DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError:
                obj, end = None, None
            # a number is taken only once the character after it is read and
            # cannot go on with it: "1.5e" may be "1.5e+10" cut short
            if end is not None and end < len(self.buf) and not (
                self.buf[end - 1] in _DIGITS and self.buf[end] in _NUMBER_GOES_ON
            ):
                self.last = end - self.pos
                self.pos = end
                return obj
            if not self._fill(size):
                if end is None:
                    raise _Unrecognised("incomplete value")
                self.pos = end
                return obj
            size *= 2

    def key(self, name: str):
        if self.value() != name:
            raise _Unrecognised(f"expected key {name!r}")
        self.expect(":")


def _stream_pair(fh) -> PairDocument:
    """Parse an instance laid out as pair_to_json writes it (fiber_dim, atoms,
    then an optional meta), one block of atoms at a time.  Raises ValueError
    on an invalid atom and on anything else, even input pair_from_json takes."""
    scan = _Scanner(fh)
    scan.expect("{")
    scan.key("fiber_dim")
    fiber_dim = _fiber_dim(scan.value())
    scan.expect(",")
    scan.key("atoms")
    scan.expect("[")

    def entries():
        yield scan.value()
        while scan.skip(","):
            yield scan.value()

    blocks = _atom_blocks(entries(), fiber_dim)
    scan.expect("]")
    meta = None
    if scan.skip(","):
        scan.key("meta")
        meta = scan.value()
    scan.expect("}")
    if scan.peek():
        raise _Unrecognised("data after the instance object")
    return _stacked_document(blocks, meta)


def read_pair(fh) -> PairDocument:
    """The instance in the open text file fh, as pair_from_json(json.load(fh))
    returns it, without holding the file's text or its decoded document.

    Text the streamed reader does not take (another key order, extra keys, a
    syntax error, bytes that are not UTF-8, nesting past the recursion
    limit) is parsed again by json.load and pair_from_json, so errors and
    their messages are theirs.  An invalid fiber_dim or atom, or atoms that
    disagree, raise the message pair_from_json gives for them at once,
    without reading the rest of the file: such an error is reported even
    where a syntax error in a later block of _ATOM_BLOCK atoms follows it,
    and a file that repeats a top-level key is refused for an invalid value
    of its first copy, though json.load would keep the last.  A file that
    cannot seek back goes to json.load directly.
    """
    if fh.seekable():
        start = fh.tell()
        try:
            return _stream_pair(fh)
        except (_Unrecognised, UnicodeDecodeError, RecursionError):
            pass
        fh.seek(start)
    return pair_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# The binary companion of an instance file: an uncompressed .npz archive of
# the arrays read_pair returns for that file, bound to it by the sha256 of
# its bytes.  The JSON stays the interchange format; the companion only
# spares a reader decoding the same text again.

# The layout below; a companion of another format is not read.
_COMPANION_FORMAT = 1
# Member -> (dtype, rank).  ids and meta are the JSON text of the atom ids
# and of meta; B and f are absent when the instance has none.
_COMPANION_MEMBERS = {
    "format": (np.dtype(np.int64), 0),
    "sha256": (np.dtype(np.uint8), 1),
    "ids": (np.dtype(np.uint8), 1),
    "meta": (np.dtype(np.uint8), 1),
    "weights": (np.dtype(np.float64), 1),
    "A": (np.dtype(np.complex128), 3),
    "B": (np.dtype(np.complex128), 3),
    "f": (np.dtype(np.complex128), 2),
}
_COMPANION_OPTIONAL = {"B", "f"}
# What a damaged or foreign companion can raise while it is read.
_COMPANION_ERRORS = (
    OSError, EOFError, ValueError, TypeError, KeyError, RecursionError, NotImplementedError, zipfile.BadZipFile
)


def _text_member(text: str) -> np.ndarray:
    # dumps writes ASCII: _quote escapes every other character
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _write_companion(fh, sha256: bytes, pair: PairDocument):
    """Write to the binary file fh the companion of an instance file whose
    bytes have the given sha256 digest and which holds pair, a document
    without targets W, as gen writes it.

    The archive is uncompressed and its entries carry a fixed date, so the
    same instance gives the same bytes.  Each member is an npy 1.0 file,
    built just before it is written, so the writer holds at most two copies
    of one member at a time.  Every float is stored as x + 0.0: -0.0 is written to the
    JSON as "-0", which parses as the integer 0, so 0.0 is the value
    read_pair reads back.
    """

    def members():
        yield "format", np.array(_COMPANION_FORMAT, dtype=np.int64)
        yield "sha256", np.frombuffer(sha256, dtype=np.uint8)
        yield "ids", _text_member(dumps(list(pair.measure.atoms)))
        yield "meta", _text_member(dumps(pair.meta))
        yield "weights", pair.measure.weights
        yield "A", pair.sa.matrices
        if pair.sb is not None:
            yield "B", pair.sb.matrices
        if pair.probe is not None:
            yield "f", pair.probe.values

    with zipfile.ZipFile(fh, "w") as zf:
        for name, array in members():
            npy = io.BytesIO()
            np.lib.format.write_array(npy, array + 0.0 if array.dtype.kind in "fc" else array, version=(1, 0))
            zf.writestr(zipfile.ZipInfo(name + ".npy"), npy.getbuffer())
            del npy


def _npy_header(fh) -> tuple:
    """(shape, fortran_order, dtype) from the header of the npy 1.0 stream
    fh, the only version _write_companion writes."""
    version = np.lib.format.read_magic(fh)
    if version != (1, 0):
        raise ValueError(f"npy format version {version}")
    return np.lib.format.read_array_header_1_0(fh)


def _companion_shapes(headers: dict) -> bool:
    """Whether the members' headers give the dtypes, ranks and C order of
    _COMPANION_MEMBERS and shapes that fit one instance: A (K, d, r), B
    (K, d, r'), f (K, d), K weights and a 32-byte digest."""
    for name, (shape, fortran_order, dtype) in headers.items():
        if (dtype, len(shape)) != _COMPANION_MEMBERS[name] or fortran_order or min(shape, default=0) < 0:
            return False
    k, d = headers["A"][0][:2]
    return (
        headers["sha256"][0] == (32,)
        and headers["weights"][0] == (k,)
        and ("B" not in headers or headers["B"][0][:2] == (k, d))
        and ("f" not in headers or headers["f"][0] == (k, d))
    )


def _read_companion(fh, sha256: bytes, max_bytes: int) -> PairDocument | None:
    """The instance in the companion open as the binary file fh, as
    _write_companion wrote it for a file whose bytes have the digest sha256;
    None, raising nothing, for anything else.

    Every member's .npy header is read before any array data.  A companion
    is taken only when the headers fit one instance and declare at most
    max_bytes of arrays in all, its format is _COMPANION_FORMAT and its
    recorded digest is sha256.  The arrays are read whole, so each member's
    CRC is checked, and the document is built as one block by
    _stacked_document, which validates it as it does the parsed text.
    """
    try:
        with zipfile.ZipFile(fh) as zf:
            infos = {info.filename.removesuffix(".npy"): info for info in zf.infolist()}
            if not _COMPANION_MEMBERS.keys() - _COMPANION_OPTIONAL <= infos.keys() <= _COMPANION_MEMBERS.keys():
                return None
            # stored .npy entries with no flag set: no decompressor or password runs
            if any(
                info.filename != name + ".npy" or info.compress_type != zipfile.ZIP_STORED or info.flag_bits
                for name, info in infos.items()
            ):
                return None
            headers = {}
            for name, info in infos.items():
                with zf.open(info, mode="r") as member:
                    headers[name] = _npy_header(member)
            size = sum(math.prod(shape) * dtype.itemsize for shape, _, dtype in headers.values())
            if not _companion_shapes(headers) or size > max_bytes:
                return None
            arrays = {}
            for name, info in infos.items():
                with zf.open(info, mode="r") as member:
                    arrays[name] = np.lib.format.read_array(member, allow_pickle=False)
                    if member.read(1):  # data after the array
                        return None
        if arrays["format"] != _COMPANION_FORMAT or arrays["sha256"].tobytes() != sha256:
            return None
        ids = json.loads(arrays["ids"].tobytes())
        block = _AtomBlock(ids, arrays["weights"], arrays["A"], arrays.get("B"), None, arrays.get("f"))
        return _stacked_document([block], json.loads(arrays["meta"].tobytes()))
    except _COMPANION_ERRORS:
        return None


# ---------------------------------------------------------------------------
# Groups, plans, signals.


def group_to_json(g: FiniteGroupSpec) -> dict:
    doc = {"kind": g.kind, "order": g.order}
    if g.kind == "explicit":
        doc["mul"] = [[int(v) for v in row] for row in g.mul]
    return doc


def plan_to_json(plan: ZakPlan) -> dict:
    return {
        "group": group_to_json(plan.group),
        "subgroup_generator": plan.generator,
        "subgroup": list(plan.subgroup),
        "section": list(plan.section),
        "q": plan.q,
        "p": plan.p,
    }


def signal_from_json(doc, order: int, where: str = "signal") -> np.ndarray:
    v = vector_from_json(doc, where)
    if v.shape != (order,):
        raise ValueError(f"{where}: length {v.shape[0]}, expected {order}")
    return v


# ---------------------------------------------------------------------------
# Reports.


def table_rows(table: dict, keys=None) -> list[dict]:
    """Rows of a column table, the dict from key to per-atom column in which
    reports hold their per-atom results: one dict per atom with the given
    keys, or every key in order when keys is None.  Array columns give
    Python scalars."""
    keys = tuple(table) if keys is None else tuple(keys)
    columns = [_as_list(table[key]) for key in keys]
    return [dict(zip(keys, values)) for values in zip(*columns)]


def equivalence_report_to_json(report: EquivalenceReport, include_witnesses: bool = True) -> dict:
    rows = table_rows(report.diagnostics)
    doc = {
        "global_duals_exist": report.global_duals_exist,
        "global_angles_positive": report.global_angles_positive,
        "fiber_duals_exist": report.fiber_duals_exist,
        "fiber_angles_positive": report.fiber_angles_positive,
        "all_hold": report.all_hold,
        "angles_global": [report.angles_global[0], report.angles_global[1]],
        "worst_fiber": rows[report.worst_fiber],
        "witness_status": report.witness_status,
        "max_local_residual": report.max_local_residual,
        "max_global_residual": report.max_global_residual,
        "frame_bounds_a": list(report.frame_bounds_a),
        "frame_bounds_b": list(report.frame_bounds_b),
        "diagnostics": rows,
    }
    if include_witnesses and report.witnesses is not None:
        doc["witnesses"] = {
            "A": pair_to_json(report.witnesses[0]),
            "B": pair_to_json(report.witnesses[1]),
        }
    return doc


# Characters that make a CSV field need quoting (RFC 4180).
_CSV_QUOTED = re.compile(r'[,"\r\n]')


def _csv_cell(v) -> str:
    """One CSV field: a float in the report format, a string that holds a
    comma, a quote or a line break quoted with its quotes doubled (RFC 4180),
    anything else as str()."""
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, str) and _CSV_QUOTED.search(v):
        return '"' + v.replace('"', '""') + '"'
    return str(v)


def diagnostics_to_csv(table: dict) -> str:
    """CSV text of a column table, such as EquivalenceReport.diagnostics: a
    header of its keys, then one line per atom."""
    lines = [",".join(table)]
    for row in table_rows(table):
        lines.append(",".join(map(_csv_cell, row.values())))
    return "\n".join(lines) + "\n"


def biorth_report_to_json(report: BiorthogonalityReport) -> dict:
    doc = {
        "holds": report.holds,
        "riesz_bounds": [report.riesz_bounds[0], report.riesz_bounds[1]],
        "failed_atoms": list(report.failed_atoms),
        "biorth_deviation": report.biorth_deviation,
        "repro_residual": report.repro_residual,
        "rows": table_rows(report.rows),
    }
    if report.dual is not None:
        doc["dual"] = pair_to_json(report.dual)
    return doc
