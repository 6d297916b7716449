"""Wire formats and a byte-deterministic JSON writer.

All numeric payloads use explicit [re, im] pairs so that files round-trip
without complex-literal ambiguity.  Reports are written with a fixed-order,
17-significant-digit float format: running the same command with the same
seed reproduces the output byte for byte.

Both directions work a block at a time.  The ``*_to_json`` functions hand
complex data to ``dumps`` as float64 ``(..., 2)`` arrays of [re, im] pairs,
laid out exactly as the equivalent nested lists, and per-atom results as
plain lists of plain dicts, one a record (``_records``).  ``dumps`` writes
any list of dicts whose records share their keys and the type of each
key's values a block of records at a time, from one template of the
block's layout, with every float of the block formatted by one call of a
vectorised kernel that gives the bytes of '%.17g' (``_blocks._kernel``).
It gathers each key's values from the records as they stand when it
writes; a list it cannot lay out so is written record by record.  The parsers
check the structure and element types of a whole block (one vector, one
matrix, or the A, B or f entries of _ATOM_BLOCK consecutive atoms) at once
and convert it with one ``np.array`` call.  A block that check turns down
is converted where it stands, atom by atom and pair by pair, by the step
that raises the error naming the atom and path.  ``_stacked_document``
joins the blocks of every instance.

Files are streamed.  ``dump`` writes a document to a file piece by piece
(a key with its scalar, an array or a block of records), and ``read_pair``
decodes an instance file one atom at a time and converts it a block of
atoms at a time, so neither holds the whole text of a file.
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
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import eq, itemgetter
from typing import NamedTuple

import numpy as np

from .mispace import (
    BiorthogonalityReport,
    EquivalenceReport,
    FiberedFunction,
    FiberedSystem,
    MeasureModel,
    PairDocument,
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


# Floats go out a block at a time through _float_text: through the float
# kernel (_blocks._kernel), or below _KERNEL_MIN floats through a '%.17g'
# template.  The kernel costs about 85 us a call plus 0.16 us a float, a
# template 0.4-0.5 us a float (2 CPUs, numpy 2.4.6, best of 30), so the
# kernel wins from some 250-350 floats.  A kernel call formats at most
# _KERNEL_MAX floats: its temporaries peak at about 190 bytes a float there
# (tracemalloc), and a block of records holds its text and float columns as
# well, all inside the peak of the commands' memory test (1.5x the instance
# size).  The kernel and the block layouts live in _blocks, imported where
# a block is first written, so that importing framekit does not compile them.
_KERNEL_MIN = 384
_KERNEL_MAX = 2048


def _float_text(values: np.ndarray, lits: tuple) -> str:
    """"".join(format(v, ".17g") + lits[j]) over values[i, j] in C order: a
    float64 (rows, len(lits)) array, lits ASCII.  Raises ValueError on a
    non-finite value."""
    if values.size < _KERNEL_MIN:
        if not np.isfinite(values).all():
            raise ValueError("cannot serialize a non-finite float")
        row = "".join("%.17g" + lit.replace("%", "%%") for lit in lits)
        return (row * len(values)) % tuple(values.ravel().tolist())
    from . import _blocks

    x = values.ravel()
    codes, pieces = _blocks._coded(lits)
    codes = np.broadcast_to(codes, values.shape).ravel()
    texts = []
    for i in range(0, x.size, _KERNEL_MAX):
        text, bad = _blocks._kernel(x[i : i + _KERNEL_MAX], codes[i : i + _KERNEL_MAX], pieces)
        if bad.size:
            # the floats the kernel leaves to _fmt_float
            parts = text.split(_blocks._FALLBACK)
            parts[1:] = [_fmt_float(v) + rest for v, rest in zip(x[i + bad].tolist(), parts[1:])]
            text = "".join(parts)
        texts.append(text)
    return "".join(texts)


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
    # a row of the first axis at a time, laid out as _array_template lays
    # out the whole: each row's last float is followed by the text up to
    # the next row's first float, which the last row then gives back
    pad = "  " * indent
    if a.ndim == 1:
        head, sep, tail, row = "[", ", ", "]", "%.17g"
    else:
        head, sep, tail = "[\n" + pad + "  ", ",\n" + pad + "  ", "\n" + pad + "]"
        row = _array_template(a.shape[1:], indent + 1)
    start, *lits = row.split("%.17g")
    lits[-1] += sep + start
    text = _float_text(a.reshape(len(a), -1), tuple(lits))
    write(head + start + text[: -len(sep + start)] + tail)


def _scalar(obj) -> str | None:
    """The JSON text of a float, str, None, bool or integer; None for anything
    else.  numpy bools and floats of any width count as bools and as their
    float64 value.  The numbers.Integral check (an ABC, so slow) comes
    after bool, which it would also match."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _fmt_float(obj)
    return None


def _block_text(layout, lo: int, hi: int) -> str:
    """The text of rows lo .. hi - 1 as layout, a _blocks._Layout, lays them
    out."""
    from . import _blocks

    cols, runs = [], layout.recipe.count(None)
    if layout.lits:
        block = [np.asarray(col[lo:hi]).reshape(hi - lo, -1) for col in layout.floats]
        block = block[0] if len(block) == 1 else np.concatenate(block, axis=1)
        chunks = _float_text(block, layout.lits).split(_blocks._RUN_END)
    run = 0
    for part in layout.recipe:
        if part is None:
            cols.append(chunks[run::runs])
            run += 1
        elif isinstance(part, str):
            cols.append(repeat(part, hi - lo))
        else:
            col, text = layout.values[part]
            items = col[lo:hi]
            cols.append(list(map(text, items.tolist() if isinstance(items, np.ndarray) else items)))
    return "".join(chain.from_iterable(zip(*cols)))


# The text of a str, int or bool, by its exact type, as _scalar gives it.
_VALUE_TEXT = {str: _quote, int: str, bool: {False: "false", True: "true"}.__getitem__}


def _record_layout(rows: list, indent: int, floats: list, values: list) -> str | None:
    """One record of rows, dicts, as _write lays it out at indent, with "\0"
    for each float and "\1" for each str, int or bool, whose columns (one
    value a record) are appended to floats and values.  None unless every
    record is a dict with the first record's keys in order, and every key's
    values share one type the layout can hold: a dict, a float, a str, an
    int, a bool, or a float64 array of one non-empty shape."""
    keys = tuple(rows[0])
    if set(map(type, rows)) != {dict} or not all(map(eq, map(tuple, rows), repeat(keys))):
        return None
    if not keys:
        return "{}"
    pad, items = "  " * indent, []
    for key in keys:
        col = list(map(itemgetter(key), rows))
        kinds = set(map(type, col))
        if type(key) is not str or len(kinds) != 1:
            return None
        kind = kinds.pop()
        if kind is dict:
            text = _record_layout(col, indent + 1, floats, values)
        elif kind is float:
            floats.append(col)
            text = "\0"
        elif kind is np.ndarray:
            shapes = {(v.dtype, v.shape) for v in col}
            dtype, shape = shapes.pop()
            if shapes or dtype != np.float64 or not shape or 0 in shape:
                return None
            floats.append(col)
            text = _array_template(shape, indent + 1).replace("%.17g", "\0")
        elif kind in _VALUE_TEXT:
            values.append((col, _VALUE_TEXT[kind]))
            text = "\1"
        else:
            return None
        if text is None:
            return None
        items.append(f"{pad}  {_quote(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n" + pad + "}"


def _write_records(rows: list, write, indent: int) -> bool:
    """Write rows, a list or tuple whose first item is a dict, a block of
    records at a time, each block as one template of the records' layout
    filled from the values they hold now.  False, with nothing written, when
    _record_layout cannot lay them out; the caller then writes them as any
    list."""
    floats, values = [], []
    row = _record_layout(rows, indent + 1, floats, values)
    if row is None:
        return False
    from . import _blocks

    n, sep = len(rows), ",\n" + "  " * (indent + 1)
    layout = _blocks._layout(row, floats, values, sep)
    step = max(1, _KERNEL_MAX // max(1, len(layout.lits)))
    write("[\n" + "  " * (indent + 1))
    for lo in range(0, n, step):
        text = _block_text(layout, lo, min(lo + step, n))
        write(text if lo + step < n else text[: -len(sep)])
    write("\n" + "  " * indent + "]")
    return True


def _cells(columns: list, count: int):
    """The values of each of count records, a tuple a record, from columns:
    a list or tuple with one value a record, or a constant."""
    if not columns:
        return repeat((), count)
    return zip(*[col if isinstance(col, (list, tuple)) else repeat(col, count) for col in columns])


def _records(spec: dict, count: int) -> list:
    """count records, plain dicts, from spec, which maps each key to a
    column, a nested spec (a dict) or a constant.  A column is an array
    whose first axis runs over the records, or a list or tuple with one item
    a record.  A record holds its row of each column: a Python scalar from a
    1-D array, a view from an array of more dimensions, the item of a list
    or tuple."""
    columns = []
    for col in spec.values():
        if isinstance(col, dict):
            col = _records(col, count)
        elif isinstance(col, np.ndarray):
            col = col.tolist() if col.ndim == 1 else list(col)
        columns.append(col)
    return list(map(dict, map(zip, repeat(tuple(spec)), _cells(columns, count))))


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
        if obj and type(obj[0]) is dict and _write_records(obj, write, indent):
            return
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


def pair_to_json(
    sa: FiberedSystem,
    sb: FiberedSystem | None = None,
    targets: list[Subspace] | None = None,
    probe: FiberedFunction | None = None,
    meta: dict | None = None,
) -> dict:
    measure, d = sa.measure, sa.fiber_dim
    # every atom's "vectors" block at once: row i of a block is generator i
    spec = {"id": measure.atoms, "weight": measure.weights}
    spec["A"] = {"dim": d, "vectors": _pairs(sa.matrices.swapaxes(-1, -2))}
    if sb is not None:
        spec["B"] = {"dim": d, "vectors": _pairs(sb.matrices.swapaxes(-1, -2))}
    if targets is not None:
        spec["W"] = [subspace_to_json(t) for t in targets]
    if probe is not None:
        spec["f"] = _pairs(probe.values)
    doc = {"fiber_dim": d, "atoms": _records(spec, measure.count)}
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
    duplicate ids or differing generator counts, then an id UTF-8 rejects."""
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
    for atom_id in measure.atoms:
        atom_id.encode("utf-8")
    targets = None if first.targets is None else [t for blk in blocks for t in blk.targets]
    probe = None
    if first.probe is not None:
        probe = FiberedFunction(measure, _joined([blk.probe for blk in blocks]))
    return PairDocument(sa, sb, targets, probe, meta if isinstance(meta, dict) else {})


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
    keys, or every key in order when keys is None.  1-D array columns give
    Python scalars; a complex array column gives each atom its values as
    [re, im] pairs, as vector_to_json does.  dumps writes the list a block
    of records at a time, as it writes any list of records."""
    keys = tuple(table) if keys is None else tuple(keys)
    spec = {key: table[key] for key in keys}
    for key, col in spec.items():
        if isinstance(col, np.ndarray) and np.iscomplexobj(col):
            spec[key] = _pairs(col)
    return _records(spec, len(spec[keys[0]]))


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


def _csv_text(v: str) -> str:
    """A string as one CSV field: quoted with its quotes doubled when it holds
    a comma, a quote or a line break (RFC 4180), else as it is."""
    return '"' + v.replace('"', '""') + '"' if _CSV_QUOTED.search(v) else v


def diagnostics_to_csv(table: dict) -> str:
    """CSV text of a column table, such as EquivalenceReport.diagnostics: a
    header of its keys, then one line per atom, a block of lines at a time:
    floats in the report format, strings as _csv_text, others as str()."""
    from . import _blocks

    floats, values, cells = [], [], []
    for col in table.values():
        if isinstance(col, np.ndarray) and col.dtype == np.float64:
            floats.append(col.reshape(-1, 1))
            cells.append("\0")
        else:
            values.append((col, _csv_text if not isinstance(col, np.ndarray) else str))
            cells.append("\1")
    layout = _blocks._layout(",".join(cells), floats, values, "\n")
    n, step = len(next(iter(table.values()))), max(1, _KERNEL_MAX // max(1, len(floats)))
    return ",".join(table) + "\n" + "".join(_block_text(layout, lo, min(lo + step, n)) for lo in range(0, n, step))


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
