"""The binary companion of an instance file.

gen writes x.json.npz beside its --out file x.json: the arrays read_pair
returns for x.json and the sha256 of its bytes.  The readers (every command
that takes --in) load it only while they can show it holds what read_pair
would return, and parse the JSON in every other case, with the same output,
exit code and messages, writing nothing and leaving the companion as it is.
"""

import dataclasses
import hashlib
import io
import os
import pathlib
import shutil
import stat
import sys
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framekit import cli
from framekit.generate import FAMILIES
from framekit.generate import duality_instance
from framekit.mispace import FiberedFunction, FiberedSystem, MeasureModel
from framekit.serialize import PairDocument, _read_companion, _write_companion, dumps, pair_to_json, read_pair

BOUNDED = settings(max_examples=150, deadline=None, database=None, derandomize=True)
GEN = ["gen", "--family", "in-duality", "--atoms", "40", "--dim", "4", "--gens", "3", "--seed", "8"]
READERS = ("verify-thm1", "verify-thm2", "angles", "dual", "reconstruct")
GROUP_OR_OTHER_WRITE = stat.S_IWGRP | stat.S_IWOTH


def _companion_of(path) -> pathlib.Path:
    return pathlib.Path(str(path) + ".npz")


def _parse(path):
    with open(path, "r", encoding="utf-8") as fh:
        return read_pair(fh)


def _load(path):
    """The companion beside the instance file path as the readers take it, or None."""
    with open(path, "rb") as fh:
        return cli._companion_pair(str(path), fh)


def _assert_identical(got, want):
    """got holds want's bits: every array with its dtype, shape and C order,
    the ids, meta with its types (tuples read back as lists), no targets."""
    assert got.measure.atoms == want.measure.atoms
    assert (got.sb is None, got.probe is None) == (want.sb is None, want.probe is None)
    arrays = [(got.measure.weights, want.measure.weights), (got.sa.matrices, want.sa.matrices)]
    if got.sb is not None:
        arrays.append((got.sb.matrices, want.sb.matrices))
    if got.probe is not None:
        arrays.append((got.probe.values, want.probe.values))
    for x, y in arrays:
        assert (x.dtype, x.shape, x.flags.c_contiguous) == (y.dtype, y.shape, True)
        assert x.tobytes() == y.tobytes()
    assert got.targets is None and want.targets is None
    assert repr(got.meta) == repr(want.meta)


# ---------------------------------------------------------------------------
# The codec: the companion of an instance is read_pair of its JSON, bit for bit.

FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.max, -sys.float_info.max,
    2.0**53 + 2, -(2.0**60), 12345678901234568.0, 1e300,
])
VALUES = FINITE | EDGES
META = st.dictionaries(
    st.text(max_size=3),
    st.none() | st.booleans() | st.integers() | VALUES | st.text(max_size=3) | st.tuples(VALUES, st.integers()),
    max_size=4,
)


@st.composite
def documents(draw):
    """PairDocuments of arbitrary finite doubles, as gen hands them to _emit:
    A, optional B (of its own length) and f, meta with tuples; no targets."""
    k, d, r = draw(st.integers(1, 40)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=k, max_size=k, unique=True))
    weights = draw(hnp.arrays(np.float64, k, elements=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))
    measure = MeasureModel(tuple(ids), weights)

    def stack(*shape):
        return draw(hnp.arrays(np.float64, shape + (2,), elements=VALUES)).view(np.complex128)[..., 0]

    sa = FiberedSystem(measure, stack(k, d, r))
    sb = FiberedSystem(measure, stack(k, d, draw(st.integers(1, 3)))) if draw(st.booleans()) else None
    probe = FiberedFunction(measure, stack(k, d)) if draw(st.booleans()) else None
    return PairDocument(sa, sb, None, probe, draw(META))


def _round_trip(pair):
    """(read_pair of pair's JSON, the JSON's sha256 and size, the companion's bytes)."""
    text = dumps(pair_to_json(pair.sa, pair.sb, probe=pair.probe, meta=pair.meta))
    data = text.encode("utf-8")
    digest = hashlib.sha256(data).digest()
    buf = io.BytesIO()
    _write_companion(buf, digest, pair)
    return read_pair(io.StringIO(text)), digest, len(data), buf.getvalue()


@BOUNDED
@given(documents())
def test_companion_is_read_pair_of_the_json(pair):
    want, digest, size, blob = _round_trip(pair)
    # the readers' bound: arrays of at most 4x the JSON's size
    got = _read_companion(io.BytesIO(blob), digest, 4 * size)
    assert got is not None
    _assert_identical(got, want)


def test_negative_zero_is_stored_as_the_json_reads_it():
    measure = MeasureModel(("a",), np.array([1.0]))
    z = complex(-0.0, -0.0)
    pair = PairDocument(FiberedSystem(measure, np.array([[[z]]])), probe=FiberedFunction(measure, [[z]]),
                        meta={"x": -0.0})
    want, digest, size, blob = _round_trip(pair)
    got = _read_companion(io.BytesIO(blob), digest, 4 * size)
    _assert_identical(got, want)
    assert not np.signbit(got.sa.matrices.view(np.float64)).any()
    assert got.meta == {"x": 0} and type(got.meta["x"]) is int


@pytest.mark.parametrize("family", FAMILIES)
def test_gen_companion_is_read_pair_of_its_json(family, tmp_path):
    path = tmp_path / "x.json"
    argv = ["gen", "--family", family, "--atoms", "70", "--dim", "4", "--gens", "3", "--seed", "3"]
    assert cli.main(argv + ["--out", str(path)]) == 0
    got = _load(path)
    assert got is not None
    _assert_identical(got, _parse(path))


@pytest.mark.parametrize("family", FAMILIES)
def test_gen_reads_back_as_the_drawn_instance(family, tmp_path):
    """duality_instance draws the type every reader returns, on A's measure,
    and gen then read_pair, with or without the companion, gives back its
    arrays bit for bit and its meta followed by gen's three stamp keys (a
    float meta value with an integral value reads back as an int)."""
    inst = duality_instance(family, 70, 4, 3, seed=3)
    assert isinstance(inst, PairDocument)
    assert inst.measure is inst.sa.measure
    path = tmp_path / "x.json"
    argv = ["gen", "--family", family, "--atoms", "70", "--dim", "4", "--gens", "3", "--seed", "3"]
    assert cli.main(argv + ["--out", str(path)]) == 0
    meta = {**inst.meta, "tool": "framekit", "version": cli.__version__, "command": "gen"}
    for got in (_load(path), _parse(path)):
        assert list(got.meta.items()) == list(meta.items())
        _assert_identical(got, dataclasses.replace(inst, meta=got.meta))


@BOUNDED
@given(st.data())
def test_damaged_companion_is_refused_or_intact(data):
    """Truncated or with bytes changed, a companion reads as None, or as the
    instance when only bytes nobody reads were hit; it never raises."""
    want, digest, size, blob = _round_trip(data.draw(documents()))
    damaged = bytearray(blob)
    if data.draw(st.booleans()):
        damaged = damaged[: data.draw(st.integers(0, len(blob) - 1))]
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            damaged[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    got = _read_companion(io.BytesIO(bytes(damaged)), digest, 4 * size)
    if got is not None:
        _assert_identical(got, want)


# ---------------------------------------------------------------------------
# The writer: gen, to a regular file only.


def test_gen_writes_a_companion_the_readers_take(tmp_path, monkeypatch, capsys):
    old = os.umask(0o002)
    try:
        path = tmp_path / "x.json"
        assert cli.main(GEN + ["--out", str(path)]) == 0
    finally:
        os.umask(old)
    companion = _companion_of(path)
    mode = stat.S_IMODE(path.stat().st_mode)
    assert mode == 0o664
    assert stat.S_IMODE(companion.stat().st_mode) == mode & ~GROUP_OR_OTHER_WRITE
    cold = tmp_path / "cold.json"
    shutil.copyfile(path, cold)
    want = {command: cli.main([command, "--in", str(cold)]) for command in READERS}
    want_out = capsys.readouterr().out

    def forbidden(fh):
        raise AssertionError("parsed the JSON")

    monkeypatch.setattr(cli, "read_pair", forbidden)
    assert {command: cli.main([command, "--in", str(path)]) for command in READERS} == want
    assert capsys.readouterr().out == want_out
    # a link to the instance finds the companion beside the file it names
    link = tmp_path / "link.json"
    link.symlink_to(path)
    assert cli.main(["angles", "--in", str(link)]) == 0


def test_gen_companion_bytes_are_deterministic(tmp_path):
    for name in ("a.json", "b.json"):
        assert cli.main(GEN + ["--out", str(tmp_path / name)]) == 0
    assert _companion_of(tmp_path / "a.json").read_bytes() == _companion_of(tmp_path / "b.json").read_bytes()


def test_only_gen_to_a_regular_file_writes_a_companion(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(GEN) == 0  # to stdout
    capsys.readouterr()
    assert not any(tmp_path.iterdir())
    assert cli.main(GEN + ["--out", os.devnull]) == 0
    assert not os.path.exists(os.devnull + ".npz")
    path = tmp_path / "x.json"
    assert cli.main(GEN + ["--out", str(path)]) == 0
    _companion_of(path).unlink()
    before = sorted(p.name for p in tmp_path.iterdir())
    for command in READERS:
        assert cli.main([command, "--in", str(path), "--out", str(tmp_path / f"{command}.out")]) == 0
    # readers write their reports and nothing else
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + [f"{c}.out" for c in READERS])


def test_companion_that_cannot_be_written_is_left_out(tmp_path, capsys):
    path = tmp_path / "x.json"
    _companion_of(path).mkdir()
    assert cli.main(GEN + ["--out", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json", "x.json.npz"]
    assert _companion_of(path).is_dir() and not any(_companion_of(path).iterdir())
    assert _parse(path).meta["family"] == "in-duality"


# ---------------------------------------------------------------------------
# The readers fall back to the JSON on anything they cannot trust.


def _members(companion) -> dict:
    with zipfile.ZipFile(companion) as zf:
        return {info.filename: zf.read(info) for info in zf.infolist()}


def _rewrite(companion, **members):
    """Replace members (name -> .npy bytes) of a companion, keeping the rest."""
    blobs = _members(companion) | {f"{name}.npy": blob for name, blob in members.items()}
    with zipfile.ZipFile(companion, "w") as zf:
        for name, blob in blobs.items():
            zf.writestr(zipfile.ZipInfo(name), blob)


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array)
    return buf.getvalue()


def _header_only(shape, descr) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": descr, "fortran_order": False, "shape": shape})
    return buf.getvalue()


def _edit_json(path, companion, monkeypatch):
    data = bytearray(path.read_bytes())
    at = data.index(b'"weight": ') + len(b'"weight": ') + 3
    assert chr(data[at]).isdigit()
    data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))


def _other_owner(path, companion, monkeypatch):
    fstat, seen = os.fstat, os.stat(companion)

    def faked(fd):
        st = fstat(fd)
        if os.path.samestat(st, seen):
            fields = list(st[:10])
            fields[stat.ST_UID] += 1
            return os.stat_result(fields)
        return st

    monkeypatch.setattr(os, "fstat", faked)


def _symlink(path, companion, monkeypatch):
    elsewhere = companion.with_name("elsewhere.npz")
    companion.rename(elsewhere)
    companion.symlink_to(elsewhere)


def _directory(path, companion, monkeypatch):
    companion.unlink()
    companion.mkdir()


def _fifo(path, companion, monkeypatch):
    # opening a FIFO for reading would wait for a writer
    companion.unlink()
    os.mkfifo(companion)


def _huge_header(path, companion, monkeypatch):
    # consistent shapes of 10^12 entries in A; no array data follows them
    k = 10**10
    _rewrite(companion, weights=_header_only((k,), "<f8"), A=_header_only((k, 10, 10), "<c16"),
             B=_header_only((k, 10, 10), "<c16"), f=_header_only((k, 10), "<c16"))


FALLBACKS = {
    "json-edited": _edit_json,
    "truncated": lambda path, companion, mp: companion.write_bytes(companion.read_bytes()[:-100]),
    "not-a-zip": lambda path, companion, mp: companion.write_bytes(b"not a zip archive\n"),
    "wrong-format": lambda path, companion, mp: _rewrite(companion, format=_npy(np.array(2, dtype=np.int64))),
    "group-writable": lambda path, companion, mp: companion.chmod(companion.stat().st_mode | stat.S_IWGRP),
    "other-owner": _other_owner,
    "symlink": _symlink,
    "directory": _directory,
    "fifo": _fifo,
    "huge-header": _huge_header,
}


def _state(companion):
    st = os.lstat(companion)
    return st.st_mode, st.st_ino, st.st_mtime_ns, st.st_size, companion.read_bytes() if companion.is_file() else None


def _outcomes(path, capsys):
    results = []
    for command in READERS:
        rc = cli.main([command, "--in", str(path)])
        captured = capsys.readouterr()
        results.append((command, rc, captured.out, captured.err))
    return results


@pytest.mark.parametrize("case", FALLBACKS)
def test_reader_falls_back_to_the_json(case, tmp_path, monkeypatch, capsys):
    path = tmp_path / "x.json"
    assert cli.main(GEN + ["--out", str(path)]) == 0
    companion = _companion_of(path)
    FALLBACKS[case](path, companion, monkeypatch)
    cold = tmp_path / "cold" / "x.json"
    cold.parent.mkdir()
    shutil.copyfile(path, cold)
    want = _outcomes(cold, capsys)
    before = _state(companion)

    parsed, parse = [], cli.read_pair
    monkeypatch.setattr(cli, "read_pair", lambda fh: parsed.append(1) or parse(fh))
    read_array, data_read = np.lib.format.read_array, []
    monkeypatch.setattr(np.lib.format, "read_array", lambda *a, **k: data_read.append(1) or read_array(*a, **k))
    assert _outcomes(path, capsys) == want
    assert len(parsed) == len(READERS)
    assert _state(companion) == before
    if case == "huge-header":
        assert data_read == []


def test_reader_takes_a_valid_companion(tmp_path, monkeypatch):
    # the control for the cases above: the same set-up, untouched, is read
    path = tmp_path / "x.json"
    assert cli.main(GEN + ["--out", str(path)]) == 0
    _rewrite(_companion_of(path))  # rewritten by another zip writer, same members
    assert _load(path) is not None
