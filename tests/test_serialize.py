"""Round trips and formatting guarantees of the JSON layer."""

import copy
import csv
import io
import json
import os
import pathlib
import pickle
import subprocess
import sys
import tempfile
from decimal import Decimal
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framekit import cli, serialize
from framekit.fiberframe import FiberSystem
from framekit.generate import duality_instance, random_fibered_system
from framekit.mispace import FiberedSystem, MeasureModel, verify_biorthogonality, verify_duality
from framekit.serialize import (
    _fmt_float,
    diagnostics_to_csv,
    dump,
    dumps,
    equivalence_report_to_json,
    group_to_json,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    pair_to_json,
    read_pair,
    signal_from_json,
    subspace_from_json,
    subspace_to_json,
    vector_from_json,
    vector_to_json,
)
from framekit.subspace import Subspace
from framekit.zak import cyclic_group, dihedral_group, explicit_group

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "cli"

# the header line of verify-thm1 --format csv and angles --format csv
CSV_HEADER = "atom,dim_ja,dim_jb,r_ab,r_ba,rank_mixed,pinv_norm"


def test_dumps_is_deterministic_and_newline_terminated():
    doc = {"b": 1.5, "a": [1.0, 2.0, 3.0], "nested": {"x": True, "y": None}}
    one = dumps(doc)
    two = dumps(doc)
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one) == doc


def test_dumps_preserves_insertion_order():
    text = dumps({"zeta": 1, "alpha": 2})
    assert text.index("zeta") < text.index("alpha")


def test_dumps_full_float_precision():
    x = 0.1 + 0.2
    assert json.loads(dumps({"v": x}))["v"] == x
    third = 1.0 / 3.0
    assert json.loads(dumps({"v": third}))["v"] == third


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps({"v": float("nan")})
    with pytest.raises(ValueError):
        dumps({"v": float("inf")})


@pytest.mark.parametrize("bad,message", [
    (float("-inf"), "cannot serialize a non-finite float"),
    ({1: 0}, "JSON object keys must be strings, got 1"),
    (1j, "cannot serialize object of type complex"),
    (np.complex64(1.0), "cannot serialize object of type complex64"),
])
def test_dumps_names_what_it_rejects(bad, message):
    for doc in (bad, [bad], [0, {"k": [1, {"v": bad}]}]):
        with pytest.raises(ValueError) as exc:
            dumps(doc)
        assert str(exc.value) == message


def test_dumps_takes_numpy_bools_and_floats_of_any_width():
    doc = {"t": np.True_, "f": [np.False_], "h": np.float16(0.1), "s": np.float32(0.1), "i": np.int32(3)}
    assert dumps(doc) == dumps({"t": True, "f": [False], "h": float(np.float16(0.1)),
                                "s": float(np.float32(0.1)), "i": 3})
    assert '"s": 0.10000000149011612' in dumps(doc)


def test_scalar_lists_inline():
    text = dumps({"v": [1.0, 2.0]})
    assert "[1, 2]" in text


def test_vector_round_trip():
    v = np.array([1 + 2j, -0.5j, 3.0])
    back = vector_from_json(vector_to_json(v))
    assert np.array_equal(back, v.astype(np.complex128))


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)


def test_matrix_from_json_rejects_bad_shape():
    doc = matrix_to_json(np.eye(2))
    doc["rows"] = 3
    with pytest.raises(ValueError, match="matrix"):
        matrix_from_json(doc)


def test_subspace_round_trip():
    s = Subspace.span_of(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    back = subspace_from_json(subspace_to_json(s))
    assert np.array_equal(back.basis, s.basis)


def test_pair_document_round_trip_full():
    inst = duality_instance("in-duality", 3, 4, 2, seed=5)
    doc = pair_to_json(inst.sa, inst.sb, probe=inst.probe, meta=inst.meta)
    text = dumps(doc)
    pair = pair_from_json(json.loads(text))
    assert pair.measure.atoms == inst.sa.measure.atoms
    assert np.array_equal(pair.measure.weights, inst.sa.measure.weights)
    for fa, fb, ga, gb in zip(
        pair.sa.fibers, pair.sb.fibers, inst.sa.fibers, inst.sb.fibers
    ):
        assert np.array_equal(fa.matrix, ga.matrix)
        assert np.array_equal(fb.matrix, gb.matrix)
    assert np.array_equal(pair.probe.values, inst.probe.values)
    assert pair.meta["family"] == "in-duality"


def test_pair_document_a_only():
    s = random_fibered_system(np.random.default_rng(3), 2, 3, 2)
    pair = pair_from_json(json.loads(dumps(pair_to_json(s))))
    assert pair.sb is None and pair.targets is None and pair.probe is None


def test_pair_document_rejects_partial_b():
    inst = duality_instance("in-duality", 2, 3, 2, seed=8)
    doc = pair_to_json(inst.sa, inst.sb)
    del doc["atoms"][1]["B"]
    with pytest.raises(ValueError, match="x1"):
        pair_from_json(doc)


def test_pair_document_rejects_mixed_dims():
    inst = duality_instance("in-duality", 2, 3, 2, seed=8)
    doc = pair_to_json(inst.sa, inst.sb)
    doc["atoms"][0]["A"]["dim"] = 5
    with pytest.raises(ValueError):
        pair_from_json(doc)


def test_group_to_json_all_kinds():
    assert group_to_json(cyclic_group(6)) == {"kind": "cyclic", "order": 6}
    assert group_to_json(dihedral_group(3)) == {"kind": "dihedral", "order": 6}
    table = cyclic_group(3).mul.tolist()
    assert group_to_json(explicit_group(table)) == {"kind": "explicit", "order": 3, "mul": table}


def test_signal_round_trip():
    f = np.array([1.0, -1j, 0.25 + 0.5j, 0.0])
    back = signal_from_json(vector_to_json(f), 4)
    assert np.array_equal(back, f.astype(np.complex128))
    with pytest.raises(ValueError):
        signal_from_json(vector_to_json(f), 5)


def test_equivalence_report_json_and_csv():
    inst = duality_instance("in-duality", 3, 4, 2, seed=2)
    report = verify_duality(inst.sa, inst.sb)
    doc = equivalence_report_to_json(report)
    keys = list(doc.keys())
    assert keys[:5] == [
        "global_duals_exist",
        "global_angles_positive",
        "fiber_duals_exist",
        "fiber_angles_positive",
        "all_hold",
    ]
    assert dumps(doc) == dumps(equivalence_report_to_json(report))
    csv = diagnostics_to_csv(report.diagnostics)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(report.diagnostics["atom"])
    assert lines[1].startswith("x0,")


def _cli_out(tmp_path, name, *argv):
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def test_writers_read_one_column_table(tmp_path):
    # 70 atoms cross two 32-atom block edges of the fiber engine
    pair = str(tmp_path / "pair.json")
    assert cli.main(["gen", "--family", "orthogonal-failure", "--atoms", "70", "--dim", "4",
                     "--gens", "3", "--seed", "4", "--out", pair]) == 0
    doc = json.loads(_cli_out(tmp_path, "thm1.json", "verify-thm1", "--in", pair))["result"]
    angles = json.loads(_cli_out(tmp_path, "angles.json", "angles", "--in", pair))["result"]
    lines = _cli_out(tmp_path, "thm1.csv", "verify-thm1", "--in", pair, "--format", "csv").split("\n")
    rows = doc["diagnostics"]
    assert len(rows) == len(angles["per_atom"]) == 70
    assert lines[0] == CSV_HEADER and lines[71:] == [""]
    floats = {"r_ab", "r_ba", "pinv_norm"}
    for row, short, line in zip(rows, angles["per_atom"], lines[1:71]):
        assert list(short.items()) == list(row.items())[:5]
        want = [_fmt_float(v) if k in floats else str(v) for k, v in row.items()]
        assert line == ",".join(want)
    special = json.loads(pathlib.Path(pair).read_text(encoding="utf-8"))["meta"]["special_atom"]
    assert doc["worst_fiber"] == next(row for row in rows if row["atom"] == special)

    with open(pair, encoding="utf-8") as fh:
        inst = read_pair(fh)
    report = verify_duality(inst.sa, inst.sb)
    assert list(report.diagnostics) == CSV_HEADER.split(",")
    with open(FIXTURES / "riesz-with-targets.json", encoding="utf-8") as fh:
        riesz = read_pair(fh)
    biorth = verify_biorthogonality(riesz.sa, riesz.targets).rows
    assert list(biorth) == ["atom", "r_aw", "r_wa", "ok"]
    for table, measure in ((report.diagnostics, inst.measure), (biorth, riesz.measure)):
        assert table["atom"] == measure.atoms
        for column in list(table.values())[1:]:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0


def test_atom_ids_differing_in_a_trailing_nul_stay_distinct(tmp_path):
    inst = duality_instance("in-duality", 2, 3, 2, seed=1)
    measure = MeasureModel(("x", "x\x00"), inst.sa.measure.weights)
    pair = tmp_path / "pair.json"
    pair.write_text(dumps(pair_to_json(FiberedSystem(measure, inst.sa.matrices),
                                       FiberedSystem(measure, inst.sb.matrices))), encoding="utf-8")
    doc = json.loads(_cli_out(tmp_path, "thm1.json", "verify-thm1", "--in", str(pair)))["result"]
    assert [row["atom"] for row in doc["diagnostics"]] == ["x", "x\x00"]
    csv = _cli_out(tmp_path, "thm1.csv", "verify-thm1", "--in", str(pair), "--format", "csv")
    assert [line.split(",")[0] for line in csv.split("\n")[1:3]] == ["x", "x\x00"]


def test_csv_quotes_atom_ids_that_need_it():
    inst = duality_instance("in-duality", 5, 3, 2, seed=1)
    ids = ("a,b", "c\nd", 'q"t', "e\rf", "plain")
    measure = MeasureModel(ids, inst.sa.measure.weights)
    report = verify_duality(FiberedSystem(measure, inst.sa.matrices),
                            FiberedSystem(measure, inst.sb.matrices))
    text = diagnostics_to_csv(report.diagnostics)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == CSV_HEADER.split(",")
    assert [row[0] for row in rows[1:]] == list(ids)
    assert {len(row) for row in rows} == {7}
    assert text.split("\n")[-2].startswith("plain,")


# ---------------------------------------------------------------------------
# Array-at-a-time writer: the same bytes as the per-float writer.

BOUNDED = settings(max_examples=200, deadline=None, database=None, derandomize=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOAT_ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
    elements=FINITE,
)
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    sys.float_info.max, -sys.float_info.max, 1e16, 1e17, 0.1, 1.0 / 3.0, 123456789.0,
]


def test_dumps_array_edge_floats_match_fmt_float():
    text = dumps(np.array(EDGE_FLOATS))
    assert text == "[" + ", ".join(_fmt_float(x) for x in EDGE_FLOATS) + "]\n"


@BOUNDED
@given(FLOAT_ARRAYS, st.booleans())
def test_dumps_array_matches_nested_list_writer(a, kernel):
    # nested lists go through _write/_fmt_float one float at a time; arrays
    # through a '%.17g' template or, with the cutoff at 1, the float kernel
    with mock.patch.object(serialize, "_KERNEL_MIN", 1 if kernel else serialize._KERNEL_MIN):
        assert dumps({"v": a, "w": [a]}) == dumps({"v": a.tolist(), "w": [a.tolist()]})


@BOUNDED
@given(FLOAT_ARRAYS, st.sampled_from([float("nan"), float("inf"), float("-inf")]), st.data(), st.booleans())
def test_dumps_array_rejects_any_non_finite(a, bad, data, kernel):
    where = data.draw(st.tuples(*(st.integers(0, n - 1) for n in a.shape)))
    a[where] = bad
    with mock.patch.object(serialize, "_KERNEL_MIN", 1 if kernel else serialize._KERNEL_MIN):
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"v": a})


# ---------------------------------------------------------------------------
# The float kernel: format(x, ".17g") for a whole array at once.


def _kernel_texts(x):
    """The texts _float_text gives the floats of x, one per float."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    assert x.size >= serialize._KERNEL_MIN
    return serialize._float_text(x, ("\n",)).split("\n")[:-1]


def _float_classes(rng):
    """Floats of each class the kernel decides on: every decade, the
    fixed/scientific boundaries, powers of ten and their neighbours, dyadic
    fractions, zeros, subnormals, the extremes, exact ties at the 17th digit
    (t / 2**s with 18 significant digits) and near-ties (the nearest double
    to an 18-digit decimal ending in 5)."""
    normals = rng.standard_normal(20000) * 10.0 ** rng.integers(-310, 308, 20000)
    decades = np.array([s * 10.0**k * f for k in range(-323, 309) for s in (1, -1)
                        for f in (1.0, 1.0 + 2**-52, 1.0 - 2**-53, 9.999999999999999, 5.0)])
    dyadic = rng.integers(1, 2**53, 5000) / 2.0 ** rng.integers(0, 80, 5000)
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                         sys.float_info.max, -sys.float_info.max, 1e-280, 1e280, 1e-4, 1e16, 1e17])
    inner = extremes[np.abs(extremes) < sys.float_info.max]
    edges = np.concatenate([np.nextafter(extremes, 0.0), np.nextafter(inner, np.copysign(np.inf, inner))])
    odd = rng.integers(2**51, 2**52, 20000) * 2 + 1
    ties = [t / 2.0**s for t, s in zip(odd.tolist(), rng.integers(2, 12, odd.size).tolist())]
    ties = [x for x in ties if len(Decimal(x).as_tuple().digits) == 18]
    digits = rng.integers(10**16, 10**17, 20000)
    near = [float(f"{d}5e{k}") for d, k in zip(digits.tolist(), rng.integers(-300, 290, digits.size).tolist())]
    x = np.concatenate([normals, decades, dyadic, -dyadic, extremes, edges, ties, near])
    return x[np.isfinite(x)], len(ties)


def test_kernel_matches_format_on_random_bit_patterns_and_every_class():
    rng = np.random.default_rng(20230117)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64)
    classes, ties = _float_classes(rng)
    assert ties > 1000
    x = np.concatenate([bits[np.isfinite(bits)], classes])
    want = ("%.17g\n" * x.size) % tuple(x.tolist())
    got = "\n".join(_kernel_texts(x)) + "\n"
    if got != want:
        pairs = zip(x.tolist(), got.split("\n"), want.split("\n"))
        assert [(v, g, w) for v, g, w in pairs if g != w] == []


def test_kernel_takes_the_fallback_for_what_it_cannot_certify(monkeypatch):
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, 5e-324, 1e-300, 1e300, 1e23]
    x = rng.standard_normal(1000)
    where = rng.choice(x.size, len(special), replace=False)
    x[where] = special
    formatted = []
    fmt = serialize._fmt_float
    monkeypatch.setattr(serialize, "_fmt_float", lambda v: formatted.append(v) or fmt(v))
    assert _kernel_texts(x) == [format(v, ".17g") for v in x.tolist()]
    assert set(special) <= set(formatted) and len(formatted) < 2 * len(special)
    x[where[3]] = np.nan
    with pytest.raises(ValueError, match="cannot serialize a non-finite float"):
        _kernel_texts(x)


# ---------------------------------------------------------------------------
# Records: a list of dicts written a block of records at a time gives the
# text of the same list written record by record by the generic walker.


def _walker_text(doc) -> str:
    """dumps(doc) with every list of records written by the generic walker."""
    with mock.patch.object(serialize, "_write_records", return_value=False):
        return dumps(doc)


def _text_and_blocks(doc) -> tuple[str, int]:
    """dumps(doc) and the number of record blocks it wrote."""
    with mock.patch.object(serialize, "_block_text", wraps=serialize._block_text) as blocks:
        return dumps(doc), blocks.call_count


# records of one block of a pair_to_json document at (40, 8, 6) with f
PAIR_PER_BLOCK = serialize._KERNEL_MAX // (1 + 96 + 96 + 16)


def test_record_blocks_give_the_walkers_text_around_an_edited_record():
    inst = duality_instance("in-duality", 40, 8, 6, seed=4)
    assert 1 < PAIR_PER_BLOCK < 20
    doc = pair_to_json(inst.sa, inst.sb, None, inst.probe, inst.meta)
    text = dumps(doc)
    assert text == _walker_text(doc)
    middle = PAIR_PER_BLOCK + PAIR_PER_BLOCK // 2  # inside the second block
    doc["atoms"][middle]["weight"] = 0.5
    doc["atoms"][middle]["A"]["vectors"] = doc["atoms"][middle]["A"]["vectors"][:2]
    assert dumps(doc) == _walker_text(doc) != text
    # with records added and deleted, every record is written as it stands
    del doc["atoms"][0]
    doc["atoms"].append({"id": "extra", "weight": 1.0})
    assert dumps(doc) == _walker_text(doc)
    assert doc["atoms"][-1] == {"id": "extra", "weight": 1.0} and len(doc["atoms"]) == 40


def test_record_lists_read_as_lists_and_reading_keeps_the_block_path():
    inst = duality_instance("in-duality", 40, 8, 6, seed=4)
    report = verify_duality(inst.sa, inst.sb)
    rows = equivalence_report_to_json(report, include_witnesses=False)["diagnostics"]
    columns = [_as_list(col) for col in report.diagnostics.values()]
    plain = [dict(zip(report.diagnostics, row)) for row in zip(*columns)]
    assert type(rows) is list and rows == plain and json.dumps(rows) == json.dumps(plain)
    doc = pair_to_json(inst.sa, inst.sb, None, inst.probe, inst.meta)
    text = dumps(doc)
    # comparing, printing and reading records edits none of them
    assert doc["atoms"] == [dict(atom) for atom in doc["atoms"]] and repr(doc["atoms"]).startswith("[{'id': ")
    assert [atom["weight"] for atom in doc["atoms"]] == inst.sa.measure.weights.tolist()
    assert doc["atoms"][3]["A"]["dim"] == 8 and "f" in doc["atoms"][39]
    assert _text_and_blocks(doc) == (text, len(range(0, 40, PAIR_PER_BLOCK)))


def test_copies_of_a_record_list_take_the_block_path():
    # a list of records goes out a block at a time however it was made
    inst = duality_instance("in-duality", 40, 8, 6, seed=4)
    doc = pair_to_json(inst.sa, inst.sb, None, inst.probe, inst.meta)
    built = _text_and_blocks(doc["atoms"])
    assert built[1] == len(range(0, 40, PAIR_PER_BLOCK)) > 1
    copies = {
        "dict-copies": [dict(atom) for atom in doc["atoms"]],
        "deepcopy": copy.deepcopy(doc)["atoms"],
        "pickle": pickle.loads(pickle.dumps(doc))["atoms"],
    }
    for name, atoms in copies.items():
        assert _text_and_blocks(atoms) == built, name


def _as_list(v):
    return v.tolist() if isinstance(v, np.ndarray) else v


def _pop_and_reinsert(atom, key):
    value = dict.pop(atom, key)
    dict.__setitem__(atom, key, value)


def _deep_copied_then_edited_through_a_view(doc):
    doc["atoms"] = copy.deepcopy(doc["atoms"])
    assert type(doc["atoms"]) is list
    doc["atoms"][3]["A"]["vectors"][0, 0] = 0.5


def _pickled_then_edited(doc):
    doc["atoms"] = pickle.loads(pickle.dumps(doc["atoms"]))
    assert type(doc["atoms"]) is list
    doc["atoms"][5]["weight"] = 0.25


RECORD_EDITS = {
    "update": lambda doc: doc["atoms"][5].update(weight=0.25),
    "pop": lambda doc: doc["atoms"][5].pop("f"),
    "setdefault": lambda doc: doc["atoms"][5].setdefault("extra", 1),
    "nested": lambda doc: doc["atoms"][5]["A"].__setitem__("dim", 3),
    "nested-clear": lambda doc: doc["atoms"][5]["B"].clear(),
    "replace": lambda doc: doc["atoms"].__setitem__(5, dict(doc["atoms"][5], id="new")),
    "reverse": lambda doc: doc["atoms"].reverse(),
    "insert": lambda doc: doc["atoms"].insert(5, {"id": "new"}),
    "remove": lambda doc: doc["atoms"].pop(),
    # edits through the dict base class, which no method of a record sees
    "dict-setitem": lambda doc: dict.__setitem__(doc["atoms"][5], "weight", 0.5),
    "dict-update": lambda doc: dict.update(doc["atoms"][5], weight=0.5),
    "dict-init": lambda doc: dict.__init__(doc["atoms"][5], weight=0.5),
    "dict-pop-reinsert": lambda doc: _pop_and_reinsert(doc["atoms"][5], "id"),
    "dict-setitem-nested": lambda doc: dict.__setitem__(doc["atoms"][5]["A"], "dim", 3),
    "deepcopy-view": _deep_copied_then_edited_through_a_view,
    "pickle": _pickled_then_edited,
}


@pytest.mark.parametrize("edit", RECORD_EDITS.values(), ids=RECORD_EDITS.keys())
def test_every_kind_of_record_edit_shows_in_the_output(edit):
    inst = duality_instance("in-duality", 12, 8, 6, seed=4)
    doc = pair_to_json(inst.sa, inst.sb, None, inst.probe, inst.meta)
    assert all(type(atom) is dict and type(atom["A"]) is dict for atom in doc["atoms"])
    text = dumps(doc)
    edit(doc)
    assert dumps(doc) == _walker_text(doc) != text


def test_an_edit_through_a_record_view_shows_in_the_output():
    table = {"atom": [f"x{k}" for k in range(600)], "v": np.arange(1200.0).reshape(600, 2) / 7}
    rows = serialize.table_rows(table)
    text = dumps(rows)
    rows[300]["v"][1] = 0.5
    assert dumps(rows) == _walker_text(rows) != text


def _regular_records(n: int) -> list:
    """n records of every kind of value the block writer lays out."""
    return [
        {"id": f"x{k}", "w": k / 7, "n": k - 3, "ok": k % 3 == 0,
         "v": np.arange(6.0).reshape(3, 2) / (k + 1), "A": {"dim": 2, "m": np.full(2, k / 3)}, "e": {}}
        for k in range(n)
    ]


def _at(k: int, key: str, value):
    """An edit that sets key of record k to value."""
    return lambda rows: rows[k].__setitem__(key, value)


def _each(key: str, value):
    """An edit that sets key of every record to value(record)."""
    return lambda rows: [row.__setitem__(key, value(row)) for row in rows]


def _move_to_end(row: dict, key: str):
    row[key] = row.pop(key)


# Lists of dicts the block writer cannot lay out, or must check before it
# does: each edits _regular_records(40) in place.
IRREGULAR_RECORDS = {
    "none": _at(5, "w", None),
    "numpy-float": _at(5, "w", np.float64(0.5)),
    "int-among-floats": _at(5, "w", 3),
    "bool-among-ints": _at(5, "n", True),
    "extra-nested-key": lambda rows: rows[5]["A"].__setitem__("extra", 1),
    "missing-key": lambda rows: rows[5].pop("ok"),
    "array-shapes-differ": _at(5, "v", np.zeros((2, 3))),
    "int-arrays": _each("v", lambda row: np.arange(6).reshape(3, 2)),
    "float32-arrays": _each("v", lambda row: row["v"].astype(np.float32)),
    "empty-arrays": _each("v", lambda row: np.zeros((3, 0))),
    "zero-dim-arrays": _each("v", lambda row: np.array(row["w"])),
    "list-values": _each("v", lambda row: row["v"].tolist()),
    "key-order-swapped": lambda rows: _move_to_end(rows[5], "id"),
    "empty-dicts": lambda rows: [row.clear() for row in rows],
    "dict-subclass": lambda rows: rows.__setitem__(5, type("Sub", (dict,), {})(rows[5])),
}


@pytest.mark.parametrize("kernel_min", [1, serialize._KERNEL_MIN])
@pytest.mark.parametrize("edit", IRREGULAR_RECORDS.values(), ids=IRREGULAR_RECORDS.keys())
def test_irregular_records_give_the_walkers_text(edit, kernel_min):
    rows = _regular_records(40)
    edit(rows)
    with mock.patch.object(serialize, "_KERNEL_MIN", kernel_min), mock.patch.object(serialize, "_KERNEL_MAX", 37):
        try:
            want = _walker_text({"r": rows})
        except ValueError as exc:
            # int and float32 arrays: the walker writes no array of them
            with pytest.raises(ValueError, match=str(exc)):
                dumps({"r": rows})
        else:
            assert dumps({"r": rows}) == want


@pytest.mark.parametrize("kernel_min", [1, serialize._KERNEL_MIN])
@pytest.mark.parametrize("edit, message", [
    (_each(1, lambda row: 0.5), "JSON object keys must be strings, got 1"),
    (_at(25, "w", float("nan")), "cannot serialize a non-finite float"),
], ids=["non-str-key", "nan"])
def test_irregular_records_raise_the_walkers_error(edit, message, kernel_min):
    rows = _regular_records(40)
    edit(rows)
    with mock.patch.object(serialize, "_KERNEL_MIN", kernel_min), mock.patch.object(serialize, "_KERNEL_MAX", 37):
        for write in (dumps, _walker_text):
            with pytest.raises(ValueError, match=message):
                write({"r": rows})


def test_importing_the_package_compiles_no_block_writer():
    # the kernel module is compiled on the first block dumps writes
    code = "import sys, framekit.cli, framekit.serialize; print('framekit._blocks' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(serialize.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


TABLE_IDS = st.text(alphabet=st.characters(codec="utf-8"), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 9), st.data(), st.integers(1, 40))
def test_record_blocks_match_the_walker_on_any_column_table(n, data, cap):
    kinds = ["id", "int", "bool", "float", "array"]
    # the first column gives table_rows the number of rows
    columns = [data.draw(st.sampled_from(kinds))]
    columns += data.draw(st.lists(st.sampled_from(kinds + ["const"]), max_size=4))
    table = {}
    for j, kind in enumerate(columns):
        key = f"k{j}"
        if kind == "id":
            table[key] = tuple(data.draw(st.lists(TABLE_IDS, min_size=n, max_size=n)))
        elif kind == "int":
            table[key] = np.array(data.draw(st.lists(st.integers(-10**12, 10**12), min_size=n, max_size=n)))
        elif kind == "bool":
            table[key] = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        elif kind == "float":
            table[key] = data.draw(hnp.arrays(np.float64, n, elements=FINITE))
        elif kind == "array":
            table[key] = data.draw(hnp.arrays(np.float64, (n, 2, 3), elements=FINITE))
        else:
            table[key] = {"nested": data.draw(hnp.arrays(np.float64, (n, 2), elements=FINITE)), "c": 7, "e": {}}
    records = serialize.table_rows(table)
    with mock.patch.object(serialize, "_KERNEL_MIN", 1), mock.patch.object(serialize, "_KERNEL_MAX", cap):
        assert dumps({"r": records}) == _walker_text({"r": records})
        if all(kind in ("id", "int", "float") for kind in columns):
            lines = [",".join(_csv_reference(v) for v in row.values()) for row in records]
            assert diagnostics_to_csv(table) == "\n".join([",".join(table)] + lines) + "\n"


# The values a drawn record holds under each key, by kind, and a value of
# any kind, which a perturbed record holds in place of one of them.
RECORD_VALUES = {
    "float": FINITE,
    "int": st.integers(-10**12, 10**12),
    "bool": st.booleans(),
    "str": TABLE_IDS,
    "vector": hnp.arrays(np.float64, 2, elements=FINITE),
    "matrix": hnp.arrays(np.float64, (2, 3), elements=FINITE),
    "record": st.fixed_dictionaries({"dim": st.integers(0, 9), "x": FINITE}),
}
ANY_VALUE = st.one_of(
    *RECORD_VALUES.values(), st.none(), st.builds(np.float64, FINITE), st.lists(FINITE, max_size=2),
    hnp.arrays(np.float64, st.sampled_from([(), (0,), (3,), (3, 2)]), elements=FINITE),
)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.data(), st.integers(1, 12), st.integers(1, 30))
def test_record_blocks_match_the_walker_on_records_drawn_one_by_one(data, n, cap):
    schema = data.draw(st.lists(st.sampled_from(sorted(RECORD_VALUES)), max_size=5))
    keys = [f"k{j}" for j in range(len(schema))]
    rows = []
    for _ in range(n):
        row = {key: data.draw(RECORD_VALUES[kind]) for key, kind in zip(keys, schema)}
        change = data.draw(st.sampled_from(["none", "none", "none", "value", "drop", "add", "move", "nested"]))
        if change == "value" and keys:
            row[data.draw(st.sampled_from(keys))] = data.draw(ANY_VALUE)
        elif change == "drop" and keys:
            del row[data.draw(st.sampled_from(keys))]
        elif change == "add":
            row["extra"] = data.draw(ANY_VALUE)
        elif change == "move" and keys:
            _move_to_end(row, data.draw(st.sampled_from(keys)))
        elif change == "nested" and "record" in schema:
            row[keys[schema.index("record")]]["x"] = data.draw(ANY_VALUE)
        rows.append(row)
    with mock.patch.object(serialize, "_KERNEL_MIN", 1), mock.patch.object(serialize, "_KERNEL_MAX", cap):
        assert dumps({"r": rows}) == _walker_text({"r": rows})


def _csv_reference(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, str) and any(c in v for c in ',"\r\n'):
        return '"' + v.replace('"', '""') + '"'
    return str(v)


def test_to_json_arrays_write_as_pair_lists():
    m = np.array([[1 + 2j, -0.0], [3.5, 1e-300j]])

    def pairs(values):
        return [[z.real, z.imag] for z in values]

    assert dumps(vector_to_json(m[0])) == dumps(pairs(m[0]))
    assert dumps(matrix_to_json(m)["data"]) == dumps(pairs(m.reshape(-1)))
    one_atom = FiberedSystem(MeasureModel(("x",), np.ones(1)), m[None])
    assert dumps(pair_to_json(one_atom)["atoms"][0]["A"]) == dumps(
        {"dim": 2, "vectors": [pairs(col) for col in m.T]}
    )


# ---------------------------------------------------------------------------
# Parser: the block path rejects exactly what the per-pair path rejects, with
# the same message.


def _full_doc():
    """A two-atom instance with A, B, W and f blocks, as json.load returns it."""
    inst = duality_instance("in-duality", 2, 4, 3, seed=3)
    targets = [Subspace.span_of(np.eye(4)[:, k : k + 2]) for k in range(2)]
    doc = pair_to_json(inst.sa, inst.sb, targets=targets, probe=inst.probe)
    return json.loads(dumps(doc))


def _pair_at(doc, block):
    """The list holding atom x1's third [re, im] pair of the given block."""
    atom = doc["atoms"][1]
    if block in ("A", "B"):
        return atom[block]["vectors"][0]
    if block == "W":
        return atom["W"]["basis"]["data"]
    return atom["f"]


ENTRY_PATH = {"A": "A.vectors[0][2]", "B": "B.vectors[0][2]", "W": "W.basis.data[2]", "f": "f[2]"}
BAD_ENTRIES = [
    ([True, 0.0], "expected a number, got True"),
    ([0.0, "1.5"], "expected a number, got '1.5'"),
    ([float("nan"), 0.0], "number must be finite"),
    ([0.0, float("inf")], "number must be finite"),
    ([1.0, 0.0, 0.0], "expected a [re, im] pair"),
    ([1.0], "expected a [re, im] pair"),
    ("1.0", "expected a [re, im] pair"),
]


@pytest.mark.parametrize("block", ["A", "B", "W", "f"])
@pytest.mark.parametrize("entry,reason", BAD_ENTRIES)
def test_parser_rejects_bad_entry_with_its_path(block, entry, reason):
    doc = _full_doc()
    _pair_at(doc, block)[2] = entry
    with pytest.raises(ValueError) as exc:
        pair_from_json(doc)
    assert str(exc.value) == f"atom 'x1': {ENTRY_PATH[block]}: {reason}"


SHORT_VECTOR = {
    "A": "atom 'x1': A.vectors[0]: length 3, expected 4",
    "B": "atom 'x1': B.vectors[0]: length 3, expected 4",
    "W": "atom 'x1': W.basis: data must hold rows*cols = 8 pairs",
    "f": "atom 'x1': f has length 3, expected 4",
}


@pytest.mark.parametrize("block", ["A", "B", "W", "f"])
def test_parser_rejects_short_vector(block):
    doc = _full_doc()
    del _pair_at(doc, block)[-1]
    with pytest.raises(ValueError) as exc:
        pair_from_json(doc)
    assert str(exc.value) == SHORT_VECTOR[block]


@pytest.mark.parametrize("block", ["A", "B"])
def test_parser_rejects_vector_count_differing_between_atoms(block):
    doc = _full_doc()
    vectors = doc["atoms"][1][block]["vectors"]
    vectors.append(vectors[0])
    with pytest.raises(ValueError) as exc:
        pair_from_json(doc)
    assert str(exc.value) == "inconsistent atoms: generator counts are not uniform: [3, 4]"


def test_parser_block_path_keeps_values_and_layout():
    inst = duality_instance("in-duality", 3, 4, 2, seed=5)
    pair = pair_from_json(json.loads(dumps(pair_to_json(inst.sa, inst.sb, probe=inst.probe))))
    for got, want in zip(pair.sa.fibers + pair.sb.fibers, inst.sa.fibers + inst.sb.fibers):
        assert got.matrix.flags.c_contiguous
        assert np.array_equal(got.matrix, want.matrix)
    # tuples and numpy scalars skip the block path and still parse
    doc = json.loads(dumps(vector_to_json(inst.probe.values[0])))
    slow = [(np.float64(re), im) for re, im in doc]
    assert np.array_equal(vector_from_json(slow), vector_from_json(doc))


# ---------------------------------------------------------------------------
# Integer fields reject JSON booleans; integers beyond float range are input
# errors, not OverflowError.


def _one_dim_doc():
    return {
        "fiber_dim": 1,
        "atoms": [{"id": "x0", "weight": 1.0, "A": {"dim": 1, "vectors": [[[1.0, 0.0]]]}}],
    }


@pytest.mark.parametrize("field", ["fiber_dim", "dim"])
def test_pair_from_json_rejects_boolean_dimensions(field):
    doc = _one_dim_doc()
    if field == "fiber_dim":
        doc["fiber_dim"] = True
    else:
        doc["atoms"][0]["A"]["dim"] = True
    with pytest.raises(ValueError, match="must be a positive integer"):
        pair_from_json(doc)


@pytest.mark.parametrize("field", ["ambient_dim", "rows", "cols"])
def test_subspace_from_json_rejects_boolean_sizes(field):
    doc = {"ambient_dim": 1, "basis": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}
    if field == "ambient_dim":
        doc["ambient_dim"] = True
    else:
        doc["basis"][field] = True
    with pytest.raises(ValueError, match="integer"):
        subspace_from_json(doc)


@pytest.mark.parametrize("block", ["A", "f"])
def test_parser_reports_integer_beyond_float_range(block):
    doc = _full_doc()
    _pair_at(doc, block)[2] = [10**400, 0]
    with pytest.raises(ValueError) as exc:
        pair_from_json(doc)
    assert str(exc.value) == f"atom 'x1': {ENTRY_PATH[block]}: number is out of float range"
    doc["atoms"][0]["weight"] = -(10**400)
    with pytest.raises(ValueError, match="atom 'x0': weight: number is out of float range"):
        pair_from_json(doc)


# ---------------------------------------------------------------------------
# Streamed writer: dump writes the bytes of dumps, piece by piece.

JSON_KEYS = st.text(max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(max_size=4) | FLOAT_ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=20,
)


@BOUNDED
@given(JSON_VALUES)
def test_dump_to_file_matches_dumps(doc):
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as fh:
        dump(doc, fh)
        fh.seek(0)
        text = fh.read()
    assert text == dumps(doc)


# ---------------------------------------------------------------------------
# Streamed reader: through the CLI's file path every instance parses to the
# document, or fails with the message and exit code, of
# pair_from_json(json.load(...)).


def _oracle(path):
    """(PairDocument, None) or (None, message) as json.load + pair_from_json give them."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            return None, f"{path}: invalid JSON ({exc})"
    try:
        return pair_from_json(doc), None
    except ValueError as exc:
        return None, str(exc)


def _assert_same_pair(got, want):
    assert got.measure.atoms == want.measure.atoms
    assert np.array_equal(got.measure.weights, want.measure.weights)
    for a, b in ((got.sa, want.sa), (got.sb, want.sb)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.matrices.flags.c_contiguous
            assert a.matrices.tobytes() == b.matrices.tobytes()
    assert (got.targets is None) == (want.targets is None)
    for s, t in zip(got.targets or [], want.targets or []):
        assert s.basis.tobytes() == t.basis.tobytes()
    assert (got.probe is None) == (want.probe is None)
    if got.probe is not None:
        assert got.probe.values.tobytes() == want.probe.values.tobytes()
    assert got.meta == want.meta


def _cut_b(doc):
    """Every B of the instance one dimension short of fiber_dim."""
    for atom in doc["atoms"]:
        atom["B"]["dim"] -= 1
        for vector in atom["B"]["vectors"]:
            vector.pop()


def _rejected_docs():
    """Every parser-rejection case above, as (id, mutation of _full_doc())."""
    cases = []
    for block in ENTRY_PATH:
        for i, (entry, _) in enumerate(BAD_ENTRIES):
            cases.append((f"entry-{block}-{i}", lambda d, b=block, e=entry: _pair_at(d, b).__setitem__(2, e)))
        cases.append((f"huge-{block}", lambda d, b=block: _pair_at(d, b).__setitem__(2, [10**400, 0])))
        cases.append((f"short-{block}", lambda d, b=block: _pair_at(d, b).pop()))
    for block in ("A", "B"):
        cases.append((f"count-{block}", lambda d, b=block: d["atoms"][1][b]["vectors"].append(
            d["atoms"][1][b]["vectors"][0])))
    cases += [
        ("partial-B", lambda d: d["atoms"][1].pop("B")),
        ("mixed-dims", lambda d: d["atoms"][0]["A"].__setitem__("dim", 5)),
        ("b-dim", _cut_b),
        ("bool-fiber-dim", lambda d: d.__setitem__("fiber_dim", True)),
        ("bool-dim", lambda d: d["atoms"][0]["A"].__setitem__("dim", True)),
        ("bool-ambient-dim", lambda d: d["atoms"][0]["W"].__setitem__("ambient_dim", True)),
        ("bool-rows", lambda d: d["atoms"][1]["W"]["basis"].__setitem__("rows", True)),
        ("huge-weight", lambda d: d["atoms"][0].__setitem__("weight", -(10**400))),
        ("nan-weight", lambda d: d["atoms"][1].__setitem__("weight", float("nan"))),
        ("no-atoms", lambda d: d.__setitem__("atoms", [])),
        ("not-an-object", lambda d: d["atoms"].__setitem__(1, [])),
    ]
    return cases


# every case with the default block size, and again with every atom its own block
REJECTED = [(name, mutate, block) for name, mutate in _rejected_docs() for block in (serialize._ATOM_BLOCK, 1)]


@pytest.mark.parametrize(
    "mutate,block",
    [case[1:] for case in REJECTED],
    ids=[name if block == serialize._ATOM_BLOCK else f"{name}-atom-block-{block}" for name, _, block in REJECTED],
)
def test_cli_reader_rejects_like_json_load(mutate, block, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(serialize, "_ATOM_BLOCK", block)
    doc = _full_doc()
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    want, message = _oracle(path)
    assert want is None
    assert cli.main(["verify-thm2", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"framekit: {message}\n"


def _full_text(**dump_args):
    return json.dumps(_full_doc() | {"meta": {"family": "test"}}, **dump_args)


MALFORMED = {
    "empty": "",
    "truncated": _full_text(indent=1)[:1500],
    "trailing-data": _full_text() + " []",
    "trailing-object": _full_text() + "{}",
    "unclosed-atoms": _full_text()[: _full_text().rindex("]")],
    "bom": "\ufeff" + _full_text(),
    "top-level-list": "[" + _full_text() + "]",
}


@pytest.mark.parametrize("name", MALFORMED)
def test_cli_reader_malformed_text_like_json_load(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED[name], encoding="utf-8")
    want, message = _oracle(path)
    assert want is None
    assert cli.main(["angles", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"framekit: {message}\n"


def _streams(text):
    """Whether the streamed reader takes the text itself (no json.load fallback)."""
    try:
        serialize._stream_pair(io.StringIO(text))
    except ValueError:
        return False
    return True


def _reordered(text, first):
    doc = json.loads(text)
    return json.dumps({first: doc[first]} | doc)


ACCEPTED = {
    # name: (text, taken by the streamed reader itself)
    "indented": (_full_text(indent=2), True),
    "compact": (_full_text(separators=(",", ":")), True),
    "no-meta": (json.dumps(_full_doc()), True),
    "whitespace": ("\n\t " + _full_text(indent="\t").replace(":", " \r\n:") + "\n\n", True),
    "writer": (dumps(json.loads(_full_text())), True),
    "atom-duplicate-key": (_full_text().replace('"weight": ', '"weight": 7.0, "weight": ', 1), True),
    "meta-first": (_reordered(_full_text(), "meta"), False),
    "atoms-first": (_reordered(_full_text(), "atoms"), False),
    "duplicate-fiber-dim": ('{"fiber_dim": 3, ' + _full_text()[1:], False),
    "extra-key": (_full_text()[:-1] + ', "note": null}', False),
    "nonobject-meta": (_full_text().replace('{"family": "test"}', "[1]"), True),
}


@pytest.mark.parametrize("name", ACCEPTED)
def test_cli_reader_accepts_like_json_load(name, tmp_path):
    text, streamed = ACCEPTED[name]
    path = tmp_path / "pair.json"
    path.write_text(text, encoding="utf-8")
    want, message = _oracle(path)
    assert message is None
    _assert_same_pair(cli._read_pair(SimpleNamespace(infile=str(path))), want)
    assert _streams(text) == streamed


def test_cli_reader_accepts_fixtures_like_json_load():
    for name in ("gen-in-duality.json", "gen-near-threshold.json", "riesz-with-targets.json"):
        path = FIXTURES / name
        got = cli._read_pair(SimpleNamespace(infile=str(path)))
        _assert_same_pair(got, _oracle(path)[0])
        assert _streams(path.read_text(encoding="utf-8"))
    assert got.targets is not None


BLOCK = serialize._ATOM_BLOCK


def _walked(doc):
    """The instance converted atom by atom, the reference for the block path."""
    fiber_dim = doc["fiber_dim"]
    atoms = [serialize._atom_from_json(e, k, fiber_dim) for k, e in enumerate(doc["atoms"])]
    return serialize._stacked_document(atoms, doc.get("meta"))


def _block_instance(path, n_atoms):
    """An instance with A, B, W and f blocks on n_atoms atoms, written as dumps writes it."""
    inst = duality_instance("in-duality", n_atoms, 4, 3, seed=n_atoms)
    targets = [Subspace.span_of(m[:, :2]) for m in inst.sb.matrices]
    meta = {"family": "in-duality"}
    path.write_text(dumps(pair_to_json(inst.sa, inst.sb, targets, inst.probe, meta)), encoding="utf-8")


@pytest.mark.parametrize("n_atoms", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_reader_block_edges_parse_like_json_load(n_atoms, tmp_path):
    path = tmp_path / "pair.json"
    _block_instance(path, n_atoms)
    want, message = _oracle(path)
    assert message is None
    _assert_same_pair(want, _walked(json.loads(path.read_text(encoding="utf-8"))))
    _assert_same_pair(cli._read_pair(SimpleNamespace(infile=str(path))), want)
    assert _streams(path.read_text(encoding="utf-8"))


def test_walked_and_fast_blocks_stack_to_the_same_bits(tmp_path, monkeypatch):
    """Atoms whose pairs are tuples, which the fast check turns down, are
    converted by the message step where they stand, among fast blocks, to
    the bits of the all-list document, and no FiberSystem is built."""
    path = tmp_path / "pair.json"
    _block_instance(path, 2 * BLOCK + 1)
    doc = json.loads(path.read_text(encoding="utf-8"))
    want = pair_from_json(doc)
    for k in (0, BLOCK - 1, BLOCK, 2 * BLOCK):
        atom = doc["atoms"][k]
        for system in (atom["A"], atom["B"]):
            system["vectors"] = [[tuple(p) for p in v] for v in system["vectors"]]
        atom["f"] = [tuple(p) for p in atom["f"]]

    built, walked = [], []
    post_init, atom_from_json = FiberSystem.__post_init__, serialize._atom_from_json

    def counting(self):
        built.append(1)
        post_init(self)

    def walking(entry, k, fiber_dim):
        walked.append(k)
        return atom_from_json(entry, k, fiber_dim)

    monkeypatch.setattr(FiberSystem, "__post_init__", counting)
    monkeypatch.setattr(serialize, "_atom_from_json", walking)
    _assert_same_pair(pair_from_json(doc), want)
    assert walked == list(range(2 * BLOCK + 1))  # all three blocks hold a tuple atom
    assert built == []


BAD_VECTORS = [
    (lambda v: v[0].__setitem__(2, [True, 0.0]), "A.vectors[0][2]: expected a number, got True"),
    (lambda v: v[0].__setitem__(2, [0.0, "1.5"]), "A.vectors[0][2]: expected a number, got '1.5'"),
    (lambda v: v[1].pop(), "A.vectors[1]: length 3, expected 4"),
    (lambda v: v[0].__setitem__(2, [10**400, 0]), "A.vectors[0][2]: number is out of float range"),
]


@pytest.mark.parametrize("atom", [0, BLOCK - 1, BLOCK, 2 * BLOCK - 1])
@pytest.mark.parametrize("mutate,reason", BAD_VECTORS, ids=["true", "quoted", "ragged", "huge"])
def test_reader_rejects_bad_vectors_at_block_edges(atom, mutate, reason, tmp_path, capsys):
    # the first and the last atom of the first two blocks
    path = tmp_path / "pair.json"
    _block_instance(path, 2 * BLOCK + 1)
    doc = json.loads(path.read_text(encoding="utf-8"))
    mutate(doc["atoms"][atom]["A"]["vectors"])
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    message = f"atom 'x{atom}': {reason}"
    assert _oracle(path) == (None, message)
    assert cli.main(["angles", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"framekit: {message}\n")


def test_reader_rejects_an_invalid_atom_without_json_load(tmp_path, capsys, monkeypatch):
    """An atom the converter rejects ends the read with pair_from_json's
    message; the file is not decoded a second time by json.load.  Text after
    the atom is not read, so a syntax error there goes unreported."""
    path = tmp_path / "pair.json"
    _block_instance(path, 2 * BLOCK + 1)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["atoms"][-1]["weight"] = -1
    text = dumps(doc)
    path.write_text(text, encoding="utf-8")
    message = f"atom 'x{2 * BLOCK}': weight must be positive"
    assert _oracle(path) == (None, message)
    loads, load = [], json.load

    def counting(*args, **kwargs):
        loads.append(1)
        return load(*args, **kwargs)

    monkeypatch.setattr(json, "load", counting)
    for body in (text, text[: text.rindex("}")]):
        path.write_text(body, encoding="utf-8")
        assert cli.main(["angles", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"framekit: {message}\n")
    assert loads == []


def test_reader_reports_bytes_past_the_first_chunk_that_are_not_utf8_as_json_load(tmp_path, capsys):
    """json.load reads the file again, so the position in the message counts
    from the start of the file, not of the chunk the streamed reader hit."""
    path = tmp_path / "pair.json"
    _block_instance(path, 200)
    data = path.read_bytes()
    assert len(data) > 2 * serialize._READ_CHUNK and data.count(b'"in-duality"') == 1
    path.write_bytes(data.replace(b'"in-duality"', b'"in-duality\xff"'))
    with open(path, encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError) as want:
        json.load(fh)
    assert want.value.start > 2 * serialize._READ_CHUNK
    assert cli.main(["angles", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"framekit: {want.value}\n")


def test_streamed_reader_takes_every_gen_family_and_the_fixtures(tmp_path, monkeypatch):
    """What gen writes never reaches the json.load fallback, which would read
    the file a second time."""
    from framekit.generate import FAMILIES

    paths = [FIXTURES / "pair-in-duality.json", FIXTURES / "riesz-with-targets.json"]
    for family in FAMILIES:
        paths.append(tmp_path / f"{family}.json")
        argv = ["gen", "--family", family, "--atoms", str(2 * BLOCK + 5), "--seed", "3"]
        assert cli.main(argv + ["--out", str(paths[-1])]) == 0
        # without its binary companion, so that the streamed reader parses it
        pathlib.Path(f"{paths[-1]}.npz").unlink()
    assert not list(tmp_path.glob("*.npz"))
    wants = [_oracle(path)[0] for path in paths]

    def no_fallback(fh, *args, **kwargs):
        raise AssertionError(f"{fh.name} went to the json.load fallback")

    monkeypatch.setattr(json, "load", no_fallback)
    for path, want in zip(paths, wants):
        _assert_same_pair(cli._read_pair(SimpleNamespace(infile=str(path))), want)


@pytest.mark.parametrize("chunk", [1, 2, 7, 100, 4096])
def test_streamed_reader_atoms_straddling_chunks(chunk, monkeypatch):
    # every atom, key and number of the file crosses some chunk boundary
    monkeypatch.setattr(serialize, "_READ_CHUNK", chunk)
    for name in ("gen-near-threshold.json", "riesz-with-targets.json"):
        path = FIXTURES / name
        with open(path, "r", encoding="utf-8") as fh:
            got = serialize._stream_pair(fh)
        _assert_same_pair(got, _oracle(path)[0])


@pytest.mark.parametrize("chunk", [1, 2, 3, 64])
def test_scanner_never_takes_a_value_cut_at_a_chunk_boundary(chunk, monkeypatch):
    monkeypatch.setattr(serialize, "_READ_CHUNK", chunk)
    texts = ["12345", "-1.5e+10", "true", "null", '"ab\\"cd"', "[1, [22, 333]]", '{"k": 4444}']
    scan = serialize._Scanner(io.StringIO(" , ".join(texts)))
    for i, text in enumerate(texts):
        assert scan.value() == json.loads(text)
        assert scan.skip(",") == (i + 1 < len(texts))
    assert scan.peek() == ""


def test_scanner_reads_on_past_a_number_cut_after_its_mantissa(monkeypatch):
    # the first chunk ends in "-1.5e", which decodes as -1.5 with text left over
    monkeypatch.setattr(serialize, "_READ_CHUNK", 5)
    scan = serialize._Scanner(io.StringIO("-1.5e+10, 7"))
    assert scan.value() == -1.5e10
    assert scan.skip(",") and scan.value() == 7


def test_reader_falls_back_from_where_the_file_was():
    text = _reordered(_full_text(), "meta")
    fh = io.StringIO("leading text" + text)
    fh.seek(len("leading text"))
    _assert_same_pair(read_pair(fh), pair_from_json(json.loads(text)))


def test_reader_without_seek_uses_json_load():
    text = _full_text()

    class Pipe(io.StringIO):
        def seekable(self):
            return False

    _assert_same_pair(read_pair(Pipe(text)), pair_from_json(json.loads(text)))
    with pytest.raises(json.JSONDecodeError):
        read_pair(Pipe(text + "x"))
