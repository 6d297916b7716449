"""End-to-end checks of the command-line interface, through subprocesses and,
where a check needs to patch or measure the process, in-process."""

import ast
import functools
import hashlib
import io
import json
import os
import pathlib
import resource
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from framekit import __version__, cli, mispace, zak
from framekit import serialize
from framekit.generate import FAMILIES, duality_instance
from framekit.mispace import FiberedSystem, MeasureModel
from framekit.mispace import FiberedFunction, PairDocument
from framekit.serialize import diagnostics_to_csv, dumps, pair_to_json, plan_to_json
from framekit.subspace import Subspace
from framekit.zak import build_plan, dihedral_group

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "cli"


def run_cli(*args, check_rc=None):
    proc = subprocess.run(
        [sys.executable, "-m", "framekit", *args],
        capture_output=True,
        text=True,
    )
    if check_rc is not None:
        assert proc.returncode == check_rc, proc.stderr
    return proc


@pytest.fixture(scope="module")
def pair_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pair.json"
    run_cli(
        "gen", "--family", "in-duality", "--atoms", "3", "--dim", "4",
        "--gens", "2", "--seed", "7", "--out", str(path), check_rc=0,
    )
    return str(path)


def test_gen_writes_consumable_document(pair_file):
    with open(pair_file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["fiber_dim"] == 4
    assert len(doc["atoms"]) == 3
    assert doc["meta"]["family"] == "in-duality"
    assert doc["meta"]["seed"] == 7
    for atom in doc["atoms"]:
        assert "A" in atom and "B" in atom and "f" in atom


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run_cli(
            "gen", "--family", "near-threshold", "--atoms", "2", "--dim", "3",
            "--gens", "2", "--seed", "42", "--out", str(path), check_rc=0,
        )
    assert a.read_bytes() == b.read_bytes()


def test_verify_thm1_true_instance(pair_file):
    proc = run_cli("verify-thm1", "--in", pair_file, "--seed", "1", check_rc=0)
    doc = json.loads(proc.stdout)
    assert doc["tool"] == "framekit"
    assert doc["command"] == "verify-thm1"
    assert doc["seed"] == 1
    assert doc["tolerances"]["eq_tol"] == 1e-8
    result = doc["result"]
    assert result["all_hold"] is True
    assert result["witness_status"] == "verified"
    assert result["max_local_residual"] <= 1e-8


def test_verify_thm1_deterministic_bytes(pair_file):
    out = [run_cli("verify-thm1", "--in", pair_file, "--seed", "3", check_rc=0).stdout
           for _ in range(2)]
    assert out[0] == out[1]


def test_verify_thm1_false_instance_exits_zero(tmp_path):
    path = tmp_path / "orth.json"
    run_cli(
        "gen", "--family", "orthogonal-failure", "--atoms", "3", "--dim", "4",
        "--gens", "2", "--seed", "5", "--out", str(path), check_rc=0,
    )
    proc = run_cli("verify-thm1", "--in", str(path), check_rc=0)
    result = json.loads(proc.stdout)["result"]
    assert result["all_hold"] is False
    assert result["global_angles_positive"] is False
    assert result["fiber_duals_exist"] is False


def test_angles_json_and_csv(pair_file):
    proc = run_cli("angles", "--in", pair_file, check_rc=0)
    result = json.loads(proc.stdout)["result"]
    assert len(result["per_atom"]) == 3
    assert 0.0 < result["angles_global"][0] <= result["angles_global"][1] <= 1.0

    csv = run_cli("angles", "--in", pair_file, "--format", "csv", check_rc=0)
    lines = csv.stdout.strip().split("\n")
    assert lines[0] == "atom,dim_ja,dim_jb,r_ab,r_ba,rank_mixed,pinv_norm"
    assert len(lines) == 4


def test_dual_roundtrip(pair_file):
    proc = run_cli("dual", "--in", pair_file, check_rc=0)
    result = json.loads(proc.stdout)["result"]
    assert result["feasible"] is True
    assert result["is_alternate_dual_forward"] is True
    assert result["is_alternate_dual_backward"] is True
    assert result["max_residual_forward"] <= 1e-8
    assert len(result["dual"]["atoms"]) == 3


def test_dual_with_unequal_generator_counts(pair_file, tmp_path):
    # B carries one generator more than A; A is zero-padded to match
    with open(pair_file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for atom in doc["atoms"]:
        atom["B"]["vectors"].append([[0.0, 0.0]] * doc["fiber_dim"])
    path = tmp_path / "uneven.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = json.loads(run_cli("dual", "--in", str(path), check_rc=0).stdout)["result"]
    assert result["is_alternate_dual_forward"] and result["is_alternate_dual_backward"]
    assert len(result["dual"]["atoms"][0]["A"]["vectors"]) == 3


def test_dual_on_orthogonal_spans_reports_instead_of_failing(tmp_path):
    # span(B) is orthogonal to span(A) at one atom, so either the rank
    # condition refuses the construction or the produced system fails the
    # alternate-dual test; both are results, never a nonzero exit
    path = tmp_path / "orth.json"
    run_cli(
        "gen", "--family", "orthogonal-failure", "--atoms", "2", "--dim", "4",
        "--gens", "2", "--seed", "6", "--out", str(path), check_rc=0,
    )
    proc = run_cli("dual", "--in", str(path), check_rc=0)
    result = json.loads(proc.stdout)["result"]
    if result["feasible"]:
        assert result["is_alternate_dual_forward"] is False
    else:
        assert "reason" in result


def test_dual_rank_condition_failure_reported(tmp_path):
    # dim 2 forces the planted atom to a 1-dimensional span, so the 2x2
    # noise-level mixed Gramian cannot match it and dualise must refuse
    path = tmp_path / "rankfail.json"
    run_cli(
        "gen", "--family", "orthogonal-failure", "--atoms", "2", "--dim", "2",
        "--gens", "2", "--seed", "6", "--out", str(path), check_rc=0,
    )
    proc = run_cli("dual", "--in", str(path), check_rc=0)
    result = json.loads(proc.stdout)["result"]
    assert result["feasible"] is False
    assert "reason" in result


def test_verify_thm2_happy_path(tmp_path):
    path = tmp_path / "riesz.json"
    run_cli(
        "gen", "--family", "in-duality", "--atoms", "2", "--dim", "3",
        "--gens", "1", "--seed", "11", "--out", str(path), check_rc=0,
    )
    proc = run_cli("verify-thm2", "--in", str(path), check_rc=0)
    result = json.loads(proc.stdout)["result"]
    assert result["holds"] is True
    assert result["biorth_deviation"] <= 1e-8
    assert result["repro_residual"] <= 1e-8


def _thm2_failure_stdout(reason):
    """The whole verify-thm2 report of a failed hypothesis, byte for byte."""
    return (
        '{\n  "tool": "framekit",\n  "version": "%s",\n  "command": "verify-thm2",\n'
        '  "seed": null,\n  "tolerances": {\n    "rel_rank_tol": 1e-10,\n'
        '    "eq_tol": 1e-08,\n    "angle_tol": 1e-08\n  },\n  "result": {\n'
        '    "holds": false,\n    "precondition_failure": "%s"\n  }\n}\n'
    ) % (__version__, reason)


def test_verify_thm2_precondition_reported(pair_file):
    # this pair's B spans are 1-dimensional while A has 2 generators
    proc = run_cli("verify-thm2", "--in", pair_file, check_rc=0)
    assert proc.stdout == _thm2_failure_stdout("atom 'x0': target subspace has dimension 1, expected 2")


def _write_instance(path, sa, sb=None, targets=None):
    path.write_text(dumps(pair_to_json(sa, sb, targets)), encoding="utf-8")
    return str(path)


def _thm2_case(case):
    """Three atoms in C^4: A of two generators, Riesz except in the "not
    Riesz" cases, and B, the Riesz A with span(B) cut to one dimension on the
    last atoms, or explicit targets W, each spanned by unit vectors."""
    measure = MeasureModel(("x0", "x1", "x2"), np.ones(3))
    a = np.tile(np.eye(4)[:, :2] + 0.25 * np.eye(4)[:, 2:], (3, 1, 1))
    b = a.copy()
    if case.endswith("not Riesz"):
        a[1, :, 1] = a[1, :, 0]  # two equal generators at x1
    if case.startswith("span(B)"):
        # span(B) is 1-dimensional at x1 and x2, or at x2 alone beside the non-Riesz x1
        first = 2 if case.endswith("not Riesz") else 1
        b[first:, :, 1] = 2.0 * b[first:, :, 0]
        return FiberedSystem(measure, a), FiberedSystem(measure, b), None
    w_dims = {"W": (2, 2, 3), "not Riesz": (2, 2, 2), "W before not Riesz": (2, 2, 1)}[case]
    return FiberedSystem(measure, a), None, [Subspace(np.eye(4)[:, :k]) for k in w_dims]


@pytest.mark.parametrize("case, reason", [
    ("span(B)", "atom 'x1': target subspace has dimension 1, expected 2"),
    ("W", "atom 'x2': target subspace has dimension 3, expected 2"),
    ("not Riesz", "fiber at atom 'x1' is not a Riesz sequence"),
    ("W before not Riesz", "atom 'x2': target subspace has dimension 1, expected 2"),
    ("span(B) before not Riesz", "atom 'x2': target subspace has dimension 1, expected 2"),
])
def test_verify_thm2_precondition_failure_bytes(case, reason, tmp_path, capsys):
    """Both hypotheses of Theorem 2, dim W = r and a Riesz fiber, are reported
    as precondition_failure at the first atom that fails them; every target
    is checked before any fiber is factored, so a target's failure wins."""
    inst = _write_instance(tmp_path / "thm2.json", *_thm2_case(case))
    assert cli.main(["verify-thm2", "--in", inst]) == 0
    assert capsys.readouterr().out == _thm2_failure_stdout(reason)


def test_verify_thm2_span_of_b_builds_no_subspace(tmp_path, capsys, monkeypatch):
    """Without W, verify-thm2 hands B to the engine, which cuts span(B) from
    its own SVD of the B stack: no Subspace is constructed on the way."""
    inst = duality_instance("in-duality", mispace._FACTOR_BLOCK + 9, 4, 1, seed=13)
    path = _write_instance(tmp_path / "b.json", inst.sa, inst.sb)
    built = []
    post_init = Subspace.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(Subspace, "__post_init__", counting)
    assert cli.main(["verify-thm2", "--in", path]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["holds"] is True
    assert built == []
    Subspace.zero(4)  # the counter is live
    assert built == [1]


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_verify_thm2_span_of_b_is_the_explicit_span(family, count, tmp_path, capsys):
    """A B-only instance reports the bytes of the same instance with W written
    out as Subspace.span_of of each atom's B: the one span pass over the B
    stack gives span_of's bases bit for bit, across factor blocks."""
    inst = duality_instance(family, mispace._FACTOR_BLOCK + 9, 4, count, seed=13)
    targets = [Subspace.span_of(m) for m in inst.sb.matrices]
    reports = []
    for path in (_write_instance(tmp_path / "b.json", inst.sa, inst.sb),
                 _write_instance(tmp_path / "w.json", inst.sa, targets=targets)):
        assert cli.main(["verify-thm2", "--in", path]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    result = json.loads(reports[0])["result"]
    if count == 1:  # span(B) has dimension r = 1 on every atom
        assert result["holds"] is (family != "orthogonal-failure")
    else:
        assert "precondition_failure" in result


def test_reconstruct(pair_file):
    proc = run_cli("reconstruct", "--in", pair_file, check_rc=0)
    result = json.loads(proc.stdout)["result"]
    assert result["ok"] is True
    assert result["rel_residual"] <= 1e-8
    assert len(result["per_atom"]) == 3


@pytest.mark.parametrize("dim", [3, 4, 8, 12, 33, 100])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_row_norms_are_the_per_atom_norms_bit_for_bit(dim, scale):
    """reconstruct's abs_residual column: the batched row norms equal one
    np.linalg.norm call per atom, so the report keeps its bytes."""
    rng = np.random.default_rng(dim)
    x = scale * (rng.standard_normal((257, dim)) + 1j * rng.standard_normal((257, dim)))
    want = np.array([np.linalg.norm(row) for row in x])
    assert np.array_equal(cli._row_norms(x), want)


def test_reconstruct_through_canonical_dual(pair_file, tmp_path):
    # without a system B the probe is reconstructed through A's canonical dual
    with open(pair_file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for atom in doc["atoms"]:
        del atom["B"]
    path = tmp_path / "a-only.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = json.loads(run_cli("reconstruct", "--in", str(path), check_rc=0).stdout)["result"]
    assert result["ok"] is True
    assert result["dual_source"] == "canonical dual"
    assert result["rel_residual"] <= 1e-10
    assert len(result["per_atom"]) == 3


def test_zak_demo_builtin_and_custom():
    proc = run_cli("zak-demo", "--group", "z12", "--signal", "random",
                   "--seed", "4", check_rc=0)
    result = json.loads(proc.stdout)["result"]
    assert result["unitarity_residual"] <= 1e-12
    assert result["roundtrip_residual"] <= 1e-12
    assert result["intertwine_max_residual"] <= 1e-12
    assert result["bounds_agreement"] <= 1e-9

    proc = run_cli("zak-demo", "--group", "cyclic:6", "--subgroup-gen", "3",
                   "--signal", "delta2", check_rc=0)
    result = json.loads(proc.stdout)["result"]
    assert result["plan"]["q"] == 2
    assert result["plan"]["p"] == 3
    assert result["roundtrip_residual"] <= 1e-12


def test_zak_demo_dihedral():
    proc = run_cli("zak-demo", "--group", "d4", "--signal", "ones", check_rc=0)
    result = json.loads(proc.stdout)["result"]
    assert result["unitarity_residual"] <= 1e-12
    assert result["intertwine_max_residual"] <= 1e-12
    # a built-in group with an explicit generator: the reflection s
    proc = run_cli("zak-demo", "--group", "d4", "--subgroup-gen", "4", check_rc=0)
    assert json.loads(proc.stdout)["result"]["plan"] == plan_to_json(build_plan(dihedral_group(4), 4))


def test_bad_json_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    for text in (
        "{broken",
        # nested past the recursion limit of both the streamed reader and json.load
        '{"fiber_dim": 1, "atoms": [' + "[" * 100_000 + "]" * 100_000 + "]}",
    ):
        path.write_text(text, encoding="utf-8")
        proc = run_cli("angles", "--in", str(path))
        _assert_input_error(proc)
        assert "invalid JSON" in proc.stderr


def test_missing_file_exits_one():
    proc = run_cli("angles", "--in", "/nonexistent/nope.json")
    assert proc.returncode == 1


def test_bad_flag_exits_one():
    proc = run_cli("gen", "--family", "no-such-family")
    assert proc.returncode == 1
    assert "framekit:" in proc.stderr


def test_custom_group_needs_generator():
    proc = run_cli("zak-demo", "--group", "cyclic:6")
    assert proc.returncode == 1
    assert proc.stderr == "framekit: custom groups need --subgroup-gen\n"


def test_bad_signal_exits_one():
    proc = run_cli("zak-demo", "--group", "z4", "--signal", "delta99")
    assert proc.returncode == 1


def _assert_input_error(proc):
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("framekit:")
    assert "Traceback" not in proc.stderr


def test_verify_thm2_boolean_basis_size_is_input_error(tmp_path):
    doc = {
        "fiber_dim": 1,
        "atoms": [{
            "id": "x0", "weight": 1.0,
            "A": {"dim": 1, "vectors": [[[1.0, 0.0]]]},
            "W": {"ambient_dim": 1, "basis": {"rows": True, "cols": True, "data": [[1.0, 0.0]]}},
        }],
    }
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli("verify-thm2", "--in", str(path))
    _assert_input_error(proc)
    assert "rows and cols must be non-negative integers" in proc.stderr


def test_integer_beyond_float_range_is_input_error(pair_file, tmp_path):
    with open(pair_file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    marker = 123456.0
    doc["atoms"][1]["B"]["vectors"][0][0][0] = marker
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace(repr(marker), "9" * 400), encoding="utf-8")
    proc = run_cli("verify-thm1", "--in", str(path))
    _assert_input_error(proc)
    assert "atom 'x1': B.vectors[0][0]: number is out of float range" in proc.stderr


@pytest.mark.parametrize("command", ["verify-thm1", "angles"])
@pytest.mark.parametrize("value", ["-1", "5"])
def test_angle_tol_outside_unit_interval_is_input_error(command, value):
    proc = run_cli(command, "--in", str(FIXTURES / "gen-orthogonal-failure.json"),
                   f"--angle-tol={value}")
    _assert_input_error(proc)
    assert "--angle-tol" in proc.stderr


@pytest.mark.parametrize("value", ["2", "nan"])
def test_tol_outside_unit_interval_is_input_error(value):
    proc = run_cli("dual", "--in", str(FIXTURES / "gen-in-duality.json"), f"--tol={value}")
    _assert_input_error(proc)
    assert "--tol" in proc.stderr


@pytest.mark.parametrize(
    "command, infile", [("reconstruct", "pair-in-duality.json"), ("verify-thm2", "riesz-with-targets.json")]
)
def test_tol_is_rejected_where_eq_tol_is_not_read(command, infile):
    proc = run_cli(command, "--in", str(FIXTURES / infile), "--tol", "1e-6")
    _assert_input_error(proc)
    assert "--tol" in proc.stderr


def test_dual_takes_tol():
    run_cli("dual", "--in", str(FIXTURES / "pair-in-duality.json"), "--tol", "1e-6", check_rc=0)


def test_tol_flag_exists_on_exactly_the_commands_that_read_eq_tol():
    with_tol = {
        name
        for name, sub in cli.build_parser()._subparsers._group_actions[0].choices.items()
        if any("--tol" in a.option_strings for a in sub._actions)
    }
    assert with_tol == {"angles", "dual", "verify-thm1"}


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_cmax_not_finite_positive_is_input_error(value):
    proc = run_cli("verify-thm1", "--in", str(FIXTURES / "gen-in-duality.json"),
                   f"--cmax={value}")
    _assert_input_error(proc)
    assert "--cmax" in proc.stderr


def _count_group_builds(monkeypatch):
    """Count the calls of zak's group constructors from here on."""
    calls = []
    for name in ("cyclic_group", "dihedral_group"):
        make = getattr(zak, name)
        monkeypatch.setattr(zak, name, lambda n, make=make: calls.append(n) or make(n))
    return calls


@pytest.mark.parametrize("group", ["cyclic:1025", "dihedral:513"])
def test_zak_demo_group_order_cap(group, monkeypatch, capsys):
    calls = _count_group_builds(monkeypatch)
    assert cli.main(["zak-demo", "--group", group, "--subgroup-gen", "1"]) == 1
    kind, _, n = group.partition(":")
    order = int(n) if kind == "cyclic" else 2 * int(n)
    assert capsys.readouterr().err == f"framekit: group order {order} exceeds the limit 1024\n"
    assert calls == []  # refused before any table is built
    zak.plan_from_spec(f"{kind}:4", 1)  # while a table that is built is counted
    assert calls == [4]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cyclic:x"], "bad group size in 'cyclic:x'"),
        (["square:4", "--subgroup-gen", "1"], "unknown group kind 'square'"),
        (["cyclic:6"], "custom groups need --subgroup-gen"),
        (["z5"], "unknown group 'z5' (use z4, z12, d4, cyclic:N, dihedral:N)"),
    ],
    ids=["size", "kind", "generator", "name"],
)
def test_zak_demo_bad_group_spec(argv, message, monkeypatch, capsys):
    calls = _count_group_builds(monkeypatch)
    assert cli.main(["zak-demo", "--group", *argv]) == 1
    assert capsys.readouterr().err == f"framekit: {message}\n"
    assert calls == []


# (group spec and flags, plan powers, section and cells, sha256 of the
# --signal random --seed 5 report), as these specs gave them before their
# parsing moved into zak; " Z12 " and cyclic:12 both give zak-demo.json
ZAK_SPECS = [
    (["z4"], (0, 2), (0, 1), [[0, 1], [2, 3]],
     "a7277f5dd3dc8002e56e511166de49fd8b8cd7f4c3db91aa5352cccd60058ce7"),
    ([" Z12 "], (0, 3, 6, 9), (0, 1, 2), [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]],
     "552c0d4317472e30d02dc14e3331a5973afdab26cec9f86d33647950c18220a0"),
    (["d4"], (0, 1, 2, 3), (0, 4), [[0, 4], [1, 5], [2, 6], [3, 7]],
     "1585b3c5e1f721210de6d3955dd9cda7f334ab557615160c16968682bd128f59"),
    (["d4", "--subgroup-gen", "4"], (0, 4), (0, 1, 2, 3), [[0, 1, 2, 3], [4, 7, 6, 5]],
     "73ed6f94b4bcaccc79a4166acd7d64ed0f27633cecf602f08dd0d5a4d1fa1bab"),
    (["cyclic:12", "--subgroup-gen", "3"], (0, 3, 6, 9), (0, 1, 2),
     [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]],
     "552c0d4317472e30d02dc14e3331a5973afdab26cec9f86d33647950c18220a0"),
    (["dihedral:8", "--subgroup-gen", "1"], tuple(range(8)), (0, 8), [[k, k + 8] for k in range(8)],
     "2c8c2286c12c0d21d76811f5386b93ce9df3ba4e79e362e5194e4504c389f269"),
]


@pytest.mark.parametrize("argv, powers, section, cells, digest", ZAK_SPECS,
                         ids=[repr(" ".join(case[0])) for case in ZAK_SPECS])
def test_zak_demo_group_specs(argv, powers, section, cells, digest, capsys):
    plan = zak.plan_from_spec(argv[0], int(argv[2]) if len(argv) > 2 else None)
    assert (plan.powers, plan.section, plan.cells.tolist()) == (powers, section, cells)
    assert cli.main(["zak-demo", "--group", *argv, "--signal", "random", "--seed", "5"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_uneven_generator_counts_are_input_error(tmp_path):
    doc = {
        "fiber_dim": 2,
        "atoms": [
            {"id": "x0", "weight": 1.0, "A": {"dim": 2, "vectors": [[[1.0, 0.0], [0.0, 0.0]]]}},
            {"id": "x1", "weight": 1.0, "A": {"dim": 2, "vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                                                     [[0.0, 0.0], [1.0, 0.0]]]}},
        ],
    }
    path = tmp_path / "uneven.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli("verify-thm2", "--in", str(path))
    _assert_input_error(proc)
    assert "inconsistent atoms: generator counts are not uniform: [1, 2]" in proc.stderr


def _limit_address_space():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("args,reason", [
    # square 40-odd x 48 blocks never pass the condition test: the draws are capped
    (["--atoms", "20", "--dim", "48", "--gens", "48", "--seed", "1"], "condition number"),
    # a 30000 x 30000 draw: refused before the random generator is seeded
    (["--atoms", "1", "--dim", "30000", "--gens", "1"], "--atoms * --dim * max(--dim, --gens)"),
    # inside the size cap, but its 8000 x 8000 complex draw does not fit in the address space
    (["--atoms", "1", "--dim", "8000", "--gens", "1"], "too large for available memory"),
])
def test_gen_rejects_unbounded_work_from_argv(args, reason, tmp_path):
    # the limits make a missing check fail fast instead of hanging or swapping
    proc = subprocess.run(
        [sys.executable, "-m", "framekit", "gen", "--family", "in-duality", *args,
         "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, timeout=30, preexec_fn=_limit_address_space,
    )
    _assert_input_error(proc)
    assert reason in proc.stderr
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# In-process: the parser, all-or-nothing output, and memory.


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert cli.main(["zak-demo", "--group", "z4"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert capsys.readouterr().out.count('"command": "zak-demo"') == 2


@pytest.mark.parametrize("to_file", [True, False])
def test_unserializable_report_writes_nothing(to_file, monkeypatch, tmp_path, capsys):
    def nan_in_last_atom(*args, **kwargs):
        doc = pair_to_json(*args, **kwargs)
        doc["atoms"][-1]["f"] = np.full_like(doc["atoms"][-1]["f"], np.nan)
        return doc

    monkeypatch.setattr(cli, "pair_to_json", nan_in_last_atom)
    out, absent = tmp_path / "report.json", tmp_path / "absent.json"
    out.write_text("earlier report\n", encoding="utf-8")
    argv = ["gen", "--family", "in-duality", "--atoms", "40", "--seed", "3"]
    for target in (out, absent) if to_file else (None,):
        assert cli.main(argv + (["--out", str(target)] if target else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "framekit: cannot serialize a non-finite float\n"
    assert out.read_text(encoding="utf-8") == "earlier report\n"
    assert not absent.exists()
    # and no temporary file is left behind
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_out_file_mode_bits_are_those_open_gives(tmp_path):
    argv = ["zak-demo", "--group", "z4", "--out"]
    old = os.umask(0o027)
    try:
        with open(tmp_path / "by-open.json", "w", encoding="utf-8"):
            pass
        assert cli.main(argv + [str(tmp_path / "new.json")]) == 0
    finally:
        os.umask(old)
    mode = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert mode["new.json"] == mode["by-open.json"] == 0o640
    # an existing file keeps its mode bits, and a link to it stays a link
    existing, link = tmp_path / "existing.json", tmp_path / "link.json"
    existing.write_text("earlier report\n", encoding="utf-8")
    existing.chmod(0o604)
    link.symlink_to(existing)
    assert cli.main(argv + [str(link)]) == 0
    assert stat.S_IMODE(existing.stat().st_mode) == 0o604 and link.is_symlink()
    assert existing.read_bytes() == (tmp_path / "new.json").read_bytes()
    # a path that is not a regular file is written to, not replaced
    assert cli.main(argv + [os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_stdout_report_is_the_out_file_bytes(tmp_path, capsys):
    # a multi-block report, so that every piece of the writer reaches both routes
    inst, out = tmp_path / "pair.json", tmp_path / "thm1.json"
    gen = ["gen", "--family", "in-duality", "--atoms", "70", "--seed", "9"]
    assert cli.main(gen + ["--out", str(inst)]) == 0
    for argv in (gen, ["verify-thm1", "--in", str(inst), "--seed", "1"]):
        assert cli.main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


@pytest.mark.parametrize("to_file", [True, False])
def test_report_is_written_through_a_write_only_handle(to_file, monkeypatch, tmp_path):
    # _emit hands every writer the write-only handle of its temporary file,
    # never one a caller could read the report back through
    readable = []
    write_report = cli._write_report

    def recording(report, fh):
        readable.append(fh.readable())
        write_report(report, fh)

    monkeypatch.setattr(cli, "_write_report", recording)
    out = ["--out", str(tmp_path / "angles.json")] if to_file else []
    assert cli.main(["angles", "--in", str(FIXTURES / "pair-in-duality.json")] + out) == 0
    assert readable == [False]


def _renamed_instance(tmp_path, ids):
    """An in-duality instance file whose atoms carry the given ids."""
    inst = duality_instance("in-duality", len(ids), 3, 2, seed=5)
    measure = MeasureModel(tuple(ids), inst.sa.measure.weights)
    sa, sb = (FiberedSystem(measure, s.matrices) for s in (inst.sa, inst.sb))
    return _write_instance(tmp_path / "inst.json", sa, sb), sa, sb


def test_non_ascii_report_is_its_utf_8_bytes(tmp_path, capsys):
    path, sa, sb = _renamed_instance(tmp_path, ["α", "ü,x"])
    fields, _ = mispace._fiber_pass(sa, sb)
    expected = diagnostics_to_csv(fields["diagnostics"]).encode("utf-8")
    assert "α".encode("utf-8") in expected and "ü".encode("utf-8") in expected
    out = tmp_path / "angles.csv"
    argv = ["angles", "--in", path, "--format", "csv"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_unencodable_report_writes_nothing(tmp_path, capsys):
    # a lone surrogate is valid JSON as an escape, and no UTF-8 text
    path, _, _ = _renamed_instance(tmp_path, ["x0", "x1"])
    inst = pathlib.Path(path)
    inst.write_text(inst.read_text(encoding="utf-8").replace('"x1"', '"\\ud800"'), encoding="utf-8")
    argv = ["angles", "--in", path, "--format", "csv"]
    for out in (["--out", str(tmp_path / "angles.csv")], []):
        assert cli.main(argv + out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("framekit: 'utf-8' codec can't encode character '\\ud800'")
        assert captured.err.endswith(": surrogates not allowed\n")
    assert [p.name for p in tmp_path.iterdir()] == ["inst.json"]


def _named_pair(ids):
    """An in-duality instance with a probe f, whose atoms carry the given ids:
    every command that takes --in can read it."""
    inst = duality_instance("in-duality", len(ids), 3, 2, seed=5)
    measure = MeasureModel(tuple(ids), inst.sa.measure.weights)
    sa, sb = (FiberedSystem(measure, s.matrices) for s in (inst.sa, inst.sb))
    return PairDocument(sa, sb, probe=FiberedFunction(measure, inst.probe.values))


@pytest.mark.parametrize("encoding", ["ascii", "latin-1", "utf-8"])
def test_stdout_is_the_out_file_bytes_in_any_encoding(encoding, tmp_path, monkeypatch):
    # stdout gets the report's bytes, never encoded again in its own encoding
    pair = _named_pair(["α", "ü,x"])
    inst = tmp_path / "inst.json"
    inst.write_text(dumps(pair_to_json(pair.sa, pair.sb, None, pair.probe)), encoding="utf-8")
    inst = str(inst)
    commands = {  # every report a command writes
        "gen": ["gen", "--family", "in-duality", "--atoms", "3", "--seed", "2"],
        "angles": ["angles", "--in", inst],
        "angles-csv": ["angles", "--in", inst, "--format", "csv"],
        "dual": ["dual", "--in", inst],
        "verify-thm1": ["verify-thm1", "--in", inst],
        "verify-thm1-csv": ["verify-thm1", "--in", inst, "--format", "csv"],
        "verify-thm2": ["verify-thm2", "--in", inst],
        "reconstruct": ["reconstruct", "--in", inst],
        "zak-demo": ["zak-demo", "--group", "d4", "--signal", "random", "--seed", "3"],
    }
    assert {argv[0] for argv in commands.values()} == set(cli._DISPATCH)
    for name, argv in commands.items():
        out = tmp_path / f"{name}.out"
        assert cli.main(argv + ["--out", str(out)]) == 0, name
        stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(argv) == 0, name
        stdout.flush()
        assert stdout.buffer.getvalue() == out.read_bytes(), name
        if name.endswith("-csv"):
            assert "ü,x".encode("utf-8") in out.read_bytes()


def test_stdout_is_the_out_file_bytes_under_an_ascii_stdout(tmp_path):
    pair = _named_pair(["α", "ü,x"])
    inst, out = tmp_path / "inst.json", tmp_path / "angles.csv"
    inst.write_text(dumps(pair_to_json(pair.sa, pair.sb)), encoding="utf-8")
    argv = [sys.executable, "-m", "framekit", "angles", "--in", str(inst), "--format", "csv"]
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    subprocess.run(argv + ["--out", str(out)], env=env, check=True)
    proc = subprocess.run(argv, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert "α".encode("utf-8") in proc.stdout
    assert proc.stdout == out.read_bytes()


def test_unencodable_id_fails_at_read_time(tmp_path, monkeypatch, capsys):
    """A lone-surrogate id is refused where every reader meets, before any
    factorization: the binary companion, the streamed reader and json.load
    on a handle that cannot seek all exit 1 with the codec's message."""

    def sentinel(*args, **kwargs):
        raise AssertionError("the factor pass ran on an unencodable id")

    monkeypatch.setattr(mispace, "_fiber_pass", sentinel)
    monkeypatch.setattr(cli, "_fiber_pass", sentinel)
    commands = (["angles", "--format", "csv"], ["verify-thm1"])

    def refused():
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("framekit: 'utf-8' codec can't encode character '\\ud800'")
        assert captured.err.endswith(": surrogates not allowed\n")

    # written as gen writes an instance, with its companion; the JSON escapes
    # the id, and the companion reader declines it as it takes a valid one
    for name, ids in (("good", ["x0", "x1"]), ("bad", ["x0", "\ud800"])):
        path = tmp_path / f"{name}.json"
        cli._emit(functools.partial(cli._write_instance, _named_pair(ids)), str(path))
        with open(f"{path}.npz", "rb") as fh:
            read = serialize._read_companion(fh, hashlib.sha256(path.read_bytes()).digest(), 1 << 20)
        assert (read is not None) == (name == "good")
    bad = tmp_path / "bad.json"
    data = bad.read_bytes()
    assert b'"\\ud800"' in data
    for companion in (True, False):
        if not companion:
            os.remove(f"{bad}.npz")
        for command in commands:
            assert cli.main(command + ["--in", str(bad)]) == 1
            refused()

    # a pipe cannot seek: read_pair hands it to json.load and pair_from_json
    def streamed(fh):
        raise AssertionError("a handle that cannot seek was streamed")

    monkeypatch.setattr(serialize, "_stream_pair", streamed)
    assert len(data) < 1 << 12  # the instance fits in the pipe's buffer
    for command in commands:
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            assert cli.main(command + ["--in", f"/dev/fd/{r}"]) == 1
        finally:
            os.close(r)
        refused()


def test_angles_certifies_no_witness(monkeypatch, capsys):
    """angles runs verify_duality's factor pass alone: no witness is
    certified, and its reports keep their bytes."""

    def forbidden(*args, **kwargs):
        raise AssertionError("angles certified a witness")

    monkeypatch.setattr(mispace, "_certificate", forbidden)
    pair = str(FIXTURES / "pair-in-duality.json")
    for argv, name in ((["angles", "--in", pair], "angles.json"),
                       (["angles", "--in", pair, "--format", "csv"], "angles.csv")):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == (FIXTURES / name).read_bytes()


def test_verify_thm1_csv_certifies_no_witness(monkeypatch, capsys):
    """The verify-thm1 CSV is the factor pass's diagnostics, which the
    witnesses do not touch: it certifies none and keeps its bytes, while the
    JSON report, which carries the witness verdicts, still certifies."""
    calls = []
    certificate = mispace._certificate

    def counted(*args, **kwargs):
        calls.append(1)
        return certificate(*args, **kwargs)

    monkeypatch.setattr(mispace, "_certificate", counted)
    pair = str(FIXTURES / "pair-in-duality.json")
    assert cli.main(["verify-thm1", "--in", pair, "--seed", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (FIXTURES / "verify-thm1.csv").read_bytes()
    assert not calls
    assert cli.main(["verify-thm1", "--in", pair, "--seed", "1"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (FIXTURES / "verify-thm1.json").read_bytes()
    assert calls


def test_angles_on_a_non_frame_exits_one(tmp_path, capsys):
    # A = Q diag(1, 1e-6) on every atom: lower / upper = 1e-12 fails the
    # scale-free frame test, while a uniform 1e-9 scaling of A passes it
    inst = duality_instance("in-duality", 3, 4, 2, seed=1)
    q = np.linalg.qr(inst.sa.matrices)[0]
    ill = FiberedSystem(inst.sa.measure, q * [1.0, 1e-6])
    tiny = FiberedSystem(inst.sa.measure, 1e-9 * inst.sa.matrices)
    paths = {}
    for name, sa in (("ill", ill), ("tiny", tiny), ("base", inst.sa)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dumps(pair_to_json(sa, inst.sb)), encoding="utf-8")
    verdict_keys = {
        "angles": ("global_angles_positive", "fiber_angles_positive"),
        "verify-thm1": ("global_duals_exist", "global_angles_positive", "fiber_duals_exist",
                        "fiber_angles_positive", "witness_status"),
    }
    for command, keys in verdict_keys.items():
        assert cli.main([command, "--in", str(paths["ill"])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "framekit: first system is not a frame for its span\n"
        verdicts = []
        for name in ("tiny", "base"):
            assert cli.main([command, "--in", str(paths[name])]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            verdicts.append([result[key] for key in keys])
        assert verdicts[0] == verdicts[1]


# (argv without --out, numpy routine made to fail); gen factors with QR only
FACTORING_COMMANDS = [
    (["gen", "--family", "in-duality", "--atoms", "3", "--seed", "7"], "qr"),
    (["verify-thm1", "--in", str(FIXTURES / "pair-in-duality.json")], "svd"),
    (["angles", "--in", str(FIXTURES / "pair-in-duality.json")], "svd"),
    (["dual", "--in", str(FIXTURES / "pair-in-duality.json")], "svd"),
    (["verify-thm2", "--in", str(FIXTURES / "riesz-with-targets.json")], "svd"),
]
# what the routine raises -> (exit code, stderr after "framekit: ")
FACTORING_FAILURES = {
    "LinAlgError": (2, "numerical failure: {} no convergence"),
    "MemoryError": (1, "input is too large for available memory"),
}


@pytest.mark.parametrize("failure", FACTORING_FAILURES)
@pytest.mark.parametrize("argv, routine", FACTORING_COMMANDS, ids=[c[0][0] for c in FACTORING_COMMANDS])
def test_a_failed_factorization_exits_with_its_code_and_writes_nothing(argv, routine, failure, monkeypatch,
                                                                       tmp_path, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence") if failure == "LinAlgError" else MemoryError()

    monkeypatch.setattr(np.linalg, routine, fail)
    code, message = FACTORING_FAILURES[failure]
    message = message.format({"svd": "SVD did not converge:", "qr": "QR factorization failed:"}[routine])
    assert cli.main(argv + ["--out", str(tmp_path / "report.json")]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"framekit: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def partial_instances(tmp_path_factory):
    """Instance files that lack a part some command needs: "a" holds system A
    only, "ab" systems A and B without a probe f."""
    inst = duality_instance("in-duality", 3, 4, 2, seed=1)
    root = tmp_path_factory.mktemp("partial")
    paths = {"a": root / "a.json", "ab": root / "ab.json"}
    paths["a"].write_text(dumps(pair_to_json(inst.sa)), encoding="utf-8")
    paths["ab"].write_text(dumps(pair_to_json(inst.sa, inst.sb)), encoding="utf-8")
    return paths


@pytest.mark.parametrize("argv, message", [
    (["angles", "--in", "a"], "instance has no system B on its atoms"),
    (["dual", "--in", "a"], "instance has no system B on its atoms"),
    (["verify-thm1", "--in", "a"], "instance has no system B on its atoms"),
    (["verify-thm2", "--in", "a"], "instance needs target subspaces W or a system B to span them"),
    (["reconstruct", "--in", "ab"], "instance has no probe function f on its atoms"),
    (["zak-demo", "--group", "cyclic:0", "--subgroup-gen", "0"], "order must be at least 1"),
    (["zak-demo", "--group", "dihedral:0", "--subgroup-gen", "0"], "rotation order must be at least 1"),
], ids=["angles", "dual", "verify-thm1", "verify-thm2", "reconstruct", "cyclic", "dihedral"])
def test_input_a_command_cannot_use_exits_one_and_writes_nothing(argv, message, partial_instances, tmp_path,
                                                                  capsys):
    argv = [str(partial_instances[a]) if a in partial_instances else a for a in argv]
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"framekit: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,infile", [("verify-thm1", "pair-in-duality.json")])
def test_seed_is_echoed_and_changes_no_result(command, infile, tmp_path, capsys):
    reports = {}
    for seed in ("1", "3"):
        out = tmp_path / f"{seed}.json"
        assert cli.main([command, "--in", str(FIXTURES / infile), "--seed", seed, "--out", str(out)]) == 0
        reports[seed] = out.read_bytes()
        assert json.loads(reports[seed])["seed"] == int(seed)
    # "result" is the envelope's last key, so its bytes are the report's tail
    results = [r.split(b'"result":', 1)[1] for r in reports.values()]
    assert results[0] == results[1]
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    assert "does not change the result" in " ".join(capsys.readouterr().out.split())


# Calls that open a file for writing whatever their arguments; open() does
# when its mode is not a constant without w, a, x and +.
WRITING_CALLS = {"write_text", "write_bytes", "TemporaryFile", "NamedTemporaryFile",
                 "SpooledTemporaryFile", "mkstemp", "save", "savez", "savez_compressed",
                 "savetxt", "tofile"}


def _opens_for_writing(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in WRITING_CALLS:
        return True
    if name != "open":
        return False
    # open(file, mode) and io.open(file, mode), but path.open(mode)
    at = 0 if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) != "io" else 1
    modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at : at + 1]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(
        set(mode.value) & set("wax+")
    )


def test_only_emit_opens_a_file_for_writing():
    """In the package, only cli._emit opens a file for writing, so every
    report goes through its one all-or-nothing path."""
    writes = {}
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        emit = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_emit"]
        allowed = {id(n) for n in ast.walk(emit[0])} if path.name == "cli.py" else set()
        for node in ast.walk(tree):
            if _opens_for_writing(node):
                where = "_emit" if id(node) in allowed else "elsewhere"
                writes.setdefault(where, []).append(f"{path.name}:{node.lineno}")
    assert "elsewhere" not in writes, writes["elsewhere"]
    assert len(writes["_emit"]) == 2  # the temporary file and --out


def test_reports_are_written_as_bytes():
    """In the package, no class wraps a binary file as io.RawIOBase, and only
    cli._read_pair builds an io.TextIOWrapper: every output goes through
    _write_report's one byte writer, with no text layer to flush or detach."""
    raw_classes, wrappers = [], []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(ast.unparse(b).endswith("RawIOBase") for b in node.bases):
                raw_classes.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.FunctionDef):
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and ast.unparse(call.func).endswith("TextIOWrapper"):
                        wrappers.append(f"{path.name}:{node.name}")
    assert raw_classes == []
    assert wrappers == ["cli.py:_read_pair"]


def test_only_serialize_formats_floats_with_17g():
    """In the package, only serialize writes floats as '%.17g' texts, so every
    report takes its floats from one writer and its one float kernel."""
    found = set()
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value:
                found.add(path.name)
    assert found == {"serialize.py"}


def test_commands_peak_memory_stays_below_the_instance_size(tmp_path):
    # the streamed reader and writer hold one atom and one chunk of text at a
    # time; holding the file's text, its decoded document or a whole report
    # string takes the peak past 1.5x the instance size (3.6-4.75x before)
    gen = ["gen", "--family", "in-duality", "--atoms", "300", "--dim", "8", "--gens", "6", "--seed", "2"]
    inst = tmp_path / "inst.json"
    assert cli.main(gen + ["--out", str(inst)]) == 0
    size = inst.stat().st_size
    runs = {
        "gen": gen,
        "verify-thm1": ["verify-thm1", "--in", str(inst), "--seed", "1"],
        "angles": ["angles", "--in", str(inst)],
        "dual": ["dual", "--in", str(inst)],
        "reconstruct": ["reconstruct", "--in", str(inst)],
    }
    peaks = {}

    def measure(label, argv):
        tracemalloc.start()
        try:
            assert cli.main(argv + ["--out", str(tmp_path / f"{label}.out")]) == 0
            peaks[label] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the readers load the binary companion gen wrote beside the instance,
    # then, with it deleted, parse the JSON
    for name, argv in runs.items():
        measure(name, argv)
    companion = tmp_path / "inst.json.npz"
    assert companion.is_file()
    companion.unlink()
    for name, argv in list(runs.items())[1:]:
        measure(f"{name} (JSON)", argv)
    assert {name: round(peak / size, 2) for name, peak in peaks.items() if peak > 1.5 * size} == {}


@pytest.mark.parametrize("shape,refused", [((1, 2, 8192), True), ((4, 2, 1024), False)])
def test_dual_refuses_gramians_past_the_size_limit(shape, refused, tmp_path, monkeypatch, capsys):
    # dual holds gens x gens Gramians on every atom at once (at (4, 2, 1024),
    # 245x the instance file under tracemalloc), so it caps
    # atoms * gens * max(dim, gens) at gen's limit before any factorization
    n_atoms, d, r = shape
    rng = np.random.default_rng(3)
    measure = MeasureModel(tuple(f"x{k}" for k in range(n_atoms)), np.ones(n_atoms))
    sa = FiberedSystem(measure, rng.standard_normal((n_atoms, d, r)) + 1j * rng.standard_normal((n_atoms, d, r)))
    inst, out = tmp_path / "inst.json", tmp_path / "dual.json"
    inst.write_text(dumps(pair_to_json(sa, sa)), encoding="utf-8")
    calls = []
    pinv_dual = cli.pinv_dual

    def counting(*args):
        calls.append(1)
        return pinv_dual(*args)

    monkeypatch.setattr(cli, "pinv_dual", counting)
    rc = cli.main(["dual", "--in", str(inst), "--out", str(out)])
    err = capsys.readouterr().err
    if refused:
        limit = f"atoms * gens * max(dim, gens) = {n_atoms * r * max(d, r)} exceeds the limit {cli.MAX_GEN_SIZE}"
        assert (rc, calls, err) == (1, [], f"framekit: {limit}\n")
        assert not out.exists()
    else:
        assert (rc, calls, err) == (0, [1], "")
        assert json.loads(out.read_bytes())["result"]["is_alternate_dual_forward"] is True
