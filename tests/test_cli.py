"""End-to-end checks of the command-line interface through subprocesses."""

import json
import pathlib
import subprocess
import sys

import pytest

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


def test_verify_thm2_precondition_reported(pair_file):
    # this pair's B spans are 1-dimensional while A has 2 generators
    proc = run_cli("verify-thm2", "--in", pair_file, check_rc=0)
    result = json.loads(proc.stdout)["result"]
    if result["holds"] is False:
        assert "precondition_failure" in result or "failed_atoms" in result


def test_reconstruct(pair_file):
    proc = run_cli("reconstruct", "--in", pair_file, check_rc=0)
    result = json.loads(proc.stdout)["result"]
    assert result["ok"] is True
    assert result["rel_residual"] <= 1e-8
    assert len(result["per_atom"]) == 3


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


def test_bad_json_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken", encoding="utf-8")
    proc = run_cli("angles", "--in", str(path))
    assert proc.returncode == 1
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
    assert "subgroup-gen" in proc.stderr


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


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_cmax_not_finite_positive_is_input_error(value):
    proc = run_cli("verify-thm1", "--in", str(FIXTURES / "gen-in-duality.json"),
                   f"--cmax={value}")
    _assert_input_error(proc)
    assert "--cmax" in proc.stderr


@pytest.mark.parametrize("group", ["cyclic:1025", "dihedral:513"])
def test_zak_demo_group_order_cap(group):
    proc = run_cli("zak-demo", "--group", group, "--subgroup-gen", "1")
    _assert_input_error(proc)
    assert "exceeds the limit 1024" in proc.stderr


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
