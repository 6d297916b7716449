"""Byte-for-byte CLI outputs against committed golden files.

Each case runs one ``framekit`` command in-process and compares the bytes it
writes with ``tests/fixtures/cli/<name>``.  The fixtures pin the writer's
layout and float format (17 significant digits) together with the numerics
behind every report, so a change to either shows up as a byte difference.

Regenerate the fixtures only on purpose, from the code whose output they
should pin:

    PYTHONPATH=src python tests/test_cli_fixtures.py

The script rewrites every output fixture and ``riesz-with-targets.json``,
and removes the binary companions its ``gen`` cases write beside theirs.
It does not rewrite ``pair-in-duality.json``: that is the checkers' input,
an in-duality instance kept as committed so that a change to the
generator's draws leaves the checker fixtures where they are.

Every case that reads ``pair-in-duality.json`` also runs from a copy of it
with a binary companion beside it, and must give the same bytes without
parsing the JSON.
"""

import hashlib
import os
import pathlib
import shutil
import sys

import numpy as np
import pytest

from framekit import cli, serialize

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "cli"
PAIR = "pair-in-duality.json"
RIESZ = "riesz-with-targets.json"

# (fixture name, argv without --out); an argv item naming a fixture is its path
CASES = [
    ("gen-in-duality.json",
     ["gen", "--family", "in-duality", "--atoms", "3", "--dim", "4", "--gens", "2", "--seed", "7"]),
    ("gen-orthogonal-failure.json",
     ["gen", "--family", "orthogonal-failure", "--atoms", "3", "--dim", "4", "--gens", "2", "--seed", "5"]),
    ("gen-near-threshold.json",
     ["gen", "--family", "near-threshold", "--atoms", "3", "--dim", "4", "--gens", "2", "--seed", "42"]),
    ("verify-thm1.json", ["verify-thm1", "--in", PAIR, "--seed", "1"]),
    ("verify-thm1.csv", ["verify-thm1", "--in", PAIR, "--seed", "1", "--format", "csv"]),
    ("angles.json", ["angles", "--in", PAIR]),
    ("angles.csv", ["angles", "--in", PAIR, "--format", "csv"]),
    ("dual.json", ["dual", "--in", PAIR]),
    ("reconstruct.json", ["reconstruct", "--in", PAIR]),
    ("verify-thm2.json", ["verify-thm2", "--in", RIESZ]),
    ("zak-demo.json",
     ["zak-demo", "--group", "cyclic:12", "--subgroup-gen", "3", "--signal", "random", "--seed", "5"]),
]


def _argv(argv, out=None):
    inputs = {PAIR, RIESZ}
    return [str(FIXTURES / a) if a in inputs else a for a in argv] + (["--out", str(out)] if out else [])


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_fixture(name, argv, tmp_path, capsys):
    # both routes out of the CLI: the --out file and stdout
    out = tmp_path / name
    assert cli.main(_argv(argv, out)) == 0
    assert out.read_bytes() == (FIXTURES / name).read_bytes()
    capsys.readouterr()
    assert cli.main(_argv(argv)) == 0
    assert capsys.readouterr().out.encode("utf-8") == (FIXTURES / name).read_bytes()


PAIR_CASES = [case for case in CASES if PAIR in case[1]]


@pytest.mark.parametrize("name,argv", PAIR_CASES, ids=[c[0] for c in PAIR_CASES])
def test_cli_output_matches_fixture_from_the_companion(name, argv, tmp_path, monkeypatch, capsys):
    # the same bytes, with a companion written by the codec itself
    pair = tmp_path / PAIR
    shutil.copyfile(FIXTURES / PAIR, pair)
    with open(pair, "r", encoding="utf-8") as fh:
        doc = serialize.read_pair(fh)
    with open(f"{pair}.npz", "wb") as fh:
        serialize._write_companion(fh, hashlib.sha256(pair.read_bytes()).digest(), doc)
    os.chmod(f"{pair}.npz", 0o644)  # the readers refuse a companion others may write

    def forbidden(fh):
        raise AssertionError("parsed the JSON")

    monkeypatch.setattr(cli, "read_pair", forbidden)
    argv = [str(pair) if a == PAIR else a for a in argv]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (FIXTURES / name).read_bytes()


def test_fixtures_stay_small():
    assert sum(p.stat().st_size for p in FIXTURES.iterdir()) < 100_000


def _write_riesz_instance(path):
    """Three atoms of two Riesz generators in C^4 with explicit 2-dim targets W."""
    from framekit.generate import fiber_pair
    from framekit.mispace import FiberedSystem, MeasureModel
    from framekit.serialize import dumps, pair_to_json
    from framekit.subspace import Subspace

    rng = np.random.default_rng(2)
    fibers, targets = [], []
    for _ in range(3):
        a, b, _ = fiber_pair(rng, 4, 2, 2, rng.uniform(0.5, 1.0, 2))
        fibers.append(a)
        targets.append(Subspace.span_of(b.matrix))
    measure = MeasureModel(("x0", "x1", "x2"), rng.uniform(0.5, 1.5, 3))
    path.write_text(dumps(pair_to_json(FiberedSystem(measure, tuple(fibers)), targets=targets)),
                    encoding="utf-8")


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    _write_riesz_instance(FIXTURES / RIESZ)
    for name, argv in CASES:
        if cli.main(_argv(argv, FIXTURES / name)) != 0:
            sys.exit(f"{name}: command failed")
        # gen writes a binary companion beside its --out file; fixtures are JSON only
        (FIXTURES / f"{name}.npz").unlink(missing_ok=True)
