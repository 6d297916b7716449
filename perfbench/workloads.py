"""The three benchmark workloads: inputs from the seed, the op list, output checks.

Each op is a public call into framekit (``framekit.cli.main(argv)`` or a
library function, always looked up on its module at call time so that the
tracer's wrappers are seen) plus a check that runs after the timed call.  A
check returns ``(digest, problems, info)``: the sha256 of the op's output,
the list of ways the output disagrees with what the generator planted (empty
when it is correct), and extra measurements such as the minimum-cosine error.

Sizes come in two sets: ``FULL`` for measurement and ``SMOKE`` for the quick
harness check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Callable

import numpy as np

# Relative tolerance for the near-threshold minimum cosine against the planted
# meta.min_cosine.  At (1000, 8, 6) the error reaches ~4e-10 over many seeds,
# so 1e-12, the accuracy the angle code aims for, would fail today.
MIN_COS_RTOL = 1e-8
# Residual tolerances, relative to the scale of the quantity they compare.
RESIDUAL_RTOL = 1e-8
ZAK_RTOL = 1e-9

FULL = {
    "pipeline": {"atoms": 1000, "dim": 8, "gens": 6},
    "fibers": {
        "in-duality": (4000, 4, 3),
        "orthogonal-failure": (4000, 4, 3),
        "near-threshold": (1000, 8, 6),
        "riesz": (500, 12, 8),
    },
    "zak": {
        "demos": (("cyclic:256", 16), ("dihedral:128", 1), ("cyclic:128", 8)),
        # explicit table: dihedral group of order 2*8 times the cyclic group of order 8
        "product": (8, 8),
    },
}

SMOKE = {
    "pipeline": {"atoms": 20, "dim": 4, "gens": 3},
    "fibers": {
        "in-duality": (60, 4, 3),
        "orthogonal-failure": (60, 4, 3),
        "near-threshold": (30, 8, 6),
        "riesz": (20, 12, 8),
    },
    "zak": {
        "demos": (("cyclic:32", 4), ("dihedral:16", 1), ("cyclic:16", 4)),
        "product": (4, 4),
    },
}


@dataclasses.dataclass
class Op:
    name: str  # shown in the per-op detail
    metric: str  # per-op metric the time is added to
    call: Callable[[], object]
    check: Callable[[object], tuple[str, list[str], dict]]


# ---------------------------------------------------------------------------
# Digests


def _feed(h, obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{%d" % len(obj))
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for value in obj:
            _feed(h, value)
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif obj is None or isinstance(obj, (bool, int, str, np.generic)):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest_of(obj) -> str:
    """sha256 of a library result: dataclasses, arrays and scalars, bit for bit."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _file_digest(path: str) -> tuple[str, bytes]:
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), data


def _cli_output(rc, path: str) -> tuple[str, dict | None, list[str]]:
    """Digest and parsed result of a CLI op that wrote its report to path."""
    if rc != 0:
        return "", None, [f"exit code {rc}"]
    digest, data = _file_digest(path)
    return digest, json.loads(data), []


def _require(problems: list[str], ok: bool, what: str):
    if not ok:
        problems.append(what)


def _rel_err(value: float, planted: float) -> float:
    return abs(value - planted) / abs(planted)


# ---------------------------------------------------------------------------
# pipeline: gen -> verify-thm1 / angles / dual / reconstruct through the CLI


class Pipeline:
    def __init__(self, fk, seed: int, sizes: dict, workdir: str):
        self.fk = fk
        self.inst = os.path.join(workdir, "instance.json")
        self.planted_min_cos = None
        s = sizes["pipeline"]
        gen_argv = [
            "gen", "--family", "in-duality", "--atoms", str(s["atoms"]), "--dim", str(s["dim"]),
            "--gens", str(s["gens"]), "--seed", str(seed), "--out", self.inst,
        ]
        out = {c: os.path.join(workdir, f"{c}.json") for c in ("verify-thm1", "angles", "dual", "reconstruct")}
        self.ops = [
            self._cli_op("gen", gen_argv, self.inst, self._check_gen),
            self._cli_op("verify-thm1", ["verify-thm1", "--in", self.inst, "--seed", "1", "--out", out["verify-thm1"]],
                         out["verify-thm1"], self._check_verify),
            self._cli_op("angles", ["angles", "--in", self.inst, "--out", out["angles"]], out["angles"],
                         self._check_angles),
            self._cli_op("dual", ["dual", "--in", self.inst, "--out", out["dual"]], out["dual"], self._check_dual),
            self._cli_op("reconstruct", ["reconstruct", "--in", self.inst, "--out", out["reconstruct"]],
                         out["reconstruct"], self._check_reconstruct),
        ]

    def _cli_op(self, command, argv, out_path, check_doc) -> Op:
        def check(rc):
            digest, doc, problems = _cli_output(rc, out_path)
            info = {}
            if doc is not None:
                info = check_doc(doc, problems) or {}
            return digest, problems, info

        return Op(command, f"cli.{command}_s", lambda: self.fk.cli.main(argv), check)

    def _check_gen(self, doc, problems):
        meta = doc.get("meta", {})
        _require(problems, meta.get("family") == "in-duality", "gen: wrong family in meta")
        _require(problems, len(doc.get("atoms", [])) == meta.get("n_atoms"), "gen: atom count differs from meta")
        self.planted_min_cos = meta.get("min_cosine")

    def _check_verify(self, doc, problems):
        r = doc["result"]
        _require(problems, r["all_hold"] is True, "verify-thm1: all_hold is not true on in-duality")
        _require(problems, r["witness_status"] == "verified", f"verify-thm1: witness_status {r['witness_status']!r}")
        if self.planted_min_cos:
            return {"min_cos_rel_err": _rel_err(min(r["angles_global"]), self.planted_min_cos)}
        return None

    def _check_angles(self, doc, problems):
        r = doc["result"]
        _require(problems, r["global_angles_positive"] and r["fiber_angles_positive"],
                 "angles: angles not positive on in-duality")

    def _check_dual(self, doc, problems):
        r = doc["result"]
        _require(problems, r["feasible"] is True, "dual: not feasible")
        _require(problems, r.get("is_alternate_dual_forward") is True and r.get("is_alternate_dual_backward") is True,
                 "dual: not an alternate dual in both directions")

    def _check_reconstruct(self, doc, problems):
        r = doc["result"]
        _require(problems, r["ok"] is True, "reconstruct: not ok")
        _require(problems, r.get("rel_residual", 1.0) <= RESIDUAL_RTOL,
                 f"reconstruct: rel_residual {r.get('rel_residual')!r} above {RESIDUAL_RTOL}")


# ---------------------------------------------------------------------------
# fibers: the fiber engine through the library, on inputs built at set-up


def _sub_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def riesz_family(fk, rng, n_atoms: int, dim: int, count: int):
    """A Riesz family (count <= dim generators per atom) and count-dimensional
    targets whose principal cosines against each fiber span lie in [0.5, 1]."""
    gen = fk.generate
    fibers, targets = [], []
    for _ in range(n_atoms):
        v, w, _ = gen.rotated_span_pair(rng, dim, count, rng.uniform(0.5, 1.0, count))
        fibers.append(fk.fiberframe.FiberSystem(v @ gen.well_conditioned_coefficients(rng, count, count)))
        targets.append(fk.subspace.Subspace(w))
    measure = fk.mispace.MeasureModel(tuple(f"x{i}" for i in range(n_atoms)), rng.uniform(0.5, 1.5, n_atoms))
    return fk.mispace.FiberedSystem(measure, tuple(fibers)), targets


class Fibers:
    def __init__(self, fk, seed: int, sizes: dict, workdir: str):
        self.fk = fk
        s = sizes["fibers"]
        self.inst = {}
        for k, family in enumerate(("in-duality", "orthogonal-failure", "near-threshold")):
            atoms, dim, gens = s[family]
            self.inst[family] = fk.generate.duality_instance(family, atoms, dim, gens, seed=_sub_seed(seed, k), eps=1e-6)
        self.riesz, self.targets = riesz_family(fk, np.random.default_rng(_sub_seed(seed, 3)), *s["riesz"])
        self.ops = [self._duality_op(family) for family in self.inst] + [
            Op("verify_biorthogonality", "mispace.verify_biorthogonality_s",
               lambda: self.fk.mispace.verify_biorthogonality(self.riesz, self.targets), self._check_biorth)
        ]

    def _duality_op(self, family: str) -> Op:
        inst = self.inst[family]

        def check(report):
            problems: list[str] = []
            info = {}
            verdicts = (report.global_duals_exist, report.global_angles_positive,
                        report.fiber_duals_exist, report.fiber_angles_positive)
            if family == "in-duality":
                _require(problems, report.all_hold, "in-duality: all_hold is false")
                _require(problems, report.witness_status == "verified",
                         f"in-duality: witness_status {report.witness_status!r}")
            elif family == "orthogonal-failure":
                _require(problems, not any(verdicts), f"orthogonal-failure: verdicts {verdicts}, expected all false")
            else:
                err = _rel_err(min(report.angles_global), inst.meta["min_cosine"])
                info["min_cos_rel_err"] = err
                _require(problems, err <= MIN_COS_RTOL,
                         f"near-threshold: min cosine relative error {err:.3e} above {MIN_COS_RTOL}")
            return digest_of(report), problems, info

        return Op(f"verify_duality {family}", f"mispace.verify_duality.{family}_s",
                  lambda: self.fk.mispace.verify_duality(inst.sa, inst.sb), check)

    def _check_biorth(self, report):
        problems: list[str] = []
        _require(problems, report.holds, f"verify_biorthogonality: holds is false ({report.failed_atoms[:3]})")
        return digest_of(report), problems, {}


# ---------------------------------------------------------------------------
# zak: zak-demo through the CLI, plus an explicit product-group table


def product_group_table(rng, m: int, c: int) -> tuple[np.ndarray, int, int]:
    """Multiplication table of D_m x Z_c (order 2*m*c) with the non-identity
    elements relabelled by a seeded permutation.  Returns the table, the label
    of the element (r, 1) used as subgroup generator, and that element's order."""
    dih = np.arange(2 * m)
    a, b = dih % m, dih // m
    # (r^a1 s^b1)(r^a2 s^b2) = r^(a1 + (-1)^b1 a2) s^(b1 + b2)
    dmul = (a[:, None] + np.where(b[:, None] == 0, 1, -1) * a[None, :]) % m + m * ((b[:, None] + b[None, :]) % 2)
    cyc = np.arange(c)
    cmul = (cyc[:, None] + cyc[None, :]) % c
    n = 2 * m * c
    x = np.arange(n)
    xd, xc = x // c, x % c
    mul = dmul[xd[:, None], xd[None, :]] * c + cmul[xc[:, None], xc[None, :]]
    label = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    table = np.empty_like(mul)
    table[label[:, None], label[None, :]] = label[mul]
    generator = 1 * c + 1  # (r, 1)
    return table, int(label[generator]), int(np.lcm(m, c))


class Zak:
    def __init__(self, fk, seed: int, sizes: dict, workdir: str):
        self.fk = fk
        s = sizes["zak"]
        self.ops = []
        for k, (group, gen) in enumerate(s["demos"]):
            out = os.path.join(workdir, f"zak-demo-{k}.json")
            argv = ["zak-demo", "--group", group, "--subgroup-gen", str(gen), "--signal", "random",
                    "--seed", str(seed), "--out", out]
            self.ops.append(Op(f"zak-demo {group}", "cli.zak-demo_s", self._main(argv), self._demo_check(out)))
        rng = np.random.default_rng(_sub_seed(seed, 0))
        self.table, self.generator, self.q = product_group_table(rng, *s["product"])
        n = self.table.shape[0]
        self.signal = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        self.ops.append(Op("explicit_group", "zak.explicit_group_s", self._explicit, self._check_explicit))

    def _main(self, argv):
        return lambda: self.fk.cli.main(argv)

    def _demo_check(self, path):
        def check(rc):
            digest, doc, problems = _cli_output(rc, path)
            if doc is not None:
                r = doc["result"]
                scale = r["norm_signal"]
                for key in ("unitarity_residual", "roundtrip_residual", "intertwine_max_residual"):
                    _require(problems, r[key] <= ZAK_RTOL * scale, f"zak-demo: {key} {r[key]:.3e} too large")
                agreement = r.get("bounds_agreement")
                _require(problems, agreement is not None and agreement <= ZAK_RTOL * r["tg_frame_bounds"][1],
                         f"zak-demo: bounds_agreement {agreement!r} too large")
            return digest, problems, {}

        return check

    def _explicit(self):
        zak = self.fk.zak
        group = zak.explicit_group(self.table)
        plan = zak.build_plan(group, self.generator)
        zf = zak.zak_forward(plan, self.signal)
        back = zak.zak_inverse(plan, zf)
        system = zak.tg_to_mg(plan, [self.signal])
        return plan, zf, back, system

    def _check_explicit(self, result):
        plan, zf, back, system = result
        problems: list[str] = []
        norm = float(np.sqrt(np.sum(np.abs(self.signal) ** 2)))
        n = self.table.shape[0]
        _require(problems, (plan.q, plan.p) == (self.q, n // self.q), f"explicit: plan shape {(plan.q, plan.p)}")
        _require(problems, np.abs(back - self.signal).max() <= ZAK_RTOL * norm, "explicit: round trip residual")
        weighted = float(np.sqrt(np.sum(zf.measure.weights[:, None] * np.abs(zf.values) ** 2)))
        _require(problems, abs(weighted - norm) <= ZAK_RTOL * norm, "explicit: transform is not unitary")
        _require(problems, all(np.array_equal(f.matrix[:, 0], zf.values[k]) for k, f in enumerate(system.fibers)),
                 "explicit: tg_to_mg fibers differ from the Zak images")
        digest = digest_of((plan.powers, plan.section, zf.values, back, [f.matrix for f in system.fibers]))
        return digest, problems, {}


WORKLOADS = {"pipeline": Pipeline, "fibers": Fibers, "zak": Zak}
