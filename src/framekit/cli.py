"""Command-line front end.

Subcommands: gen, angles, dual, verify-thm1, verify-thm2, zak-demo,
reconstruct.  Every report embeds the tool version, the seed, and the
tolerances in effect, and is written through the deterministic JSON writer,
so a fixed seed reproduces output byte for byte.

Exit codes: 0 when the computation ran (a false verdict or an infeasible
construction is still a result), 1 for input or validation problems, 2 for
numerical failures inside a factorization.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .generate import FAMILIES, duality_instance
from .mispace import (
    DEFAULT_C_MAX,
    ConstructionError,
    alternate_dual_residuals,
    canonical_duals,
    global_frame_bounds,
    pinv_dual,
    reconstruct,
    verify_biorthogonality,
    verify_duality,
)
from .numkernel import DEFAULT_TOL, NumericalError, Tolerance
from .serialize import (
    biorth_report_to_json,
    diagnostics_to_csv,
    dumps,
    equivalence_report_to_json,
    fibered_system_to_json,
    pair_from_json,
    pair_to_json,
    plan_to_json,
    signal_to_json,
    vector_to_json,
)
from .subspace import DEFAULT_ANGLE_TOL, Subspace
from .zak import (
    build_plan,
    builtin_plan,
    cyclic_group,
    dihedral_group,
    tg_frame_bounds,
    tg_to_mg,
    verify_intertwine,
    zak_forward,
    zak_inverse,
)


# Largest group order zak-demo accepts: it builds dense order x order tables
# (O(order^2) memory) and factors the order x q translates matrix for the
# group-side frame bounds, O(order^3) time at q = order.
MAX_GROUP_ORDER = 1024


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _float_between(low: float, high: float, rule: str):
    """An argparse type: a float strictly between low and high (so finite)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


_UNIT = _float_between(0.0, 1.0, "strictly between 0 and 1")
_C_MAX = _float_between(0.0, np.inf, "finite and positive")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="framekit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"framekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol=True, angle=False, seed=False, fmt=False):
        p.add_argument("--out", help="output path (stdout when omitted)")
        if tol:
            p.add_argument("--tol", type=_UNIT, default=DEFAULT_TOL.eq_tol, help="equality tolerance")
        if angle:
            p.add_argument("--angle-tol", type=_UNIT, default=DEFAULT_ANGLE_TOL)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("gen", help="generate a seeded instance pair")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--atoms", type=int, default=4)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--gens", type=int, default=3)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=1e-6)
    add_common(p, tol=False, seed=True)

    p = sub.add_parser("angles", help="fiber and global cosine angles of a pair")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p, angle=True, fmt=True)

    p = sub.add_parser("dual", help="pseudo-inverse dual of a pair, fiber by fiber")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p)

    p = sub.add_parser("verify-thm1", help="duality equivalence report for a pair")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cmax", type=_C_MAX, default=DEFAULT_C_MAX)
    add_common(p, angle=True, seed=True, fmt=True)

    p = sub.add_parser("verify-thm2", help="biorthogonal dual report for a Riesz family")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p, angle=True, seed=True)

    p = sub.add_parser("zak-demo", help="Zak transform demo on a built-in or custom plan")
    p.add_argument("--group", default="z4", help="z4, z12, d4, cyclic:N, dihedral:N")
    p.add_argument("--subgroup-gen", dest="subgroup_gen", type=int, default=None)
    p.add_argument("--signal", default="delta0", help="deltaK, ones, or random")
    add_common(p, tol=False, seed=True)

    p = sub.add_parser("reconstruct", help="reconstruct the embedded probe function")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p)
    return parser


def _tolerance(ns) -> Tolerance:
    return Tolerance(eq_tol=getattr(ns, "tol", DEFAULT_TOL.eq_tol))


def _tol_doc(ns, angle=False, cmax=False) -> dict:
    tol = _tolerance(ns)
    doc = {"rel_rank_tol": tol.rel_rank_tol, "eq_tol": tol.eq_tol}
    if angle:
        doc["angle_tol"] = ns.angle_tol
    if cmax:
        doc["c_max"] = ns.cmax
    return doc


def _envelope(ns, result, seed=None, angle=False, cmax=False) -> str:
    return dumps(
        {
            "tool": "framekit",
            "version": __version__,
            "command": ns.command,
            "seed": seed,
            "tolerances": _tol_doc(ns, angle=angle, cmax=cmax),
            "result": result,
        }
    )


def _read_pair(ns):
    with open(ns.infile, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{ns.infile}: invalid JSON ({exc})") from None
    return pair_from_json(doc)


def _need_b(pair):
    if pair.sb is None:
        raise ValueError("instance has no system B on its atoms")
    return pair.sb


def _cmd_gen(ns):
    inst = duality_instance(
        ns.family, ns.atoms, ns.dim, ns.gens, seed=ns.seed, delta=ns.delta, eps=ns.eps
    )
    meta = dict(inst.meta)
    meta.update({"tool": "framekit", "version": __version__, "command": "gen"})
    doc = pair_to_json(inst.sa, inst.sb, probe=inst.probe, meta=meta)
    return dumps(doc)


def _cmd_angles(ns):
    pair = _read_pair(ns)
    sb = _need_b(pair)
    tol = _tolerance(ns)
    report = verify_duality(pair.sa, sb, tol=tol, angle_tol=ns.angle_tol)
    if ns.format == "csv":
        return diagnostics_to_csv(report)
    result = {
        "angles_global": [report.angles_global[0], report.angles_global[1]],
        "global_angles_positive": report.global_angles_positive,
        "fiber_angles_positive": report.fiber_angles_positive,
        "per_atom": [
            {
                "atom": d.atom,
                "dim_ja": d.dim_ja,
                "dim_jb": d.dim_jb,
                "r_ab": d.r_ab,
                "r_ba": d.r_ba,
            }
            for d in report.diagnostics
        ],
    }
    return _envelope(ns, result, angle=True)


def _cmd_dual(ns):
    pair = _read_pair(ns)
    sb = _need_b(pair)
    tol = _tolerance(ns)
    try:
        dual = pinv_dual(pair.sa, sb, tol)
    except ConstructionError as exc:
        return _envelope(ns, {"feasible": False, "reason": str(exc)})
    a, h = pair.sa.padded(dual.count).matrices, dual.matrices
    resid_fwd, ok_fwd = alternate_dual_residuals(a, h, tol)
    resid_bwd, ok_bwd = alternate_dual_residuals(h, a, tol)
    result = {
        "feasible": True,
        "is_alternate_dual_forward": bool(ok_fwd.all()),
        "is_alternate_dual_backward": bool(ok_bwd.all()),
        "max_residual_forward": float(resid_fwd.max()),
        "max_residual_backward": float(resid_bwd.max()),
        "dual": fibered_system_to_json(dual),
    }
    return _envelope(ns, result)


def _cmd_verify_thm1(ns):
    pair = _read_pair(ns)
    sb = _need_b(pair)
    tol = _tolerance(ns)
    report = verify_duality(
        pair.sa, sb, tol=tol, angle_tol=ns.angle_tol, c_max=ns.cmax, probe_seed=ns.seed
    )
    if ns.format == "csv":
        return diagnostics_to_csv(report)
    return _envelope(
        ns, equivalence_report_to_json(report), seed=ns.seed, angle=True, cmax=True
    )


def _cmd_verify_thm2(ns):
    pair = _read_pair(ns)
    tol = _tolerance(ns)
    if pair.targets is not None:
        targets = pair.targets
    elif pair.sb is not None:
        targets = [Subspace.span_of(m, tol) for m in pair.sb.matrices]
    else:
        raise ValueError("instance needs target subspaces W or a system B to span them")
    for atom, t in zip(pair.measure.atoms, targets):
        if t.dim != pair.sa.count:
            reason = (
                f"atom {atom!r}: target subspace has dimension {t.dim}, "
                f"expected {pair.sa.count}"
            )
            return _envelope(
                ns,
                {"holds": False, "precondition_failure": reason},
                seed=ns.seed,
                angle=True,
            )
    try:
        report = verify_biorthogonality(
            pair.sa, targets, tol=tol, angle_tol=ns.angle_tol, probe_seed=ns.seed
        )
    except ConstructionError as exc:
        return _envelope(
            ns,
            {"holds": False, "precondition_failure": str(exc)},
            seed=ns.seed,
            angle=True,
        )
    return _envelope(ns, biorth_report_to_json(report), seed=ns.seed, angle=True)


def _resolve_plan(group: str, subgroup_gen):
    key = group.strip().lower()
    builtin_gens = {"z4": 2, "z12": 3, "d4": 1}
    if key in builtin_gens:
        if subgroup_gen is None:
            return builtin_plan(key)
        base = {"z4": cyclic_group(4), "z12": cyclic_group(12), "d4": dihedral_group(4)}[key]
        return build_plan(base, subgroup_gen)
    if ":" in key:
        kind, _, arg = key.partition(":")
        try:
            n = int(arg)
        except ValueError:
            raise ValueError(f"bad group size in {group!r}") from None
        order = {"cyclic": n, "dihedral": 2 * n}.get(kind)
        if order is None:
            raise ValueError(f"unknown group kind {kind!r}")
        if order > MAX_GROUP_ORDER:
            raise ValueError(f"group order {order} exceeds the limit {MAX_GROUP_ORDER}")
        g = cyclic_group(n) if kind == "cyclic" else dihedral_group(n)
        if subgroup_gen is None:
            raise ValueError("custom groups need --subgroup-gen")
        return build_plan(g, subgroup_gen)
    raise ValueError(f"unknown group {group!r} (use z4, z12, d4, cyclic:N, dihedral:N)")


def _resolve_signal(plan, spec: str, seed: int) -> np.ndarray:
    n = plan.group.order
    s = spec.strip().lower()
    if s == "ones":
        return np.ones(n, dtype=np.complex128)
    if s == "random":
        rng = np.random.default_rng(seed)
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    if s.startswith("delta"):
        try:
            k = int(s[5:] or "0")
        except ValueError:
            raise ValueError(f"bad signal spec {spec!r}") from None
        if not 0 <= k < n:
            raise ValueError(f"delta position {k} out of range for order {n}")
        f = np.zeros(n, dtype=np.complex128)
        f[k] = 1.0
        return f
    raise ValueError(f"unknown signal {spec!r} (use deltaK, ones, random)")


def _cmd_zak_demo(ns):
    plan = _resolve_plan(ns.group, ns.subgroup_gen)
    f = _resolve_signal(plan, ns.signal, ns.seed)
    zf = zak_forward(plan, f)
    back = zak_inverse(plan, zf)
    intertwine = verify_intertwine(plan, f)
    measure = plan.measure()
    system = tg_to_mg(plan, [f]) if np.abs(f).max() > 0 else None
    result = {
        "plan": plan_to_json(plan),
        "signal": signal_to_json(f),
        "zak": {
            "atoms": [
                {
                    "id": measure.atoms[k],
                    "weight": float(measure.weights[k]),
                    "values": vector_to_json(zf.values[k]),
                }
                for k in range(plan.q)
            ]
        },
        "norm_signal": float(np.linalg.norm(f)),
        "norm_zak": zf.norm(),
        "unitarity_residual": abs(zf.norm() - float(np.linalg.norm(f))),
        "roundtrip_residual": float(np.abs(back - f).max()),
        "intertwine_max_residual": float(intertwine),
    }
    if system is not None:
        direct = tg_frame_bounds(plan, [f])
        fibered = global_frame_bounds(system)
        result["tg_frame_bounds"] = [direct[0], direct[1]]
        result["fiber_frame_bounds"] = [fibered[0], fibered[1]]
        result["bounds_agreement"] = max(
            abs(direct[0] - fibered[0]), abs(direct[1] - fibered[1])
        )
    return _envelope(ns, result, seed=ns.seed)


def _cmd_reconstruct(ns):
    pair = _read_pair(ns)
    tol = _tolerance(ns)
    if pair.probe is None:
        raise ValueError("instance has no probe function f on its atoms")
    if pair.sb is not None:
        try:
            dual = pinv_dual(pair.sa, pair.sb, tol)
        except ConstructionError as exc:
            return _envelope(ns, {"ok": False, "reason": str(exc)})
        source = "pseudo-inverse dual through B"
    else:
        dual = canonical_duals(pair.sa, tol)
        source = "canonical dual"
    fhat, resid = reconstruct(pair.sa, dual, pair.probe)
    per_atom = []
    for k, atom in enumerate(pair.measure.atoms):
        diff = float(np.linalg.norm(fhat.values[k] - pair.probe.values[k]))
        per_atom.append({"atom": atom, "abs_residual": diff})
    result = {
        "ok": True,
        "dual_source": source,
        "rel_residual": float(resid),
        "norm_f": pair.probe.norm(),
        "per_atom": per_atom,
    }
    return _envelope(ns, result)


_DISPATCH = {
    "gen": _cmd_gen,
    "angles": _cmd_angles,
    "dual": _cmd_dual,
    "verify-thm1": _cmd_verify_thm1,
    "verify-thm2": _cmd_verify_thm2,
    "zak-demo": _cmd_zak_demo,
    "reconstruct": _cmd_reconstruct,
}


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(f"framekit: {exc}", file=sys.stderr)
        return 1
    try:
        text = _DISPATCH[ns.command](ns)
        _emit(text, ns.out)
        return 0
    except NumericalError as exc:
        print(f"framekit: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConstructionError, OSError) as exc:
        print(f"framekit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
