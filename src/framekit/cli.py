"""Command-line front end.

Subcommands: gen, angles, dual, verify-thm1, verify-thm2, zak-demo,
reconstruct.  Every report embeds the tool version, the seed, and the
tolerances in effect, and is written through the deterministic JSON writer,
so a fixed command line reproduces output byte for byte, on stdout as in
--out and in any locale: JSON reports are ASCII, CSV reports UTF-8.  Only
gen and zak-demo's random signal draw from the seed; verify-thm1 accepts
--seed and echoes it, but its checks draw nothing.  gen writing to a
regular file also writes the instance's binary companion beside it, which
the commands that take --in load instead of parsing the JSON while its
recorded sha256 matches (see _write_instance and _companion_pair).

Exit codes: 0 when the computation ran (a false verdict or an infeasible
construction is still a result), 1 for input or validation problems, 2 for
numerical failures inside a factorization.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import os
import shutil
import stat
import sys
import tempfile
import types
from contextlib import nullcontext, suppress

import numpy as np

from . import __version__
from .generate import FAMILIES, duality_instance
from .mispace import (
    ConstructionError,
    _fiber_pass,
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
    _read_companion,
    _write_companion,
    biorth_report_to_json,
    diagnostics_to_csv,
    dump,
    equivalence_report_to_json,
    pair_to_json,
    plan_to_json,
    read_pair,
    table_rows,
    vector_to_json,
)
from .zak import (
    plan_from_spec,
    tg_frame_bounds,
    tg_to_mg,
    verify_intertwine,
    zak_forward,
    zak_inverse,
)


# Largest atoms * dim * max(dim, gens) gen accepts: it holds the instance's
# (atoms, dim, gens) stacks, and draws the dim x dim unitaries and
# min(dim, gens) x gens coefficient blocks for one block of
# generate._GEN_BLOCK atoms at a time, so the draws' memory is per block,
# not per atom.  Ten times the (1e5, 8, 6) instance.  dual caps
# atoms * gens * max(dim, gens) by it too: it holds gens x gens Gramians on
# every atom at once.
MAX_GEN_SIZE = 64_000_000

# Mode bits a binary companion may not have: gen clears them, and a reader
# parses the JSON instead of trusting a companion that others may rewrite.
_SHARED_WRITE = stat.S_IWGRP | stat.S_IWOTH


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _tol_field(name: str):
    """An argparse type for the Tolerance field name: a float that Tolerance
    accepts there, so its rule is the one Tolerance.__post_init__ states."""

    def parse(text: str) -> float:
        try:
            return getattr(Tolerance(**{name: float(text)}), name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="framekit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"framekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol=False, angle=False, seed=False, fmt=False):
        p.add_argument("--out", help="output path (stdout when omitted)")
        if tol:
            p.add_argument("--tol", dest="eq_tol", type=_tol_field("eq_tol"), default=DEFAULT_TOL.eq_tol,
                           help="equality tolerance")
        if angle:
            p.add_argument("--angle-tol", type=_tol_field("angle_tol"), default=DEFAULT_TOL.angle_tol)
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
    add_common(p, seed=True)

    p = sub.add_parser("angles", help="fiber and global cosine angles of a pair")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p, tol=True, angle=True, fmt=True)

    p = sub.add_parser("dual", help="pseudo-inverse dual of a pair, fiber by fiber")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p, tol=True)

    # the checker draws nothing at random; --seed stays for old command lines
    p = sub.add_parser("verify-thm1", help="duality equivalence report for a pair")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cmax", dest="c_max", type=_tol_field("c_max"), default=DEFAULT_TOL.c_max)
    p.add_argument("--seed", type=int, default=0, help="echoed in the report; it does not change the result")
    add_common(p, tol=True, angle=True, fmt=True)

    p = sub.add_parser("verify-thm2", help="biorthogonal dual report for a Riesz family")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p, angle=True)

    p = sub.add_parser("zak-demo", help="Zak transform demo on a built-in or custom plan")
    p.add_argument("--group", default="z4", help="z4, z12, d4, cyclic:N, dihedral:N")
    p.add_argument("--subgroup-gen", dest="subgroup_gen", type=int, default=None)
    p.add_argument("--signal", default="delta0", help="deltaK, ones, or random")
    add_common(p, seed=True)

    p = sub.add_parser("reconstruct", help="reconstruct the embedded probe function")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p)
    return parser


def _tolerance(ns) -> Tolerance:
    """The command's one Tolerance: each flag sets the field it is named for."""
    names = ("eq_tol", "angle_tol", "c_max")
    return Tolerance(**{name: getattr(ns, name) for name in names if hasattr(ns, name)})


def _tol_doc(ns) -> dict:
    # commands without --tol echo the default eq_tol, which they do not read
    tol = dataclasses.asdict(_tolerance(ns))
    return {k: v for k, v in tol.items() if k in ("rel_rank_tol", "eq_tol") or hasattr(ns, k)}


def _envelope(ns, result) -> dict:
    return {
        "tool": "framekit",
        "version": __version__,
        "command": ns.command,
        "seed": getattr(ns, "seed", None),
        "tolerances": _tol_doc(ns),
        "result": result,
    }


def _sha256(fh) -> bytes:
    """sha256 digest of the binary file fh from its start, read 1 MiB at a
    time into one buffer."""
    # imported here: hashlib loads OpenSSL, about 3.6 MB of resident memory
    # that a command reading no companion and writing none does not need
    import hashlib

    fh.seek(0)
    digest, buf = hashlib.sha256(), bytearray(1 << 20)
    view = memoryview(buf)
    while size := fh.readinto(buf):
        digest.update(view[:size])
    return digest.digest()


def _write_instance(pair, fh):
    """Write gen's instance pair to the binary file fh as pair_to_json lays
    it out, and return its binary companion as (suffix, write, drop) for
    _emit's place.

    The sha256 the companion records is taken of the bytes as they are
    written.  _emit writes the companion (serialize._write_companion) only
    once the instance is in place as a regular file, to the instance's path
    + ".npz", with its mode bits less group and other write.  The document
    is dropped by then, so the two are never held at once.  Written to
    stdout, the instance gets no companion and its digest goes unused.
    """
    import hashlib  # see _sha256

    digest = hashlib.sha256()
    _write_report(pair_to_json(pair.sa, pair.sb, pair.targets, pair.probe, pair.meta), fh, digest)
    return ".npz", functools.partial(_write_companion, sha256=digest.digest(), pair=pair), _SHARED_WRITE


def _companion_pair(path: str, fh):
    """The instance in the binary companion of the instance file path, open
    as the binary file fh, or None; fh is left at its start.

    The companion is realpath(path) + ".npz", written by gen beside its
    --out file.  It is read only when it is a regular file (not a link, a
    directory, a FIFO or a device) with fh's owner that neither group nor
    others may write, and serialize._read_companion takes it for fh's bytes.
    """
    own = os.fstat(fh.fileno())
    if not stat.S_ISREG(own.st_mode):
        return None
    companion = os.path.realpath(path) + ".npz"
    try:
        seen = os.lstat(companion)
        if not stat.S_ISREG(seen.st_mode):
            return None
        with open(companion, "rb") as cfh:
            found = os.fstat(cfh.fileno())
            if (
                not os.path.samestat(found, seen)
                or found.st_uid != own.st_uid
                or found.st_mode & _SHARED_WRITE
            ):
                return None
            return _read_companion(cfh, _sha256(fh), 4 * own.st_size)
    except OSError:
        return None
    finally:
        fh.seek(0)


def _read_pair(ns):
    with open(ns.infile, "rb") as raw:
        pair = _companion_pair(ns.infile, raw)
        if pair is not None:
            return pair
        with io.TextIOWrapper(raw, encoding="utf-8") as fh:
            try:
                return read_pair(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{ns.infile}: invalid JSON ({exc})") from None
            except RecursionError:
                raise ValueError(f"{ns.infile}: invalid JSON (nested too deeply)") from None


def _need_b(pair):
    if pair.sb is None:
        raise ValueError("instance has no system B on its atoms")
    return pair.sb


def _cmd_gen(ns):
    size = ns.atoms * ns.dim * max(ns.dim, ns.gens)
    if size > MAX_GEN_SIZE:
        raise ValueError(
            f"--atoms * --dim * max(--dim, --gens) = {size} exceeds the limit {MAX_GEN_SIZE}"
        )
    inst = duality_instance(
        ns.family, ns.atoms, ns.dim, ns.gens, seed=ns.seed, delta=ns.delta, eps=ns.eps
    )
    meta = {**inst.meta, "tool": "framekit", "version": __version__, "command": "gen"}
    return functools.partial(_write_instance, dataclasses.replace(inst, meta=meta))


def _cmd_angles(ns):
    pair = _read_pair(ns)
    # verify_duality's factor pass alone: no witness is built or certified
    fields, _ = _fiber_pass(pair.sa, _need_b(pair), _tolerance(ns))
    if ns.format == "csv":
        return diagnostics_to_csv(fields["diagnostics"])
    result = {
        "angles_global": list(fields["angles_global"]),
        "global_angles_positive": fields["global_angles_positive"],
        "fiber_angles_positive": fields["fiber_angles_positive"],
        "per_atom": table_rows(fields["diagnostics"], ("atom", "dim_ja", "dim_jb", "r_ab", "r_ba")),
    }
    return _envelope(ns, result)


def _cmd_dual(ns):
    pair = _read_pair(ns)
    sb = _need_b(pair)
    tol = _tolerance(ns)
    r, d = max(pair.sa.count, sb.count), pair.sa.fiber_dim
    size = pair.measure.count * r * max(d, r)
    if size > MAX_GEN_SIZE:
        raise ValueError(f"atoms * gens * max(dim, gens) = {size} exceeds the limit {MAX_GEN_SIZE}")
    try:
        dual = pinv_dual(pair.sa, sb)
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
        "dual": pair_to_json(dual),
    }
    return _envelope(ns, result)


def _cmd_verify_thm1(ns):
    if ns.format == "csv":
        # the diagnostics are the factor pass's alone: no witness is built
        return _cmd_angles(ns)
    pair = _read_pair(ns)
    report = verify_duality(pair.sa, _need_b(pair), _tolerance(ns))
    return _envelope(ns, equivalence_report_to_json(report))


def _cmd_verify_thm2(ns):
    """Theorem 2 against the instance's W, or else against span(B), which
    the engine cuts from one SVD of B's stack; a failed hypothesis of
    verify_biorthogonality is reported as precondition_failure."""
    pair = _read_pair(ns)
    targets = pair.targets if pair.targets is not None else pair.sb
    if targets is None:
        raise ValueError("instance needs target subspaces W or a system B to span them")
    try:
        report = verify_biorthogonality(pair.sa, targets, _tolerance(ns))
    except ConstructionError as exc:
        return _envelope(ns, {"holds": False, "precondition_failure": str(exc)})
    return _envelope(ns, biorth_report_to_json(report))


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
    plan = plan_from_spec(ns.group, ns.subgroup_gen)
    f = _resolve_signal(plan, ns.signal, ns.seed)
    zf = zak_forward(plan, f)
    back = zak_inverse(plan, zf)
    intertwine = verify_intertwine(plan, f)
    system = tg_to_mg(plan, [f]) if np.abs(f).max() > 0 else None
    atoms = {"id": plan.measure.atoms, "weight": plan.measure.weights, "values": zf.values}
    result = {
        "plan": plan_to_json(plan),
        "signal": vector_to_json(f),
        "zak": {"atoms": table_rows(atoms)},
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
    return _envelope(ns, result)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of the complex (atoms, d) array x, bit for bit
    np.linalg.norm of the row: sqrt(re . re + im . im), each dot a batched
    matmul.  A norm along an axis of the stack rounds differently."""
    re, im = x.real, x.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def _cmd_reconstruct(ns):
    pair = _read_pair(ns)
    if pair.probe is None:
        raise ValueError("instance has no probe function f on its atoms")
    if pair.sb is not None:
        try:
            dual = pinv_dual(pair.sa, pair.sb)
        except ConstructionError as exc:
            return _envelope(ns, {"ok": False, "reason": str(exc)})
        source = "pseudo-inverse dual through B"
    else:
        dual = canonical_duals(pair.sa)
        source = "canonical dual"
    fhat, resid = reconstruct(pair.sa, dual, pair.probe)
    residuals = _row_norms(fhat.values - pair.probe.values)
    result = {
        "ok": True,
        "dual_source": source,
        "rel_residual": float(resid),
        "norm_f": pair.probe.norm(),
        "per_atom": table_rows({"atom": pair.measure.atoms, "abs_residual": residuals}),
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


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_report(report, fh, digest=None):
    """Write report, CSV text or a document for dump, to the binary file fh
    as UTF-8, piece by piece, leaving fh open; digest, when given, is fed
    the same bytes."""

    def write(text):
        data = text.encode("utf-8")
        if digest is not None:
            digest.update(data)
        fh.write(data)

    if isinstance(report, str):
        write(report)
    else:
        dump(report, types.SimpleNamespace(write=write))


def _emit(report, out_path: str | None):
    """Write a report to out_path or stdout, all or nothing: one the writer
    rejects writes nothing and leaves out_path as it was, or absent.

    report is a JSON document, CSV text, or a writer: a callable that writes
    the report to the binary file it is given and returns None or the
    (suffix, write, drop) of one file to go with it (gen's instance, see
    _write_instance).

    The report is written once, through a write-only handle, to a temporary
    file.  When out_path is a regular file, or absent, the temporary file is
    made next to it, given the mode bits open(out_path, "w") would leave (the
    file's own, or the default under the umask) and moved over it.  Stdout's
    buffer, or an out_path that is a device or a pipe, gets the bytes copied.
    Only a report moved into place gets the file its writer returned:
    place(suffix, write, drop) writes it with write(fh) to the report's path
    + suffix the same way, under the report's mode bits less drop.  A file
    that cannot be written there is left out.
    """
    writer = report if callable(report) else functools.partial(_write_report, report)
    del report
    target, mode = None, None
    if out_path:
        target = os.path.realpath(out_path)
        if os.path.isfile(target):
            mode = stat.S_IMODE(os.stat(target).st_mode)
        elif not os.path.exists(target):
            mode = 0o666 & ~_umask()

    def place(suffix, write, drop=0):
        tmp = tempfile.NamedTemporaryFile("wb", delete=False, dir=None if mode is None else os.path.dirname(target))
        try:
            with tmp.file as fh:
                beside = write(fh)
            if mode is not None:
                os.chmod(tmp.name, mode & ~drop)
                os.replace(tmp.name, target + suffix)
                return beside
            sys.stdout.flush()  # text already on stdout goes before the report
            with open(tmp.name, "rb") as src, (
                open(out_path, "wb") if out_path else nullcontext(sys.stdout.buffer)
            ) as fh:
                shutil.copyfileobj(src, fh)
                fh.flush()
            return None
        finally:
            with suppress(FileNotFoundError):
                os.unlink(tmp.name)

    beside = place("", writer)
    del writer
    if beside is not None:
        with suppress(OSError):
            place(*beside)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except UsageError as exc:
        print(f"framekit: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(_DISPATCH[ns.command](ns), ns.out)
        return 0
    except NumericalError as exc:
        print(f"framekit: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConstructionError, OSError) as exc:
        print(f"framekit: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("framekit: input is too large for available memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
