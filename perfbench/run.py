"""framekit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a framekit checkout; framekit is imported from
``src/``.  Each run starts fresh child processes (perfbench/child.py), so
set-up cost is real: interpreter start, import, input generation and one
untimed warm-up pass.  Workloads are closed loops with a single caller; BLAS
keeps its default threading, which the environment record states.

``--trace 0`` prints the end-to-end metrics from one child that sets up and
then runs timed passes for ``--seconds`` (at least three); set-up time is
the median over that child and up to MAX_SETUPS - 1 more that only set up.
``--trace 1`` prints the per-layer metrics from one child that runs untraced
passes (per-op times) and then traced passes (self time, calls and counters
per layer).  Metrics of a layer or op that a workload does not use read 0.

Every op's output is checked against what the generator planted, and its
sha256 must repeat across passes, child processes, and traced and untraced
passes.  The last stdout line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--smoke`` runs every workload at tiny sizes with both trace settings and
checks that the metric names and units match BENCHMARK.json; it does not
look at timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import FULL, WORKLOADS  # noqa: E402

# Set-up includes a full warm-up pass (~8-11 s on pipeline and fibers), so
# extra set-up-only children run only while all set-ups together stay within
# half of --seconds: MAX_SETUPS on zak, one on the heavy workloads.
MAX_SETUPS = 3
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "pass_p50_s": "s",
    "pass_cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _op_metrics() -> list[str]:
    names = [f"cli.{c}_s" for c in ("gen", "verify-thm1", "angles", "dual", "reconstruct", "zak-demo")]
    names += [f"mispace.verify_duality.{f}_s" for f in FULL["fibers"] if f != "riesz"]
    return names + ["mispace.verify_biorthogonality_s", "zak.explicit_group_s"]


PER_LAYER = {name: "s" for name in _op_metrics()}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"
PER_LAYER.update({
    "linalg.factorizations": "count",
    "linalg.matrices": "count",
    "cli.verify-thm1.svd_calls": "count",
    "serialize.bytes_in": "bytes",
    "serialize.bytes_out": "bytes",
    "zak.table_bytes": "bytes-computed",
    "mispace.min_cos_rel_err": "ratio",
    "trace.coverage_frac": "frac",
    "trace.overhead_frac": "frac",
})
COUNTERS = ("linalg.factorizations", "linalg.matrices", "serialize.bytes_in", "serialize.bytes_out", "zak.table_bytes")


def environment(root: Path, args) -> dict:
    import numpy as np

    git_sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "framekit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": sys.version,
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "blas_thread_env": {k: os.environ.get(k) for k in threads},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def spawn(root: Path, workdir: Path, index: int, args, mode: str, deadline: float) -> dict:
    result = workdir / f"child-{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--mode", mode, "--workdir", str(workdir), "--result", str(result)]
    if args.smoke:
        argv.append("--smoke")
    # child stdout goes to our stderr: our stdout ends with the result line
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"child process exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(children: list[dict], traced: bool) -> tuple[dict, dict]:
    """Metrics and a detail record from the child results."""
    untraced = [p for c in children for p in c["untraced"]]
    every_pass = [p for c in children for p in [c["warmup"], *c["untraced"], *c["traced"]]]
    attempted = sum(len(p["ops"]) for p in every_pass)
    failed = sum(p["failed"] for p in every_pass)
    problems = [msg for p in every_pass for msg in p["problems"]]
    reference = children[0]["reference"]
    for c in children[1:]:
        mismatched = [op["name"] for op, a, b in zip(children[0]["warmup"]["ops"], reference, c["reference"]) if a != b]
        if mismatched:
            failed += len(mismatched)
            problems.append(f"output digests differ between child processes: {mismatched}")
    info = {}
    for p in every_pass:
        info.update(p["info"])
    detail = {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "timed_passes": len(untraced),
        "pass_s": [p["wall_s"] for p in untraced],
        "setups": len(children),
        "op_p50_s": {op["name"]: _median([p["ops"][i]["wall_s"] for p in untraced])
                     for i, op in enumerate(children[0]["warmup"]["ops"])},
        "digests": dict(zip([op["name"] for op in children[0]["warmup"]["ops"]], reference)),
        "problems": problems[:20],
    }
    if not traced:
        metrics = {
            "setup_s": _median([c["setup_s"] for c in children]),
            "pass_p50_s": _median([p["wall_s"] for p in untraced]),
            "pass_cpu_s": _median([p["cpu_s"] for p in untraced]),
            "peak_rss_mb": children[0]["peak_rss_mb"],
        }
        return metrics, detail

    tpasses = children[0]["traced"]
    metrics = {name: _median([p["metric_s"].get(name, 0.0) for p in untraced]) for name in _op_metrics()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _median([p["self_s"][layer] for p in tpasses])
        metrics[f"{layer}.calls"] = _median([p["calls"][layer] for p in tpasses])
    for key in COUNTERS:
        metrics[key] = _median([p["counters"].get(key, 0) for p in tpasses])
    metrics["cli.verify-thm1.svd_calls"] = _median(
        [sum(op["counters"].get("linalg.svd", 0) for op in p["ops"] if op["name"] == "verify-thm1") for p in tpasses])
    metrics["mispace.min_cos_rel_err"] = info.get("min_cos_rel_err", 0.0)
    metrics["trace.coverage_frac"] = sum(p["root_s"] for p in tpasses) / sum(p["wall_s"] for p in tpasses)
    metrics["trace.overhead_frac"] = _median([p["wall_s"] for p in tpasses]) / _median([p["wall_s"] for p in untraced]) - 1.0
    detail["traced_passes"] = len(tpasses)
    detail["op_counters"] = {op["name"]: op["counters"] for op in tpasses[0]["ops"]}
    return metrics, detail


def run_workload(root: Path, args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    workdir = root / ".perfbench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            children = [spawn(root, workdir, 0, args, "traced", deadline)]
        else:
            children = [spawn(root, workdir, 0, args, "untraced", deadline)]
            first = children[0]["setup_s"]
            while len(children) < MAX_SETUPS and sum(c["setup_s"] for c in children) + first <= args.seconds / 2:
                children.append(spawn(root, workdir, len(children), args, "setup", deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    metrics, detail = summarize(children, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def print_run(result: dict, detail: dict, env: dict):
    print(f"# {env['workload']} seed={env['seed']} trace={env['trace']}: {detail['setups']} set-up(s), "
          f"{detail['timed_passes']} timed passes, {detail['attempted']} ops attempted, "
          f"{detail['failed']} failed (failed_frac {detail['failed_frac']:g})")
    for name, m in result["metrics"].items():
        print(f"#   {name:40s} {m['value']:>16.6g} {m['unit']}")
    for msg in detail["problems"]:
        print(f"# problem: {msg}")
    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


def smoke(root: Path, seed: int) -> int:
    """Tiny sizes, both trace settings, every workload: check the schema, not timings."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=seed, seconds=1.0, trace=trace, smoke=True)
            result, detail = run_workload(root, args)
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            errors = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"result keys {sorted(result)}")
            if got != wanted:
                errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{result['failed']} failed: {detail['problems'][:3]}")
            print(f"smoke {workload} trace={trace}: {'ok' if not errors else errors}")
            ok = ok and not errors
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, schema check only")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "framekit" / "cli.py").is_file():
        print(f"perfbench: no framekit sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root, args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, detail = run_workload(root, args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_run(result, detail, environment(root, args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
