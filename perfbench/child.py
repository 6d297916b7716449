"""One workload run in a fresh process; started by run.py, not meant to be run by hand.

Set-up is everything up to the first timed pass: interpreter start, the
framekit import, input generation and one untimed warm-up pass.  ``--mode
setup`` stops there.  ``--mode untraced`` then runs passes back to back (a
closed loop with one caller) for ``--seconds``, and at least MIN_PASSES of
them.  ``--mode traced`` gives half the seconds to untraced passes and half
to passes with the tracer installed, at least one each.

The result, with per-pass timings, digests and trace data, is written as JSON
to ``--result``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from types import SimpleNamespace

from tracer import LAYERS, Tracer
from workloads import FULL, SMOKE, WORKLOADS

# The heavy workloads' passes take ~7-10 s, so --seconds alone would give two;
# three let the median drop one pass slowed by other load on the machine.
MIN_PASSES = 3


def run_pass(wl, tracer: Tracer | None = None) -> dict:
    rec = {"wall_s": 0.0, "cpu_s": 0.0, "metric_s": {}, "ops": [], "failed": 0, "problems": [], "info": {}}
    if tracer is not None:
        rec.update(self_s=dict.fromkeys(LAYERS, 0.0), calls=dict.fromkeys(LAYERS, 0), root_s=0.0, counters={})
    for op in wl.ops:
        if tracer is not None:
            tracer.begin_op()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        t1, c1 = time.perf_counter(), time.process_time()
        op_rec = {"name": op.name, "wall_s": t1 - t0}
        if tracer is not None:
            trace = tracer.take_op()
            for layer in LAYERS:
                rec["self_s"][layer] += trace["self_s"][layer]
                rec["calls"][layer] += trace["calls"][layer]
            rec["root_s"] += trace["root_s"]
            for key, amount in trace["counters"].items():
                rec["counters"][key] = rec["counters"].get(key, 0) + amount
            op_rec["counters"] = trace["counters"]
        if error is None:
            try:
                digest, problems, info = op.check(result)
            except Exception:
                digest, problems, info = "", [f"{op.name}: check raised\n{traceback.format_exc(limit=3)}"], {}
        else:
            digest, problems, info = "", [f"{op.name}: raised\n{error}"], {}
        op_rec["digest"] = digest
        rec["wall_s"] += t1 - t0
        rec["cpu_s"] += c1 - c0
        rec["metric_s"][op.metric] = rec["metric_s"].get(op.metric, 0.0) + (t1 - t0)
        rec["info"].update(info)
        if problems:
            rec["failed"] += 1
            rec["problems"].extend(problems)
        rec["ops"].append(op_rec)
    return rec


def run_for(wl, seconds: float, min_passes: int, reference: list[str], tracer: Tracer | None = None) -> list[dict]:
    """Passes back to back until `seconds` have passed and at least `min_passes` ran.
    A pass whose op digests differ from the reference counts those ops as failed."""
    passes = []
    start = time.perf_counter()
    while True:
        rec = run_pass(wl, tracer)
        for op_rec, ref in zip(rec["ops"], reference):
            if op_rec["digest"] and op_rec["digest"] != ref:
                rec["failed"] += 1
                rec["problems"].append(f"{op_rec['name']}: output digest differs from the warm-up pass")
        passes.append(rec)
        if time.perf_counter() - start >= seconds and len(passes) >= min_passes:
            return passes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "untraced", "traced"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() of the parent at spawn")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    modules = {layer: importlib.import_module(f"framekit.{layer}") for layer in LAYERS if layer != "linalg"}
    fk = SimpleNamespace(**modules)
    wl = WORKLOADS[args.workload](fk, args.seed, SMOKE if args.smoke else FULL, args.workdir)
    warmup = run_pass(wl)
    reference = [op["digest"] for op in warmup["ops"]]
    setup_s = time.monotonic() - args.spawned_at

    untraced, traced = [], []
    if args.mode == "untraced":
        untraced = run_for(wl, args.seconds, MIN_PASSES, reference)
    elif args.mode == "traced":
        untraced = run_for(wl, args.seconds / 2, 1, reference)
        tracer = Tracer()
        tracer.install(modules)
        try:
            traced = run_for(wl, args.seconds / 2, 1, reference, tracer)
        finally:
            tracer.uninstall()

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference": reference,
        "warmup": warmup,
        "untraced": untraced,
        "traced": traced,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
