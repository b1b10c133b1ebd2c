"""One pass of a workload in a fresh interpreter.

Started by run.py; the self-tests import its functions.  Each pass gets
its own interpreter because sympy's process-global cache warms as it
runs: the parent and the change must both start cold.  Writes a JSON
result to --out.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


REF_EVERY_S = 0.25  # a reference sample precedes an operation once this long has passed since the last


def reference() -> tuple[float, float]:
    """Time a fixed piece of pure-Python work (small Fraction matrix
    products and an integer loop) with the collector off: a sample of how
    fast this host runs the interpreter right now.  Returns (midpoint,
    seconds)."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    m = [[Fraction(i * 7 + j, j + 3) for j in range(8)] for i in range(8)]
    for _ in range(2):
        m = [[sum(m[i][k] * m[k][j] for k in range(8)) / (i + j + 1) for j in range(8)] for i in range(8)]
    acc = 0
    for i in range(40000):
        acc += i * i
    t1 = time.perf_counter()
    if collecting:
        gc.enable()
    return (t0 + t1) / 2, t1 - t0


def run_one(i: int, op, tr: tracer.Tracer | None, invalid: set[str]) -> dict:
    """Send one operation, timing only the call into the program, then
    check its output."""
    rec = {"key": op.key, "ok": False, "decided": False, "latency_s": 0.0, "error": None}
    if op.needs in invalid:
        rec["error"] = f"input {op.needs} failed validation"
        return rec
    t0 = time.perf_counter()
    try:
        result = tr.run_op(i, op.call) if tr else op.call()
    except Exception as e:  # a crash is a failed operation
        rec["latency_s"] = time.perf_counter() - t0
        rec["error"] = f"{type(e).__name__}: {e}"
        return rec
    rec["latency_s"] = time.perf_counter() - t0
    try:
        ok, decided = tr.run_op(i, lambda: op.check(result)) if tr else op.check(result)
    except Exception as e:
        ok, decided = False, False
        rec["error"] = f"check raised {type(e).__name__}: {e}"
    rec["ok"], rec["decided"] = bool(ok), bool(decided)
    validates = op.meta.get("validates")
    if validates and (not ok or result != 0):
        invalid.add(validates)
    return rec


def run_ops(ops, tr: tracer.Tracer | None) -> tuple[list[dict], list[tuple[float, float]]]:
    """Send every operation in order, one at a time: a closed loop with
    one client.  A record's slot is its call plus its check; reference
    samples fall between slots, never inside one."""
    invalid: set[str] = set()
    records, samples = [], []
    for i, op in enumerate(ops):
        if not samples or time.perf_counter() - samples[-1][0] >= REF_EVERY_S:
            samples.append(reference())
        t0 = time.perf_counter()
        rec = run_one(i, op, tr, invalid)
        rec["t0"], rec["slot_s"] = t0, time.perf_counter() - t0
        records.append(rec)
    samples.append(reference())
    return records, samples


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--dir", required=True, help="scratch directory for inputs and reports")
    p.add_argument("--out", required=True)
    args = p.parse_args()

    ops = workloads.build(args.workload, args.seed, args.seconds, args.dir)
    out: dict = {"t_ready": time.perf_counter()}
    if not args.setup_only:
        with tracer.Tracer() if args.trace else contextlib.nullcontext() as tr:
            cpu0 = time.process_time()
            out["ops"], out["reference"] = run_ops(ops, tr)
            out["cpu_s"] = time.process_time() - cpu0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tr:
            out["trace"] = tracer.summarize(tr.spans, tr.counts)
            tr.write(os.path.join(args.dir, "spans.jsonl"))
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
