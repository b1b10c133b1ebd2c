"""orbitvar benchmark: run one workload from a seed, check every output,
print every metric by name with its unit.

    python3 perfbench/run.py --workload geometry|charts|queries \
        --seed N --seconds S --trace 0|1

With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced pass, next to an
untraced pass of the same seed for the tracing overhead.  Every pass
runs in a fresh interpreter (see worker.py).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("geometry", "charts", "queries")
SETUP_PROBES = 2  # extra set-up-only interpreters; setup_s is the median over these and the pass
DEADLINE_S = 170  # the whole run, every interpreter included, ends before this
REF_S = 0.011  # time of worker.reference() on the 2-core host that defined the benchmark, in its usual state
REF_NEAREST = 7  # reference samples that set the host speed around one operation

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "verified_ratio": "ratio",
    "decided_ratio": "ratio",
}

CALLS_AND_S = (
    "linalg.det", "linalg.exp_nilpotent", "linalg.rref", "linalg.matmul",
    "liealg.bracket", "liealg.jordan_decompose",
    "orbit.torus_fixed_points", "orbit.act", "orbit.curve_limit",
    "ideals.groebner", "ideals.normal_form",
)
CALLS_ONLY = ("liealg.ad", "liealg.center", "orbit.membership")
S_ONLY = (
    "linalg.plucker_limit", "liealg.validate", "orbit.membership",
    "orbit.multipoint_membership", "ideals.hilbert_dimension", "ideals.eliminate",
    "ideals.ideal_quotient", "ideals.chart_ideal", "report.render",
)
LAYERS = ("linalg", "liealg", "orbit", "ideals", "report", "cli", "bench")
# ratio name -> (numerator count, denominator: a count or a sum of counts)
RATIOS = {
    "orbit.torus_fixed_points.repeat_ratio": ("orbit.torus_fixed_points.repeats", ("orbit.torus_fixed_points.calls",)),
    "ideals.groebner.repeat_ratio": ("ideals.groebner.repeats", ("ideals.groebner.calls",)),
    "orbit.membership.certified_ratio": ("orbit.membership.certified", ("orbit.membership.calls",)),
    "orbit.pair_relation.skipped_ratio": (
        "orbit.pair_relation.skipped",
        ("orbit.pair_relation.decided", "orbit.pair_relation.skipped"),
    ),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for name in CALLS_AND_S:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({f"{name}.calls": "count" for name in CALLS_ONLY})
    units.update({f"{name}.s": "s" for name in S_ONLY})
    for ratio, (num, _) in RATIOS.items():
        units[ratio] = "ratio"
        units[num] = "count"
    units["orbit.pair_relation.decided"] = "count"
    units["report.bytes"] = "bytes"
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class RunError(Exception):
    pass


def spawn(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker interpreter; return its spawn time and result."""
    fd, out = tempfile.mkstemp(suffix=".json", dir=argv[argv.index("--dir") + 1])
    os.close(fd)
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv, "--out", out])
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker passed the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RunError(f"worker exited with status {code}")
    with open(out) as fh:
        return t_spawn, json.load(fh)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, taken on log latencies:
    a Beta-weighted mean of all order statistics.  Unlike one order
    statistic it moves smoothly when two operations of close latency
    swap places, which matters on the 12- and 25-operation workloads;
    the log keeps their few multi-second operations from pulling the
    median.  On the 300-query stream it is the sample quantile."""
    import mpmath  # a dependency of sympy

    xs = sorted(math.log(v) for v in values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    weights = (float(mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True)) for i in range(n))
    return math.exp(sum(w * x for w, x in zip(weights, xs)))


def speed_factors(res: dict) -> list[float]:
    """Per operation, REF_S over the median of the REF_NEAREST reference
    samples nearest to it in time.

    The shared host this was built on changes speed by up to 1.75x for
    tens of seconds at a time, alike for the program and for the fixed
    reference task: over 5-second windows their times correlated at
    0.98, and dividing by the reference cut the spread of a repeated
    call from 16% to 4%.  A time multiplied by its factor is the time at
    the reference speed: the host's drift cancels, a change to the
    program's own speed does not."""
    samples = res["reference"]
    factors = []
    for rec in res["ops"]:
        mid = rec["t0"] + rec["slot_s"] / 2
        near = sorted(samples, key=lambda s: abs(s[0] - mid))[:REF_NEAREST]
        factors.append(REF_S / statistics.median(d for _, d in near))
    return factors


def measured_wall(res: dict) -> float:
    """First to last operation as measured, reference samples left out."""
    return sum(rec["slot_s"] for rec in res["ops"])


def wall(res: dict) -> float:
    """First to last operation at the reference speed, checks included."""
    return sum(rec["slot_s"] * f for rec, f in zip(res["ops"], speed_factors(res)))


def end_to_end(setup: list[float], res: dict) -> dict[str, float]:
    ops = res["ops"]
    lat_ms = [op["latency_s"] * 1000 * f for op, f in zip(ops, speed_factors(res)) if op["latency_s"] > 0]
    wall_s = wall(res)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "query_p50_ms": quantile(lat_ms, 0.5),
        "query_p90_ms": quantile(lat_ms, 0.9),
        "queries_per_s": len(ops) / wall_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "verified_ratio": sum(op["ok"] for op in ops) / len(ops),
        "decided_ratio": sum(op["decided"] for op in ops) / len(ops),
    }


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    t = traced["trace"]
    calls, incl, self_s, counts = t["calls"], t["s"], t["self_s"], t["counts"]
    traced_wall = measured_wall(traced)  # spans are as measured, so this is too
    m: dict[str, float] = {}
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    # the benchmark's own time: its op and check spans and the gaps between them
    m["bench.self_s"] = traced_wall - sum(m.values())
    for name in CALLS_AND_S + CALLS_ONLY:
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in CALLS_AND_S + S_ONLY:
        m[f"{name}.s"] = incl.get(name, 0.0)
    m["orbit.torus_fixed_points.repeats"] = counts.get("orbit.torus_fixed_points.repeat", 0)
    m["ideals.groebner.repeats"] = counts.get("ideals.groebner.repeat", 0)
    for key in ("orbit.membership.certified", "orbit.pair_relation.decided", "orbit.pair_relation.skipped"):
        m[key] = counts.get(key, 0)
    for ratio, (num, base) in RATIOS.items():
        denom = sum(m[b] for b in base)
        m[ratio] = m[num] / denom if denom else 0.0
    m["report.bytes"] = counts.get("report.bytes", 0)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_ratio"] = wall(traced) / wall(untraced)
    return m


def describe(name: str, value: float, unit: str, metrics: dict) -> str:
    line = f"{name} = {value:.6g} {unit}"
    if name in RATIOS:
        num, base = RATIOS[name]
        line += f"  ({metrics[num]:g} / {sum(metrics[b] for b in base):g})"
    return line


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "orbitvar", "__init__.py")):
        print("error: no orbitvar sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--dir", scratch]
    try:
        t_spawn, res = spawn(common, deadline)
        setup = [res["t_ready"] - t_spawn]
        if args.trace:
            t_spawn, traced = spawn(common + ["--trace", "1"], deadline)
            shutil.copy(os.path.join(scratch, "spans.jsonl"), os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
            metrics = per_layer(traced, res)
            units = per_layer_units()
            checked = res["ops"] + traced["ops"]
        else:
            for _ in range(SETUP_PROBES):
                t_spawn, probe = spawn(common + ["--setup-only"], deadline)
                setup.append(probe["t_ready"] - t_spawn)
            metrics = end_to_end(setup, res)
            units = END_TO_END
            checked = res["ops"]
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [op for op in checked if not op["ok"]]
    for op in failed:
        print(f"FAILED {op['key']}: {op['error'] or 'output did not verify'}")
    speed = statistics.median(REF_S / d for _, d in res["reference"])
    print(f"workload {args.workload}, seed {args.seed}: {len(res['ops'])} operations, 1 client, closed loop;"
          f" measured {measured_wall(res):.3f} s of wall time ({res['cpu_s']:.3f} s of CPU)"
          f" at {speed:.3f}x the reference speed")
    for name, unit in units.items():
        print(describe(name, metrics[name], unit, metrics))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
