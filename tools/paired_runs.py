"""Paired benchmark runs: a git ref against the working tree.

    python3 tools/paired_runs.py --workload queries --seeds 601-612 [--ref HEAD] [--claim METRIC]

The ref is exported with `git archive` into a temporary directory, so
the working tree is not touched.  For each seed, `perfbench/run.py
--seconds 20 --trace 0` runs once on each side, in a fresh interpreter
with `PYTHONDONTWRITEBYTECODE=1`; the side that runs first alternates
from seed to seed.  The script refuses to start when either side has a
`src/orbitvar/__pycache__`, since a bytecode cache moves `peak_rss_mb`,
and it fails when a run exits nonzero or reads `correct: false`.

For every end-to-end metric of `BENCHMARK.json` it prints the ref's
median and quartiles, the working tree's median, the change of the
medians in percent and the number of pairs the working tree won (a
strictly better value, in the metric's direction).  Then a verdict per
metric, from the metric's `bound` taken relative to the ref's median:
"unresolved" when the ref's quartile spread is wider than the bound and
the working tree did not win every pair; otherwise "worse past bound"
when the working tree's median is worse than the ref's by more than the
bound, and "within bound" when it is not.  With `--claim METRIC`, one
more line says whether a gain in that metric may be claimed: the
working tree won at least nine tenths of the pairs, and its median is
better than the ref's by more than the ref's quartile spread.  Exit
status: 0 after a summary, 1 when a run failed, 2 on bad arguments
(an unknown `--claim` metric among them) or a cache.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 20


class PairedRunError(Exception):
    pass


def seed_range(text: str) -> list[int]:
    """`A-B` as the seeds A..B, both included; a single `A` is one seed."""
    first, sep, last = text.partition("-")
    try:
        lo, hi = int(first), int(last) if sep else int(first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read A-B, not {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def bytecode_cache(root: str) -> str | None:
    path = os.path.join(root, "src", "orbitvar", "__pycache__")
    return path if os.path.exists(path) else None


def export(ref: str, into: str) -> None:
    """The tree of `ref` under `into`, by `git archive`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref], capture_output=True)
    if archive.returncode:
        raise PairedRunError(f"git archive {ref}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)


def parse_run(stdout: str) -> dict[str, float]:
    """The end-to-end metrics of one `run.py` output, from its last line;
    a run that reads `correct: false` raises `PairedRunError`."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise PairedRunError("the run printed nothing")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise PairedRunError(f"a run is not correct: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_side(root: str, workload: str, seed: int) -> dict[str, float]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise PairedRunError(f"{root} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def verdict(row: dict, bound: float) -> str:
    """The reading of one summary row against a bound relative to the
    ref's median (see the module docstring)."""
    tolerance = bound * abs(row["ref_median"])
    if row["ref_q3"] - row["ref_q1"] > tolerance and row["wins"] < row["pairs"]:
        return "unresolved"
    worse = row["change_median"] - row["ref_median"]
    return "worse past bound" if (worse if row["lower"] else -worse) > tolerance else "within bound"


def claim(row: dict) -> str:
    """Whether a gain in one summary row may be claimed: the change won
    at least 9 of every 10 pairs (a tie wins nothing), and its median is
    better than the ref's by more than the ref's quartile spread."""
    gain = row["change_median"] - row["ref_median"]
    if row["lower"]:
        gain = -gain
    spread = row["ref_q3"] - row["ref_q1"]
    facts = f"{row['wins']}/{row['pairs']} pairs won, gain of the medians {gain:.4g}, ref quartile spread {spread:.4g}"
    met = 10 * row["wins"] >= 9 * row["pairs"] and gain > spread
    return f"claim {row['name']}: {'met' if met else 'not met'} ({facts})"


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric over (ref, change) pairs of metric dicts:
    the ref's quartiles and median, the change's median, the change of
    the medians in percent (None when the ref's median is 0), the pairs
    the change won and, when the metric has a `bound`, its verdict.
    `metrics` are `BENCHMARK.json`'s end-to-end entries, each with its
    name, the direction that is better and its bound."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        ref = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        q1, median, q3 = statistics.quantiles(ref, n=4, method="inclusive") if len(ref) > 1 else ref * 3
        changed = statistics.median(new)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(ref, new))
        row = {
            "name": name,
            "lower": lower,
            "ref_median": median,
            "ref_q1": q1,
            "ref_q3": q3,
            "change_median": changed,
            "percent": 100 * (changed - median) / median if median else None,
            "wins": wins,
            "pairs": len(pairs),
        }
        row["verdict"] = verdict(row, metric["bound"]) if "bound" in metric else None
        rows.append(row)
    return rows


def format_summary(rows: list[dict]) -> str:
    lines = [f"{'metric':<16} {'ref median':>12} {'ref quartiles':>25} {'change':>12} {'%':>8} {'wins':>7}"]
    for r in rows:
        percent = "n/a" if r["percent"] is None else f"{r['percent']:+.1f}"
        quartiles = f"{r['ref_q1']:.4g}-{r['ref_q3']:.4g}"
        lines.append(f"{r['name']:<16} {r['ref_median']:>12.4g} {quartiles:>25} {r['change_median']:>12.4g}"
                     f" {percent:>8} {r['wins']:>3}/{r['pairs']:<3}")
    judged = [r for r in rows if r["verdict"]]
    if judged:
        lines.append("verdicts, each bound relative to the ref median:")
        lines += [f"{r['name']:<16} {r['verdict']}" for r in judged]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("geometry", "charts", "queries"))
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, both included")
    parser.add_argument("--ref", default="HEAD", help="the git ref to compare against (default HEAD)")
    parser.add_argument("--claim", metavar="METRIC", help="say whether a gain in this end-to-end metric may be claimed")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    if args.claim is not None and args.claim not in {m["name"] for m in metrics}:
        print(f"error: --claim {args.claim!r} is not an end-to-end metric of BENCHMARK.json", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="paired-runs-") as ref_root:
        try:
            export(args.ref, ref_root)
        except PairedRunError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        for root in (ref_root, ROOT):
            cache = bytecode_cache(root)
            if cache:
                print(f"error: {cache} exists; remove it, since a bytecode cache moves peak_rss_mb", file=sys.stderr)
                return 2
        pairs = []
        try:
            for i, seed in enumerate(args.seeds):
                order = ((ref_root, "ref"), (ROOT, "change")) if i % 2 == 0 else ((ROOT, "change"), (ref_root, "ref"))
                got = {side: run_side(root, args.workload, seed) for root, side in order}
                pairs.append((got["ref"], got["change"]))
                print(f"seed {seed}: query_p50_ms {got['ref']['query_p50_ms']:.4g} -> {got['change']['query_p50_ms']:.4g}",
                      file=sys.stderr)
        except PairedRunError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    print(f"{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, {args.ref} -> working tree, {len(pairs)} pairs")
    rows = summarize(pairs, metrics)
    print(format_summary(rows))
    if args.claim is not None:
        print(claim(next(r for r in rows if r["name"] == args.claim)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
