"""Median latency of each query kind on the `queries` stream: a git ref
against the working tree, both in one interpreter.

    python3 tools/kind_times.py [--ref HEAD] [--seeds 1-3] [--rounds 2]

The ref's tree is exported with `git archive` into a temporary
directory, and its `src/orbitvar` is imported as the package
`orbitvar_ref`, beside the working tree's `orbitvar`.  For each seed,
`perfbench/workloads.py` builds that seed's `queries` stream with the
working tree's package, for the benchmark's run budget
(`paired_runs.SECONDS`).  Each query is then rebuilt on each side from
its kind, its algebra's name and its recorded input (`Op.meta["input"]`),
each side with its own algebras, built once per seed and round, as a
benchmark run builds them once.  The queries run in stream order, each
on both sides back to back, and only the call is timed
(`time.perf_counter`).  The side that goes first alternates from query
to query and, for each query, from round to round, so over an even
number of rounds every query runs first on each side equally often.
So both sides see the same host, the same inputs and the same cache
states, and a drift of the host moves both.

The order matters: the second call of a pair reads warmer caches.  An
order that alternated only along the stream gave each query the same
first side in every round, since a `queries` stream has an even number
of queries (300), and an A/A run (one tree timed against a second copy
of itself) then read the second side +7% to +9% slow on
`biggest-torus-graded` and up to +3% on `pair-relation`; loading the
two copies in alternating order each round left that bias as it was.
With the order alternating from round to round, A/A runs of seeds 1-3
over 6 rounds read within 3% on every kind (2-core host), which is the
error left: a per-kind change inside it is not resolved.

It prints, per query kind, the number of timed calls per side, the
ref's and the working tree's median latency in microseconds and the
change of the medians in percent.  Answers are compared by `repr`.  Two
orbit verdicts of a membership query whose words differ are one point
written as two words: they are compared by kind and reason, and by
whether each side's word maps t to the query's subspace by that side's
own `act`; when all of that holds they are counted apart, as re-verified
words.  Every other answer that differs is counted and the count
printed, since a change that alters an answer is no speed-up.  Run as a
script, it puts `src/`, `perfbench/` and `tools/` on `sys.path` and
turns bytecode writing off.  Exit status: 0 after the table, 1 when an
answer other than a re-verified word differed, 2 on bad arguments or a
ref that `git archive` cannot export.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_PACKAGE = "orbitvar_ref"


def load_package(src_dir: str, name: str):
    """The package in `src_dir` (a directory holding `__init__.py`),
    imported under `name` with its submodules, so that its relative
    imports stay inside it.  A package already loaded under `name` is
    dropped first."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, os.path.join(src_dir, "__init__.py"), submodule_search_locations=[src_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("linalg", "liealg", "models", "orbit"):
        importlib.import_module(f"{name}.{sub}")
    return package


class Side:
    """One version of the package and the algebras its queries run on."""

    def __init__(self, package):
        self.linalg, self.liealg = package.linalg, package.liealg
        self.models, self.orbit = package.models, package.orbit
        self.algebras: dict = {}

    def algebra(self, name: str):
        if name not in self.algebras:
            self.algebras[name] = self.models.builtin(name)
        return self.algebras[name]

    def subspace(self, alg, data: dict):
        rows = [[Fraction(e) for e in row] for row in data["basis"]]
        basis = self.linalg.Matrix.from_rows(rows) if rows else self.linalg.Matrix(0, alg.dim, ())
        return self.orbit.Subspace(alg, basis)

    def query(self, key: str, data):
        """The zero-argument call of the query `key` ("kind algebra") on
        its recorded input, as `workloads.query_op` makes it."""
        kind, name = key.split(" ", 1)
        alg, orbit = self.algebra(name), self.orbit
        if kind.startswith("member-"):
            v = self.subspace(alg, data)
            return lambda: orbit.membership(alg, v)
        if kind.startswith("multipoint-"):
            pts = [tuple(Fraction(c) for c in p) for p in data]
            return lambda: orbit.multipoint_membership(alg, pts)
        if kind.startswith("biggest-torus-"):
            v = self.subspace(alg, data)
            return lambda: orbit.biggest_torus(alg, v)
        if kind == "pair-relation":
            strings, seed = data
            alpha = self.liealg.Weight(tuple(self.linalg.entry(Fraction(c)) for c in strings))
            return lambda: orbit.verify_pair_relation(alg, alpha, samples=4, seed=seed)
        raise ValueError(f"unknown query kind {kind!r}")


def timed(call) -> tuple[float, object]:
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as e:  # an answer like any other, compared below
        result = e
    return time.perf_counter() - t0, result


def reverified_words(sides, key: str, data, answers) -> bool:
    """The two answers are orbit verdicts of the membership query `key`
    with the same kind and reason, and each side's word maps t to the
    query's subspace by that side's own `act`."""
    if not key.startswith("member-"):
        return False
    if any(getattr(a, "kind", None) != "orbit" for a in answers) or answers[0].reason != answers[1].reason:
        return False
    for side, verdict in zip(sides, answers):
        alg, orbit = side.algebra(key.split(" ", 1)[1]), side.orbit
        if orbit.act(alg, list(verdict.params), orbit.torus_subspace(alg)) != side.subspace(alg, data):
            return False
    return True


def kind_times(ref, tree, seeds, rounds: int, seconds: int):
    """({kind: ([ref latencies], [tree latencies])}, answers that
    differed, orbit words that differed and re-verified) over the
    `queries` streams of `seeds`, each run `rounds` times with fresh
    algebras on both sides.  `ref` and `tree` are imported packages;
    needs `perfbench/` on `sys.path`."""
    import workloads

    times: dict[str, tuple[list, list]] = {}
    differed = words = 0
    for seed in seeds:
        ops = workloads.query_ops(seed, seconds)
        for round_ in range(rounds):
            sides = (Side(ref), Side(tree))
            for position, op in enumerate(ops):
                calls = [side.query(op.key, op.meta["input"]) for side in sides]
                order = (0, 1) if (position + round_) % 2 == 0 else (1, 0)
                got = [None, None]
                for i in order:
                    got[i] = timed(calls[i])
                samples = times.setdefault(op.key.split(" ", 1)[0], ([], []))
                samples[0].append(got[0][0])
                samples[1].append(got[1][0])
                answers = [answer for _, answer in got]
                if repr(answers[0]) != repr(answers[1]):
                    if reverified_words(sides, op.key, op.meta["input"], answers):
                        words += 1
                    else:
                        differed += 1
    return times, differed, words


def format_table(times: dict) -> str:
    lines = [f"{'kind':<22} {'calls':>6} {'ref us':>10} {'tree us':>10} {'%':>8}"]
    for kind in sorted(times):
        ref, tree = times[kind]
        a, b = statistics.median(ref) * 1e6, statistics.median(tree) * 1e6
        lines.append(f"{kind:<22} {len(ref):>6} {a:>10.1f} {b:>10.1f} {100 * (b - a) / a:>+8.1f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Needs `src/`, `perfbench/` and `tools/` on `sys.path`, as script
    use sets."""
    from paired_runs import SECONDS, PairedRunError, export, seed_range

    import orbitvar

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD", help="the git ref to compare against (default HEAD)")
    parser.add_argument("--seeds", default=[1, 2, 3], type=seed_range, help="A-B, both included (default 1-3)")
    parser.add_argument("--rounds", default=2, type=int, help="runs of each seed's stream (default 2)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory(prefix="kind-times-") as ref_root:
        try:
            export(args.ref, ref_root)
        except PairedRunError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        ref = load_package(os.path.join(ref_root, "src", "orbitvar"), REF_PACKAGE)
        for sub in ("linalg", "liealg", "models", "orbit"):
            importlib.import_module(f"orbitvar.{sub}")
        times, differed, words = kind_times(ref, orbitvar, args.seeds, args.rounds, SECONDS)
    print(f"queries, seeds {args.seeds[0]}-{args.seeds[-1]}, {args.rounds} rounds, {args.ref} -> working tree, median latency per kind")
    print(format_table(times))
    print(f"orbit words that differed, each re-verified: {words}")
    print(f"answers that differed: {differed}")
    return 1 if differed else 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tools")]
    raise SystemExit(main())
