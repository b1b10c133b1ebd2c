"""Which package functions the benchmark's operations enter.

    python3 tools/traffic.py --workload queries --seeds 1-2
    python3 tools/traffic.py --workload geometry charts queries --seeds 1-2

For each named workload, in the order given, and each seed it builds
the operations of `perfbench/workloads.build` for the benchmark's run
budget (`paired_runs.SECONDS`) and runs them in this process through
the benchmark worker's own `run_one`, in the worker's order, so an
operation is skipped exactly when the worker skips it.  Before each
(workload, seed) it empties the CLI's process-wide caches
(`cli.shared_algebra`, `cli.ps_section`, `cli._parser`), so every run
starts as a benchmark run's fresh interpreter does, and a second call
in one process lists what the first did.  Each operation's call runs
under `sys.settrace`, which records every frame whose code lies in
`src/orbitvar`; its check runs untraced.

It prints each package function that an operation entered, with the
number of operations that entered it (most first), then every package
function that no operation of any named workload entered, and then,
per memo key, the reads of the algebras' memos that the operations'
calls made: hits, which
found a value, and misses, which computed one.  A package function is
a named function or method defined in `src/orbitvar`, nested ones
included, each of those with `:line` after its name; lambdas,
comprehensions and class bodies are left out.  To count the memo
reads, the tool swaps each algebra's `_memo` dict for a counting copy
of it while the operations run and puts a plain copy back after.

Run as a script, it puts `src/`, `perfbench/` and `tools/` on
`sys.path` and turns bytecode writing off, so `perfbench/` is imported
read-only; the CLI reports the operations write go to a temporary
directory.  Importing this module changes neither.  Exit status: 0
after the listing, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import tempfile
import types
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "orbitvar")


def _named(code: types.CodeType) -> bool:
    """A function's code: not a module or class body, whose code is not
    optimized, nor a lambda or comprehension, whose name is `<...>`."""
    return bool(code.co_flags & inspect.CO_OPTIMIZED) and not code.co_name.startswith("<")


def _label(code: types.CodeType) -> str:
    """`module.qualname`, e.g. `orbit.CurveSubspace.limit`; a nested
    function adds `:line`, since one function may define several of one
    name (the wrappers of `liealg.memoised`)."""
    label = f"{os.path.splitext(os.path.basename(code.co_filename))[0]}.{code.co_qualname}"
    return f"{label}:{code.co_firstlineno}" if "<locals>" in code.co_qualname else label


def package_functions() -> list[str]:
    """The label of every named function under `src/orbitvar`, read from
    the compiled modules, module by module in line order."""
    out = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            todo = [compile(fh.read(), path, "exec")]
        found = []
        while todo:
            code = todo.pop()
            if _named(code):
                found.append((code.co_firstlineno, _label(code)))
            todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        out += [label for _, label in sorted(found)]
    return out


def _memo_key(key) -> str:
    """The name a memo entry is kept under: `key`, or the first item of
    a `(key, *args)` tuple."""
    return key if isinstance(key, str) else key[0]


class _CountedMemo(dict):
    """An algebra's memo that counts its reads in `memos.reads`, per memo
    key, while `memos.counting` is set: a read that finds its value is a
    hit, one that raises `KeyError` a miss.  `liealg.memoised` reads by
    `[]` and then computes on a miss; `WeightedLieAlgebra._word_rows` and
    `orbit._exp_row` read chains by `get` and on a miss call the
    memoised builder, whose `[]` counts it, so `get` counts hits only."""

    __slots__ = ("memos",)

    def __getitem__(self, key):
        try:
            value = dict.__getitem__(self, key)
        except KeyError:
            if self.memos.counting:
                self.memos.reads[_memo_key(key), "misses"] += 1
            raise
        if self.memos.counting:
            self.memos.reads[_memo_key(key), "hits"] += 1
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


class _CountedMemos:
    """Stands in for the `_memo` attribute of `WeightedLieAlgebra` while
    installed: reading an instance's memo first swaps it for a
    `_CountedMemo` copy, so instances made before and during the run
    are both counted.  `uninstall` puts a plain copy back in each."""

    def __init__(self, cls):
        self.cls, self.swapped = cls, []
        self.reads: Counter = Counter()  # by (memo key, "hits" or "misses")
        self.counting = False

    def __get__(self, alg, owner=None):
        if alg is None:
            return self
        memo = alg.__dict__["_memo"]
        if type(memo) is not _CountedMemo:
            memo = alg.__dict__["_memo"] = _CountedMemo(memo)
            memo.memos = self
            self.swapped.append(alg)
        return memo

    def __set__(self, alg, memo):
        alg.__dict__["_memo"] = memo

    def install(self):
        self.cls._memo = self

    def uninstall(self):
        del self.cls._memo
        for alg in self.swapped:
            alg.__dict__["_memo"] = dict(alg.__dict__["_memo"])
        self.swapped.clear()


class _Recorder:
    """Stands in for the worker's span tracer: `worker.run_one` hands it
    each operation's call and then, under the same index, the call's
    check.  Only the call runs under `sys.settrace` and has its memo
    reads counted (`memos`)."""

    def __init__(self, memos: _CountedMemos):
        self.entered: Counter = Counter()  # operations that entered each package function, by label
        self.memos = memos
        self.ran = self.failed = 0
        self._op = None

    def run_op(self, op_id: int, fn):
        if op_id == self._op:  # the check of the call just run
            return fn()
        self._op = op_id
        self.ran += 1
        prefix, seen = SRC + os.sep, set()

        def trace(frame, event, arg):
            if frame.f_code.co_filename.startswith(prefix):
                seen.add(frame.f_code)

        previous = sys.gettrace()
        sys.settrace(trace)
        self.memos.counting = True
        try:
            return fn()
        except Exception:
            self.failed += 1
            raise
        finally:
            self.memos.counting = False
            sys.settrace(previous)
            self.entered.update({_label(code) for code in seen if _named(code)})


def traffic(ops) -> tuple[Counter, int, int, Counter]:
    """Run `ops` in order as the worker does; returns (operations that
    entered each package function, by label; operations run; operations
    whose call raised; memo reads of the calls, by (memo key, "hits" or
    "misses")).  Needs `perfbench/` on `sys.path`."""
    from orbitvar.liealg import WeightedLieAlgebra
    from worker import run_one

    memos = _CountedMemos(WeightedLieAlgebra)
    recorder, invalid = _Recorder(memos), set()
    memos.install()
    try:
        for i, op in enumerate(ops):
            run_one(i, op, recorder, invalid)
    finally:
        memos.uninstall()
    return recorder.entered, recorder.ran, recorder.failed, memos.reads


def main(argv: list[str] | None = None) -> int:
    """Needs `perfbench/` and `tools/` on `sys.path`, as script use sets."""
    import workloads
    from orbitvar import cli
    from paired_runs import SECONDS, seed_range

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, nargs="+", choices=workloads.WORKLOADS, help="one or more")
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, both included")
    args = parser.parse_args(argv)

    entered: Counter = Counter()
    reads: Counter = Counter()
    ran = failed = 0
    with tempfile.TemporaryDirectory(prefix="traffic-") as out_dir:
        for workload in args.workload:
            for seed in args.seeds:
                for cache in (cli.shared_algebra, cli.ps_section, cli._parser):
                    cache.cache_clear()  # as in the fresh process of each benchmark run
                got, n, bad, memo_reads = traffic(workloads.build(workload, seed, SECONDS, out_dir))
                entered.update(got)
                reads.update(memo_reads)
                ran, failed = ran + n, failed + bad
    print(f"workload {' '.join(args.workload)}, seeds {args.seeds[0]}-{args.seeds[-1]}: {ran} operations, {failed} raised")
    print("operations  function")
    for label, count in sorted(entered.items(), key=lambda t: (-t[1], t[0])):
        print(f"{count:10d}  {label}")
    unreached = [label for label in package_functions() if label not in entered]
    print(f"not entered by any operation ({len(unreached)}):")
    for label in unreached:
        print(f"  {label}")
    print("      hits    misses  memo key")
    for key in sorted({key for key, _ in reads}):
        print(f"{reads[key, 'hits']:10d}{reads[key, 'misses']:10d}  {key}")
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tools")]
    raise SystemExit(main())
