"""Which package functions the benchmark's operations enter.

    python3 tools/traffic.py --workload queries --seeds 1-2

For each seed it builds the operations of `perfbench/workloads.build`
for the benchmark's run budget (`paired_runs.SECONDS`) and runs them in
this process through the benchmark worker's own `run_one`, in the
worker's order, so an operation is skipped exactly when the worker
skips it.  Each operation's call runs under `sys.settrace`, which
records every frame whose code lies in `src/orbitvar`; its check runs
untraced.

It prints each package function that an operation entered, with the
number of operations that entered it (most first), and then every
package function that no operation entered.  A package function is a
named function or method defined in `src/orbitvar`, nested ones
included, each of those with `:line` after its name; lambdas,
comprehensions and class bodies are left out.

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


class _Recorder:
    """Stands in for the worker's span tracer: `worker.run_one` hands it
    each operation's call and then, under the same index, the call's
    check.  Only the call runs under `sys.settrace`."""

    def __init__(self):
        self.entered: Counter = Counter()  # operations that entered each package function, by label
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
        try:
            return fn()
        except Exception:
            self.failed += 1
            raise
        finally:
            sys.settrace(previous)
            self.entered.update({_label(code) for code in seen if _named(code)})


def traffic(ops) -> tuple[Counter, int, int]:
    """Run `ops` in order as the worker does; returns (operations that
    entered each package function, by label; operations run; operations
    whose call raised).  Needs `perfbench/` on `sys.path`."""
    from worker import run_one

    recorder, invalid = _Recorder(), set()
    for i, op in enumerate(ops):
        run_one(i, op, recorder, invalid)
    return recorder.entered, recorder.ran, recorder.failed


def main(argv: list[str] | None = None) -> int:
    """Needs `perfbench/` and `tools/` on `sys.path`, as script use sets."""
    import workloads
    from paired_runs import SECONDS, seed_range

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, both included")
    args = parser.parse_args(argv)

    entered: Counter = Counter()
    ran = failed = 0
    with tempfile.TemporaryDirectory(prefix="traffic-") as out_dir:
        for seed in args.seeds:
            got, n, bad = traffic(workloads.build(args.workload, seed, SECONDS, out_dir))
            entered.update(got)
            ran, failed = ran + n, failed + bad
    print(f"workload {args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}: {ran} operations, {failed} raised")
    print("operations  function")
    for label, count in sorted(entered.items(), key=lambda t: (-t[1], t[0])):
        print(f"{count:10d}  {label}")
    unreached = [label for label in package_functions() if label not in entered]
    print(f"not entered by any operation ({len(unreached)}):")
    for label in unreached:
        print(f"  {label}")
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tools")]
    raise SystemExit(main())
