"""`tools/traffic.py` on a canned list of two operations, on a `queries`
and a `geometry` run, on one run over both and on two runs in one
process: which package functions the operations enter, which none
does, and the hits and misses of each memo key.  Also: the listing of
package functions comes from the loaded code and reads no source
file."""

import builtins
import importlib.util
import io
import os
import sys
import types

import pytest

from orbitvar import liealg, models, orbit
from orbitvar.liealg import WeightedLieAlgebra

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIRS = tuple(os.path.join(ROOT, d) for d in ("perfbench", "tools"))


@pytest.fixture
def traffic(monkeypatch):
    """The tool with `perfbench/` and `tools/` on `sys.path` and bytecode
    writing off, as its script use sets them; afterwards `sys.path`, the
    bytecode flag and `sys.modules` hold no trace of either directory."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for path in BENCH_DIRS:
        monkeypatch.syspath_prepend(path)
    spec = importlib.util.spec_from_file_location("traffic", os.path.join(ROOT, "tools", "traffic.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name, mod in list(sys.modules.items()):
        if os.path.dirname(getattr(mod, "__file__", None) or "") in BENCH_DIRS:
            del sys.modules[name]


def test_two_canned_operations(traffic):
    import workloads

    alg = models.builtin("borel-nilradical-A2")

    def fail():
        raise ValueError("an operation that raises")

    ops = [
        workloads.Op("fixed-points A2", lambda: orbit.torus_fixed_points(alg), lambda r: (len(r) == 6, True)),
        workloads.Op("membership A2", lambda: orbit.membership(alg, orbit.torus_subspace(alg)), lambda r: (r.certified, True)),
        workloads.Op("raises", fail, lambda r: (False, False)),
    ]
    entered, ran, failed, _ = traffic.traffic(ops[:2])
    assert (ran, failed) == (2, 0)
    assert entered["orbit.torus_fixed_points"] == 1
    assert entered["orbit.membership"] == 1
    assert entered["orbit._orbit_word"] == 1  # membership's forward pass from t
    assert "liealg.WeightedLieAlgebra._word_rows" not in entered  # t is its own image: no factor applied
    assert "ideals._read" not in entered and "orbit.torus_fixed_points" not in traffic.traffic(ops[2:])[0]
    assert traffic.traffic(ops[2:])[1:] == (1, 1, {})
    functions = traffic.package_functions()
    assert {"orbit.torus_fixed_points", "ideals._read", "orbit.CurveSubspace.limit"} <= set(functions)
    assert len(functions) == len(set(functions)) and set(entered) <= set(functions)


def compiled_listing(traffic):
    """The listing as the tool once made it: the named functions of each
    source file under `SRC`, compiled, module by module in line order."""
    out = []
    for name in sorted(os.listdir(traffic.SRC)):
        if name.endswith(".py"):
            path = os.path.join(traffic.SRC, name)
            with open(path) as fh:
                todo = [compile(fh.read(), path, "exec")]
            found = []
            while todo:
                code = todo.pop()
                if traffic._named(code):
                    found.append((code.co_firstlineno, traffic._label(code)))
                todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            out += [label for _, label in sorted(found)]
    return out


def test_the_listing_reads_no_source_file(traffic, monkeypatch):
    """The listing comes from the loaded modules' code objects, the ones
    the trace records, so an edit under `src/` after import cannot move
    a `name:line` label of one away from the other.  With every read of
    a file under `SRC` refused, it equals the compiled files' listing."""
    want = compiled_listing(traffic)
    real_open = builtins.open

    def refusing(file, *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)) and os.path.abspath(os.fsdecode(file)).startswith(traffic.SRC + os.sep):
            raise OSError(f"a read of {file} was refused")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", refusing)
    monkeypatch.setattr(io, "open", refusing)
    with pytest.raises(OSError, match="was refused"):
        compiled_listing(traffic)
    assert traffic.package_functions() == want


def test_an_operation_on_an_invalid_input_is_skipped(traffic):
    import workloads

    alg = models.builtin("borel-nilradical-A2")
    ops = [
        workloads.Op("validate x", lambda: 1, lambda r: (True, True), needs=None, meta={"validates": "x"}),
        workloads.Op("fixed-points x", lambda: orbit.torus_fixed_points(alg), lambda r: (True, True), needs="x"),
    ]
    assert traffic.traffic(ops) == ({}, 1, 0, {})


def listing(lines):
    """The tool's listing after its two header lines: the operations that
    entered each function, the functions none entered, and the (hits,
    misses) of each memo key, each in the order printed."""
    split = next(i for i, line in enumerate(lines) if line.startswith("not entered by any operation"))
    memo = lines.index("      hits    misses  memo key")
    assert lines[split] == f"not entered by any operation ({memo - split - 1}):"
    entered = {label: int(count) for count, label in (line.split() for line in lines[2:split])}
    unreached = [line.strip() for line in lines[split + 1 : memo]]
    reads = {key: (int(hits), int(misses)) for hits, misses, key in (line.split() for line in lines[memo + 1 :])}
    return entered, unreached, reads


def test_a_queries_run(traffic, capsys):
    before = sorted(os.listdir(os.path.join(ROOT, "perfbench")))
    assert traffic.main(["--workload", "queries", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload queries, seeds 1-1: 300 operations, 0 raised"
    assert lines[1] == "operations  function"
    entered, unreached, reads = listing(lines)
    counts = list(entered.values())
    assert counts == sorted(counts, reverse=True) and 0 < counts[-1] <= counts[0] <= 300
    assert "ideals._read" in unreached
    assert list(reads) == sorted(reads) and set(reads) <= set(liealg._MEMO_KEYS)
    assert all(sum(counts) for counts in reads.values()) and reads["exp-ad-chain"][0] > 0
    assert sorted(os.listdir(os.path.join(ROOT, "perfbench"))) == before


def test_a_geometry_run_validates_each_algebra_once(traffic, capsys):
    """The seven algebras of a `geometry` seed, none loaded before: each
    `validate` command runs the body once, and every later command reads
    its table."""
    assert traffic.main(["--workload", "geometry", "--seeds", "1"]) == 0
    entered, _, reads = listing(capsys.readouterr().out.splitlines())
    assert entered["cli.cmd_validate"] == entered["liealg.WeightedLieAlgebra.validate"] == 7
    assert reads["validate"][1] == 7 and reads["validate"][0] >= 7
    assert "is-valid" not in reads


def test_several_workloads_list_what_none_enters(traffic, capsys):
    """One run over two workloads runs the operations of both and lists
    as not entered exactly the functions that each run alone lists."""
    runs = {}
    for names in (["queries"], ["geometry"], ["queries", "geometry"]):
        assert traffic.main(["--workload", *names, "--seeds", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        runs[" ".join(names)] = (lines[0], listing(lines)[1])
    header, unreached = runs["queries geometry"]
    ops = [int(runs[name][0].split(": ")[1].split()[0]) for name in ("queries", "geometry")]
    assert header == f"workload queries geometry, seeds 1-1: {sum(ops)} operations, 0 raised"
    alone = [set(runs[name][1]) for name in ("queries", "geometry")]
    assert set(unreached) == alone[0] & alone[1] and len(unreached) == len(set(unreached))
    assert unreached == [label for label in traffic.package_functions() if label in alone[0] & alone[1]]
    with pytest.raises(SystemExit) as stop:
        traffic.main(["--workload", "queries", "nosuch", "--seeds", "1"])
    assert stop.value.code == 2


def test_memo_reads_are_counted_and_the_memos_put_back(traffic):
    """A second call reads the value the first kept: one miss, then one
    hit.  Afterwards the class has no stand-in and the memo is a dict."""
    import workloads

    alg = models.builtin("borel-nilradical-A2")
    op = workloads.Op("fixed-points A2", lambda: orbit.torus_fixed_points(alg), lambda r: (len(r) == 6, True))
    reads = traffic.traffic([op, op])[3]
    assert reads["fixed-point-subsets", "misses"] == reads["fixed-point-subsets", "hits"] == 1
    assert reads["kernel", "misses"] > 0 and reads["witness-limit", "misses"] == len(orbit.torus_fixed_points(alg)) == 6
    assert "_memo" not in vars(WeightedLieAlgebra) and type(alg._memo) is dict
    assert traffic.traffic([op])[3] == {("fixed-point-subsets", "hits"): 1, ("fixed-point-record", "hits"): 6}


def test_importing_the_tool_leaves_the_interpreter_as_it_was():
    path, flag = list(sys.path), sys.dont_write_bytecode
    spec = importlib.util.spec_from_file_location("traffic", os.path.join(ROOT, "tools", "traffic.py"))
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert (sys.path, sys.dont_write_bytecode) == (path, flag)


BENCHMARK = "benchmark lookup"
API = "documented API"
FALLBACK = "input-selected fallback"
PROTOCOL = "protocol method"
IMPORT = "runs at import"

# Every package function that no operation of the three workloads enters
# (seeds 1-2), with the reason it stays: `perfbench/` looks it up or
# serves only such a function; README documents it; it runs only on an
# input that no workload has; Python's operators call it; or it runs
# while the package is imported.
UNREACHED = {
    "cli.cmd_suite": API,
    "ideals.PolyRing.zero": BENCHMARK,
    "ideals.Poly.__rsub__": PROTOCOL,
    "ideals.Poly.__eq__": PROTOCOL,
    "ideals.Poly.__ne__": PROTOCOL,
    "ideals._too_large": FALLBACK,
    "ideals._ceil_log2": API,
    "ideals._read_budget": API,
    "ideals._read": API,
    "ideals._read.<locals>.checked": API,
    "ideals._read.<locals>.read": API,
    "ideals._Substitution.lift": API,
    "ideals.Ideal.groebner": API,
    "ideals.Ideal._lift": API,
    "ideals.Ideal._image": FALLBACK,
    "ideals.Ideal.normal_form": BENCHMARK,
    "ideals.ideal_quotient": BENCHMARK,
    "liealg.memoised": IMPORT,
    "liealg.memoised.<locals>.decorate": IMPORT,
    "liealg.WeightedLieAlgebra.pair_bracket": BENCHMARK,
    "liealg.WeightedLieAlgebra._length_error": FALLBACK,
    "liealg.WeightedLieAlgebra.bracket": FALLBACK,
    "liealg.WeightedLieAlgebra.torus_kernel": BENCHMARK,
    "liealg.WeightedLieAlgebra.restrict": API,
    "liealg.WeightedLieAlgebra.regular_test": BENCHMARK,
    "liealg.WeightedLieAlgebra._nilpotent_by_rows": FALLBACK,
    "linalg.Matrix.__add__": BENCHMARK,
    "linalg.Matrix.scale": BENCHMARK,
    "linalg.Matrix.__matmul__": BENCHMARK,
    "linalg.Matrix.is_zero": BENCHMARK,
    "linalg.rank": BENCHMARK,
    "linalg.det": BENCHMARK,
    "linalg.det.<locals>.go": BENCHMARK,
    "linalg.nilpotent_terms": BENCHMARK,
    "linalg.exp_nilpotent": BENCHMARK,
    "linalg.PluckerVector.is_zero": BENCHMARK,
    "linalg.normalize_plucker": BENCHMARK,
    "linalg.plucker_limit": BENCHMARK,
    "orbit.Subspace.from_rows": BENCHMARK,
    "orbit.Subspace.__hash__": PROTOCOL,
    "orbit.act": BENCHMARK,
    "orbit.MembershipVerdict.certified": BENCHMARK,
    "orbit._refutation": FALLBACK,
    "report.VerificationReport.render_markdown": API,
}


def test_every_unreached_function_has_a_reason(traffic, capsys):
    """The functions no workload enters are exactly those with a reason
    to stay, in package order; a new one fails here until it is deleted
    or given its reason."""
    assert traffic.main(["--workload", "geometry", "charts", "queries", "--seeds", "1-2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" operations, 0 raised")
    unreached = [label.split(":")[0] for label in listing(lines)[1]]
    assert unreached == list(UNREACHED)


def test_a_second_call_lists_what_the_first_did(traffic, capsys):
    """The tool empties the CLI's process-wide caches before each
    (workload, seed), so a function whose result an earlier call kept
    there is entered again, as in a benchmark run's fresh process."""
    listings = []
    for _ in range(2):
        assert traffic.main(["--workload", "geometry", "charts", "--seeds", "1"]) == 0
        listings.append(listing(capsys.readouterr().out.splitlines())[:2])
    assert listings[0] == listings[1]
    assert {"cli.shared_algebra", "cli.ps_section", "cli._parser"} <= set(listings[1][0])
