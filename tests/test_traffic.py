"""`tools/traffic.py` on a canned list of two operations and on a
`queries` run: which package functions the operations enter, and which
none does."""

import importlib.util
import os
import sys

import pytest

from orbitvar import models, orbit

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
        workloads.Op("fixed-points A2", lambda: orbit.torus_fixed_points(alg), lambda r: (len(r) == 8, True)),
        workloads.Op("membership A2", lambda: orbit.membership(alg, orbit.torus_subspace(alg)), lambda r: (r.certified, True)),
        workloads.Op("raises", fail, lambda r: (False, False)),
    ]
    entered, ran, failed = traffic.traffic(ops[:2])
    assert (ran, failed) == (2, 0)
    assert entered["orbit.torus_fixed_points"] == 1
    assert entered["orbit.membership"] == 1
    assert entered["orbit.act"] == 1  # membership's orbit word, re-verified
    assert "ideals._read" not in entered and "orbit.torus_fixed_points" not in traffic.traffic(ops[2:])[0]
    assert traffic.traffic(ops[2:])[1:] == (1, 1)
    functions = traffic.package_functions()
    assert {"orbit.torus_fixed_points", "ideals._read", "orbit.CurveSubspace.limit"} <= set(functions)
    assert len(functions) == len(set(functions)) and set(entered) <= set(functions)


def test_an_operation_on_an_invalid_input_is_skipped(traffic):
    import workloads

    alg = models.builtin("borel-nilradical-A2")
    ops = [
        workloads.Op("validate x", lambda: 1, lambda r: (True, True), needs=None, meta={"validates": "x"}),
        workloads.Op("fixed-points x", lambda: orbit.torus_fixed_points(alg), lambda r: (True, True), needs="x"),
    ]
    assert traffic.traffic(ops) == ({}, 1, 0)


def test_a_queries_run(traffic, capsys):
    before = sorted(os.listdir(os.path.join(ROOT, "perfbench")))
    assert traffic.main(["--workload", "queries", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload queries, seeds 1-1: 300 operations, 0 raised"
    assert lines[1] == "operations  function"
    split = next(i for i, line in enumerate(lines) if line.startswith("not entered by any operation"))
    counts = [int(line.split()[0]) for line in lines[2:split]]
    assert counts == sorted(counts, reverse=True) and 0 < counts[-1] <= counts[0] <= 300
    unreached = [line.strip() for line in lines[split + 1 :]]
    assert lines[split] == f"not entered by any operation ({len(unreached)}):"
    assert "ideals._read" in unreached
    assert sorted(os.listdir(os.path.join(ROOT, "perfbench"))) == before


def test_importing_the_tool_leaves_the_interpreter_as_it_was():
    path, flag = list(sys.path), sys.dont_write_bytecode
    spec = importlib.util.spec_from_file_location("traffic", os.path.join(ROOT, "tools", "traffic.py"))
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert (sys.path, sys.dont_write_bytecode) == (path, flag)
