"""Self-tests of the benchmark: span arithmetic, seeded inputs, the
correctness gate and the tracer's clean-up.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tmp_path():
    """A scratch directory inside the checkout, like the benchmark's own."""
    os.makedirs(run.OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
    yield pathlib.Path(path)
    shutil.rmtree(path, ignore_errors=True)


def test_self_time_of_nested_spans():
    # op [0, 10) holds a [1, 6) and c [7, 9); a holds b [2, 4)
    spans = [
        ("bench.op", 0.0, 10.0, -1, 0),
        ("orbit.act", 1.0, 6.0, 0, 0),
        ("linalg.matmul", 2.0, 4.0, 1, 0),
        ("orbit.act", 7.0, 9.0, 0, 0),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    s = tracer.summarize(spans, {})
    assert s["self_s"] == {"bench": 3.0, "orbit": 5.0, "linalg": 2.0}
    assert s["calls"]["orbit.act"] == 2
    assert s["s"]["orbit.act"] == 7.0


def test_recursive_span_counts_inclusive_time_once():
    spans = [
        ("orbit.act", 0.0, 4.0, -1, 0),
        ("orbit.act", 1.0, 3.0, 0, 0),
    ]
    s = tracer.summarize(spans, {})
    assert s["s"]["orbit.act"] == 4.0
    assert s["self_s"]["orbit"] == 4.0


def test_same_seed_same_inputs(tmp_path):
    def stream(seed):
        return [(op.key, json.dumps(op.meta["input"])) for op in workloads.query_ops(seed, 2)]

    assert stream(5) == stream(5)
    assert stream(5) != stream(6)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    golden = workloads.load_golden()
    keys_a = [op.key for op in workloads.cli_ops("geometry", 7, str(a), golden)]
    keys_b = [op.key for op in workloads.cli_ops("geometry", 7, str(b), golden)]
    assert keys_a == keys_b
    for name in workloads.GENERATED:
        assert (a / f"{name}.json").read_bytes() == (b / f"{name}.json").read_bytes()


def test_speed_factor_scales_by_nearby_reference_samples():
    # the host ran at half the reference speed around the first operation
    # and at the reference speed around the second
    slow, usual = 2 * run.REF_S, run.REF_S
    res = {
        "ops": [{"t0": 0.0, "slot_s": 1.0}, {"t0": 100.0, "slot_s": 1.0}],
        "reference": [(-1.0, slow)] * run.REF_NEAREST + [(102.0, usual)] * run.REF_NEAREST,
    }
    assert run.speed_factors(res) == [0.5, 1.0]
    assert run.wall(res) == 1.5
    assert run.measured_wall(res) == 2.0


def test_quantile_of_a_symmetric_sample_is_its_middle():
    assert run.quantile([1.0, 2.0, 4.0], 0.5) == pytest.approx(2.0)
    xs = [float(i) for i in range(1, 1001)]
    assert run.quantile(xs, 0.9) == pytest.approx(900, rel=0.01)


def test_validation_precedes_every_command_on_a_generated_input(tmp_path):
    for seed in range(8):
        ops = workloads.build("geometry", seed, 1, str(tmp_path))
        validated = set()
        for op in ops:
            assert op.needs is None or op.needs in validated
            if op.meta.get("validates"):
                validated.add(op.meta["validates"])


def test_query_counts_fill_the_stream():
    for n in (24, 240, 241):
        counts = workloads.query_counts(n)
        assert sum(counts) == n and min(counts) >= 0


def test_every_golden_key_is_used_by_a_workload(tmp_path):
    golden = workloads.load_golden()
    keys = set()
    for workload in ("geometry", "charts"):
        for seed in range(workloads.VARIANTS):
            keys |= {op.key for op in workloads.cli_ops(workload, seed, str(tmp_path), golden)}
    assert keys == set(golden)


def test_corrupted_golden_digest_counts_as_failed(tmp_path):
    golden = dict(workloads.load_golden())
    key = "validate sl2-borel"
    out = str(tmp_path / "report.json")
    good = workloads.cli_op(key, ["validate", "--builtin", "sl2-borel"], out, golden)
    bad_golden = dict(golden, **{key: dict(golden[key], sha256="0" * 64)})
    bad = workloads.cli_op(key, ["validate", "--builtin", "sl2-borel"], out, bad_golden)
    records, samples = worker.run_ops([good, bad], None)
    assert [r["ok"] for r in records] == [True, False]
    res = {"ops": records, "reference": samples, "peak_rss_mb": 1.0}
    assert run.end_to_end([1.0], res)["verified_ratio"] == 0.5


def test_crash_is_a_failure_not_a_refutation(tmp_path):
    path = tmp_path / "central.json"
    path.write_text(json.dumps(workloads.heisenberg_central_extension(0).to_json()))
    golden = {"boundary x": {"exit": 1, "sha256": "0" * 64}}
    op = workloads.cli_op("boundary x", ["boundary", "--input", str(path)], str(tmp_path / "r.json"), golden)
    (rec,), _ = worker.run_ops([op], None)
    assert not rec["ok"] and rec["error"]


def test_failed_validation_skips_dependent_ops(tmp_path):
    golden = {"validate x": {"exit": 0, "sha256": "0" * 64}}
    out = str(tmp_path / "r.json")
    check = workloads.cli_op("validate x", ["validate", "--builtin", "sl2-borel"], out, golden)
    check.meta["validates"] = "x"
    later = workloads.cli_op("boundary x", ["boundary", "--builtin", "sl2-borel"], out, golden, needs="x")
    records, _ = worker.run_ops([check, later], None)
    assert records[1]["error"] == "input x failed validation"


def _patch_targets():
    import sympy

    from orbitvar import cli, ideals, liealg, linalg, orbit, report

    owners = (linalg, liealg, orbit, ideals, report, cli, sympy, linalg.Matrix,
              liealg.WeightedLieAlgebra, orbit.CurveSubspace, ideals.Ideal, report.VerificationReport)
    return {(owner, name): value for owner in owners for name, value in vars(owner).items() if callable(value)}


def test_tracer_restores_every_wrapped_function():
    before = _patch_targets()
    tr = tracer.Tracer()
    with tr:
        during = _patch_targets()
    changed = {k for k in before if during[k] is not before[k]}
    from orbitvar import ideals, linalg, orbit

    for key in [(linalg, "rref"), (orbit, "rref"), (orbit, "plucker_limit"), (linalg.Matrix, "__matmul__"),
                (orbit, "membership"), (ideals.Ideal, "groebner")]:
        assert key in changed
    after = _patch_targets()
    assert all(after[k] is before[k] for k in before)
    assert tr.spans == []


def test_tracer_reaches_imported_names_and_the_groebner_kernel():
    from orbitvar import ideals, models, orbit

    alg = models.builtin("borel-nilradical-A2")
    tr = tracer.Tracer()
    with tr:
        tr.run_op(0, lambda: orbit.membership(alg, orbit.torus_subspace(alg)))
        ring = ideals.PolyRing(("x", "y"))
        tr.run_op(1, lambda: ideals.hilbert_dimension(ideals.Ideal.make(ring, ["x*y", "x**2"])))
    s = tracer.summarize(tr.spans, tr.counts)
    for name in ("orbit.membership", "linalg.rref", "liealg.jordan_decompose", "ideals.groebner",
                 "ideals.Ideal.groebner", "ideals.hilbert_dimension"):
        assert s["calls"].get(name, 0) >= 1, name
    assert tr.counts["orbit.membership.certified"] == 1
    assert {span[4] for span in tr.spans} == {0, 1}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("kind", sorted({k for _, k, _ in workloads.QUERY_MIX}))
def test_each_query_kind_meets_its_ground_truth(kind):
    import random

    from orbitvar import models

    alg = models.builtin("borel-nilradical-A2")
    rng = random.Random(3)
    for _ in range(3):
        op = workloads.query_op(alg, kind, rng)
        ok, _ = op.check(op.call())
        assert ok
