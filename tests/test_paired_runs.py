"""`tools/paired_runs.py` on canned results: the summary it prints, the
seed ranges it reads, and the runs and trees it refuses, without running
the benchmark."""

import argparse
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("paired_runs", os.path.join(ROOT, "tools", "paired_runs.py"))
paired_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_runs)

METRICS = [{"name": "query_p50_ms", "better": "lower"}, {"name": "queries_per_s", "better": "higher"}]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    END_TO_END = [m["name"] for m in json.load(f)["end_to_end"]]


def run_output(correct=True, **metrics):
    """What `perfbench/run.py` prints: lines in words, then one JSON line."""
    last = {
        "correct": correct,
        "attempted": 300,
        "failed": 0 if correct else 2,
        "metrics": {name: {"value": value, "unit": "ms"} for name, value in metrics.items()},
    }
    return "workload queries, seed 1: 300 operations\nquery_p50_ms 0.1 ms\n" + json.dumps(last) + "\n"


class TestSummary:
    def test_medians_quartiles_change_and_wins(self):
        ref = [0.120, 0.124, 0.118, 0.130, 0.122]
        new = [0.100, 0.125, 0.101, 0.104, 0.099]
        pairs = [({"query_p50_ms": a, "queries_per_s": 1 / a}, {"query_p50_ms": b, "queries_per_s": 1 / b}) for a, b in zip(ref, new)]
        p50, qps = paired_runs.summarize(pairs, METRICS)
        assert p50["ref_median"] == 0.122 and p50["change_median"] == 0.101
        assert (p50["ref_q1"], p50["ref_q3"]) == (0.120, 0.124)
        assert p50["percent"] == pytest.approx(100 * (0.101 - 0.122) / 0.122)
        assert p50["wins"] == 4 and p50["pairs"] == 5  # 0.125 > 0.124 loses
        assert qps["wins"] == 4 and qps["percent"] > 0  # higher is better
        text = paired_runs.format_summary([p50, qps])
        lines = text.splitlines()
        assert lines[1].split() == ["query_p50_ms", "0.122", "0.12-0.124", "0.101", "-17.2", "4/5"]
        assert lines[2].split()[0] == "queries_per_s" and lines[2].split()[-1] == "4/5"

    def test_a_tie_is_no_win_and_a_zero_median_has_no_percent(self):
        pairs = [({"query_p50_ms": 0.0, "queries_per_s": 5.0}, {"query_p50_ms": 0.0, "queries_per_s": 5.0})] * 3
        p50, qps = paired_runs.summarize(pairs, METRICS)
        assert p50["percent"] is None and p50["wins"] == qps["wins"] == 0
        assert "n/a" in paired_runs.format_summary([p50])

    def test_one_pair(self):
        (p50,) = paired_runs.summarize([({"query_p50_ms": 2.0}, {"query_p50_ms": 1.0})], METRICS[:1])
        assert (p50["ref_q1"], p50["ref_median"], p50["ref_q3"], p50["wins"]) == (2.0, 2.0, 2.0, 1)


BOUNDED = [{"name": "query_p50_ms", "better": "lower", "bound": 0.1}, {"name": "queries_per_s", "better": "higher", "bound": 0.1}]


def bounded_pairs(ref, new):
    return [({"query_p50_ms": a, "queries_per_s": 1 / a}, {"query_p50_ms": b, "queries_per_s": 1 / b}) for a, b in zip(ref, new)]


class TestVerdicts:
    def test_within_bound(self):
        # ref quartiles 0.99-1.01, a spread of 2% against a 10% bound
        rows = paired_runs.summarize(bounded_pairs([1.0, 0.99, 1.01, 1.0, 1.0], [1.05, 1.04, 1.06, 1.05, 0.98]), BOUNDED)
        assert [r["verdict"] for r in rows] == ["within bound", "within bound"]

    def test_worse_past_bound(self):
        rows = paired_runs.summarize(bounded_pairs([1.0, 0.99, 1.01, 1.0, 1.0], [1.2, 1.1, 1.3, 1.15, 0.98]), BOUNDED)
        assert [r["verdict"] for r in rows] == ["worse past bound", "worse past bound"]
        assert rows[0]["change_median"] == 1.15

    def test_unresolved(self):
        # ref quartiles 0.9-1.2, a spread of 30% against a 10% bound, and one pair lost
        ref = [0.9, 1.0, 1.2, 0.8, 1.3]
        rows = paired_runs.summarize(bounded_pairs(ref, [1.3, 0.95, 1.1, 0.7, 1.2]), BOUNDED)
        assert [r["verdict"] for r in rows] == ["unresolved", "unresolved"]
        # a wide spread that every pair beats is resolved: within the bound
        rows = paired_runs.summarize(bounded_pairs(ref, [x * 0.8 for x in ref]), BOUNDED)
        assert [r["verdict"] for r in rows] == ["within bound", "within bound"]
        # a narrow spread is resolved whatever the pairs read
        rows = paired_runs.summarize(bounded_pairs([1.0, 1.01, 0.99, 1.0, 1.0], [0.7, 1.3, 1.3, 1.3, 0.7]), BOUNDED)
        assert rows[0]["verdict"] == "worse past bound"

    def test_the_verdicts_are_printed_after_the_table(self):
        rows = paired_runs.summarize(bounded_pairs([1.0, 0.99, 1.01], [1.2, 1.1, 1.3]), BOUNDED)
        lines = paired_runs.format_summary(rows).splitlines()
        assert lines[3:] == [
            "verdicts, each bound relative to the ref median:",
            f"{'query_p50_ms':<16} worse past bound",
            f"{'queries_per_s':<16} worse past bound",
        ]
        assert "verdicts" not in paired_runs.format_summary(paired_runs.summarize(bounded_pairs([1.0], [1.0]), METRICS))

    def test_every_benchmark_metric_gets_a_verdict(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            metrics = json.load(f)["end_to_end"]
        pairs = [({m["name"]: 1.0 for m in metrics}, {m["name"]: 1.0 for m in metrics})] * 4
        assert [r["verdict"] for r in paired_runs.summarize(pairs, metrics)] == ["within bound"] * len(metrics)


class TestRunsAndTrees:
    def test_a_run_is_read_from_its_last_line(self):
        assert paired_runs.parse_run(run_output(query_p50_ms=0.1, queries_per_s=6000)) == {
            "query_p50_ms": 0.1,
            "queries_per_s": 6000,
        }

    def test_an_incorrect_run_fails(self):
        with pytest.raises(paired_runs.PairedRunError, match="not correct: 2 of 300"):
            paired_runs.parse_run(run_output(correct=False, query_p50_ms=0.1))
        with pytest.raises(paired_runs.PairedRunError, match="printed nothing"):
            paired_runs.parse_run("")

    def test_a_bytecode_cache_is_found(self, tmp_path):
        assert paired_runs.bytecode_cache(str(tmp_path)) is None
        (tmp_path / "src" / "orbitvar" / "__pycache__").mkdir(parents=True)
        assert paired_runs.bytecode_cache(str(tmp_path)).endswith(os.path.join("orbitvar", "__pycache__"))

    def test_the_tree_with_a_cache_is_refused_before_any_run(self, monkeypatch, capsys):
        monkeypatch.setattr(paired_runs, "export", lambda ref, into: os.makedirs(os.path.join(into, "src", "orbitvar", "__pycache__")))

        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(paired_runs, "run_side", no_run)
        assert paired_runs.main(["--workload", "queries", "--seeds", "1-2"]) == 2
        assert "__pycache__" in capsys.readouterr().err

    def test_runs_alternate_and_are_summarized(self, monkeypatch, capsys):
        monkeypatch.setattr(paired_runs, "export", lambda ref, into: None)
        monkeypatch.setattr(paired_runs, "bytecode_cache", lambda root: None)
        order = []

        def fake_run(root, workload, seed):
            side = "change" if root == paired_runs.ROOT else "ref"
            order.append((seed, side))
            p50 = 0.12 if side == "ref" else 0.10
            return paired_runs.parse_run(run_output(**{name: p50 for name in END_TO_END}))

        monkeypatch.setattr(paired_runs, "run_side", fake_run)
        assert paired_runs.main(["--workload", "queries", "--seeds", "7-9"]) == 0
        assert order == [(7, "ref"), (7, "change"), (8, "change"), (8, "ref"), (9, "ref"), (9, "change")]
        out = capsys.readouterr().out
        assert "queries, seeds 7-9, HEAD -> working tree, 3 pairs" in out
        assert any(line.split()[:1] == ["query_p50_ms"] and line.split()[-2:] == ["-16.7", "3/3"] for line in out.splitlines())

    def test_a_failed_run_stops_the_comparison(self, monkeypatch, capsys):
        monkeypatch.setattr(paired_runs, "export", lambda ref, into: None)
        monkeypatch.setattr(paired_runs, "bytecode_cache", lambda root: None)
        monkeypatch.setattr(paired_runs, "run_side", lambda root, workload, seed: paired_runs.parse_run(run_output(correct=False)))
        assert paired_runs.main(["--workload", "queries", "--seeds", "1"]) == 1
        assert "not correct" in capsys.readouterr().err

    @pytest.mark.parametrize("text,seeds", [("3-5", [3, 4, 5]), ("7", [7])])
    def test_seed_ranges(self, text, seeds):
        assert paired_runs.seed_range(text) == seeds

    @pytest.mark.parametrize("text", ["5-3", "a-b", "1-", ""])
    def test_bad_seed_ranges(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            paired_runs.seed_range(text)


class TestClaim:
    def test_claim_met(self):
        # 9 of 10 pairs won, medians 1.0 -> 0.8 against a spread of 0.02
        ref = [1.0, 0.99, 1.01, 1.0, 1.0, 0.99, 1.01, 1.0, 1.0, 1.0]
        new = [0.8] * 9 + [1.1]
        p50, qps = paired_runs.summarize(bounded_pairs(ref, new), BOUNDED)
        assert paired_runs.claim(p50).startswith("claim query_p50_ms: met (9/10 pairs won")
        assert paired_runs.claim(qps).startswith("claim queries_per_s: met (9/10 pairs won")

    def test_too_few_wins(self):
        ref = [1.0, 0.99, 1.01, 1.0, 1.0, 0.99, 1.01, 1.0, 1.0, 1.0]
        new = [0.8] * 8 + [1.1, 1.0]  # the tie wins nothing
        (p50,) = paired_runs.summarize(bounded_pairs(ref, new), BOUNDED[:1])
        assert paired_runs.claim(p50).startswith("claim query_p50_ms: not met (8/10 pairs won")

    def test_gain_inside_the_spread(self):
        # every pair won, but the medians differ by 0.05 and the ref's quartiles by 0.2
        ref = [0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 0.8, 1.2]
        new = [x - 0.05 for x in ref]
        (p50,) = paired_runs.summarize(bounded_pairs(ref, new), BOUNDED[:1])
        assert p50["wins"] == 8 and p50["ref_q3"] - p50["ref_q1"] > 0.05
        assert paired_runs.claim(p50).startswith("claim query_p50_ms: not met (8/8 pairs won")

    def test_the_claim_is_printed_after_the_verdicts(self, monkeypatch, capsys):
        monkeypatch.setattr(paired_runs, "export", lambda ref, into: None)
        monkeypatch.setattr(paired_runs, "bytecode_cache", lambda root: None)

        def fake_run(root, workload, seed):
            p50 = (0.12 + seed / 1000) if root != paired_runs.ROOT else 0.10
            return paired_runs.parse_run(run_output(**{name: p50 for name in END_TO_END}))

        monkeypatch.setattr(paired_runs, "run_side", fake_run)
        assert paired_runs.main(["--workload", "geometry", "--seeds", "1-10", "--claim", "query_p90_ms"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("claim query_p90_ms: met (10/10 pairs won")

    def test_an_unknown_metric_is_refused_before_any_run(self, monkeypatch, capsys):
        monkeypatch.setattr(paired_runs, "export", lambda ref, into: pytest.fail("the ref was exported"))
        monkeypatch.setattr(paired_runs, "run_side", lambda *args: pytest.fail("a run started"))
        assert paired_runs.main(["--workload", "geometry", "--seeds", "1-10", "--claim", "query_p99_ms"]) == 2
        assert "query_p99_ms" in capsys.readouterr().err
