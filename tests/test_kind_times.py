"""`tools/kind_times.py`: the working tree's package loaded a second
time under another name, both timed on a short `queries` stream with
the same answers, each query first on each side in turn, the table it
prints, orbit words that differ but re-verify counted apart from other
differences, and the arguments and refs it refuses."""

import importlib.util
import os
import subprocess
import sys

import pytest

import orbitvar
from orbitvar import orbit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIRS = tuple(os.path.join(ROOT, d) for d in ("perfbench", "tools"))
KINDS = {
    "member-orbit", "member-fixed", "member-random", "multipoint-generic", "multipoint-graded",
    "biggest-torus-orbit", "biggest-torus-graded", "pair-relation",
}


@pytest.fixture
def kind_times(monkeypatch):
    """The tool with `perfbench/` and `tools/` on `sys.path` and bytecode
    writing off, as its script use sets them; afterwards `sys.modules`
    holds neither directory's modules nor the second package."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for path in BENCH_DIRS:
        monkeypatch.syspath_prepend(path)
    spec = importlib.util.spec_from_file_location("kind_times", os.path.join(ROOT, "tools", "kind_times.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == module.REF_PACKAGE or os.path.dirname(getattr(mod, "__file__", None) or "") in BENCH_DIRS:
            del sys.modules[name]


def test_a_second_copy_of_the_package_is_its_own(kind_times):
    ref = kind_times.load_package(os.path.join(ROOT, "src", "orbitvar"), kind_times.REF_PACKAGE)
    assert ref.__name__ == "orbitvar_ref" and ref is not orbitvar
    assert ref.orbit is not orbit and ref.orbit.WeightedLieAlgebra is ref.liealg.WeightedLieAlgebra
    assert ref.liealg._MEMO_KEYS is not sys.modules["orbitvar.liealg"]._MEMO_KEYS
    again = kind_times.load_package(os.path.join(ROOT, "src", "orbitvar"), kind_times.REF_PACKAGE)
    assert again is not ref and sys.modules["orbitvar_ref.orbit"] is again.orbit


def test_both_sides_time_every_kind_with_the_same_answers(kind_times):
    ref = kind_times.load_package(os.path.join(ROOT, "src", "orbitvar"), kind_times.REF_PACKAGE)
    times, differed, words = kind_times.kind_times(ref, orbitvar, [1], rounds=2, seconds=4)
    assert differed == words == 0 and set(times) == KINDS
    assert sum(len(ref_times) for ref_times, _ in times.values()) == 2 * 60
    assert all(len(a) == len(b) and min(a + b) > 0 for a, b in times.values())
    lines = kind_times.format_table(times).splitlines()
    assert lines[0].split() == ["kind", "calls", "ref", "us", "tree", "us", "%"]
    assert [line.split()[0] for line in lines[1:]] == sorted(KINDS)
    assert all(len(line.split()) == 5 for line in lines[1:])


def test_each_query_goes_first_on_each_side_in_turn(kind_times, monkeypatch):
    """Over two rounds every query runs first once on each side, and the
    first side alternates along the stream.  A stream of even length
    (60 queries here, 300 in a benchmark run) gave each query the same
    first side in every round when the order alternated along the stream
    alone."""
    ref = kind_times.load_package(os.path.join(ROOT, "src", "orbitvar"), kind_times.REF_PACKAGE)
    sides = []
    timed = kind_times.timed

    def recording(call):
        names = dict(zip(call.__code__.co_freevars, (cell.cell_contents for cell in call.__closure__)))
        sides.append(type(names["alg"]).__module__.split(".")[0])
        return timed(call)

    monkeypatch.setattr(kind_times, "timed", recording)
    kind_times.kind_times(ref, orbitvar, [1], rounds=2, seconds=4)
    first, second = sides[0::2], sides[1::2]
    assert len(first) == 2 * 60 and all(a != b for a, b in zip(first, second))
    assert all(a != b for a, b in zip(first[:60], first[60:]))
    assert all(a != b for a, b in zip(first[:59], first[1:60]))


def test_a_changed_answer_is_counted(kind_times, monkeypatch):
    ref = kind_times.load_package(os.path.join(ROOT, "src", "orbitvar"), kind_times.REF_PACKAGE)
    monkeypatch.setattr(orbit, "biggest_torus", lambda alg, v: ())
    times, differed, words = kind_times.kind_times(ref, orbitvar, [1], rounds=1, seconds=4)
    assert 0 < differed <= sum(len(times[kind][0]) for kind in ("biggest-torus-orbit", "biggest-torus-graded"))
    assert words == 0


def with_word(verdict, word):
    return type(verdict)(verdict.kind, tuple(word), verdict.witness, verdict.reason)


def test_a_reverified_word_is_counted_apart(kind_times, monkeypatch):
    """Orbit words that differ from the ref's are counted apart when
    each maps t to V by its own side's `act` (here each orbit word with
    a factor of zero added, which moves nothing), and as changed
    answers when the tree's does not (here the word of t alone)."""
    ref = kind_times.load_package(os.path.join(ROOT, "src", "orbitvar"), kind_times.REF_PACKAGE)
    membership = orbit.membership

    def padded(alg, v):
        verdict = membership(alg, v)
        return with_word(verdict, verdict.params + ((0, 0),)) if verdict.kind == "orbit" else verdict

    monkeypatch.setattr(orbit, "membership", padded)
    _, differed, words = kind_times.kind_times(ref, orbitvar, [1], rounds=1, seconds=4)
    assert differed == 0 and words > 0

    def emptied(alg, v):
        verdict = membership(alg, v)
        return with_word(verdict, ()) if verdict.kind == "orbit" and verdict.params else verdict

    monkeypatch.setattr(orbit, "membership", emptied)
    _, differed, again = kind_times.kind_times(ref, orbitvar, [1], rounds=1, seconds=4)
    assert differed > 0 and again == 0


def test_bad_arguments_and_refs(kind_times, capsys):
    with pytest.raises(SystemExit) as stop:
        kind_times.main(["--rounds", "0"])
    assert stop.value.code == 2 and "--rounds must be at least 1" in capsys.readouterr().err
    assert kind_times.main(["--ref", "no-such-ref-anywhere", "--seeds", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: git archive no-such-ref-anywhere")


def test_a_run_against_head(kind_times, capsys):
    if subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "HEAD"], capture_output=True).returncode:
        pytest.skip("not a git checkout with a HEAD")
    status = kind_times.main(["--seeds", "1", "--rounds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "queries, seeds 1-1, 1 rounds, HEAD -> working tree, median latency per kind"
    assert [line.split()[0] for line in lines[2:-2]] == sorted(KINDS)
    assert lines[-2].startswith("orbit words that differed, each re-verified: ")
    assert status == (lines[-1] != "answers that differed: 0")  # 1 once a change alters an answer
