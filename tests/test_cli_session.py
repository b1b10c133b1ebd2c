"""One `cli.main` process keeps one loaded algebra per value
(`cli.shared_algebra`), so a command reads the memo that earlier
commands on an equal algebra filled, and one `ps-check` section per
P_s (`cli.ps_section`).  Pinned here: a session of mixed commands gives,
call for call, the bytes and exit code of the same command after
`cache_clear()` (and of `perfbench/golden.json`, read only, where it has
the call); which loads share an instance; that a computation which
raised, a file rewritten in place, a failed validation and an eviction
all leave the next report as a fresh process writes it; that each P_s
section is computed once and every report gets `details` of its own;
that the body of `validate` runs once per algebra; and that no memo
holds a mutable value, which the sharing rests on."""

import dataclasses
import hashlib
import inspect
import json
import os
import random
import sys
from fractions import Fraction

import pytest

from orbitvar import cli, ideals, models, orbit
from orbitvar.liealg import WeightedLieAlgebra
from orbitvar.linalg import RankDeficientError
from orbitvar.orbit import PreconditionFailedError
from test_property_p import VARIANTS, borel_nilradical_a4, heisenberg_central_extension
from test_report_pins import CHART_REPORTS

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "golden.json")
GEOMETRY_BUILTINS = ("sl2-borel", "borel-nilradical-A2", "heisenberg-3", "abelian:3", "borel-nilradical-A3")
GEOMETRY_COMMANDS = ("validate", "fixed-points", "boundary", "property-p")
CHART_BUILTINS = ("borel-nilradical-A2", "heisenberg-3", "abelian:3")
CHART_COMMANDS = ("chart", "nilcone", "ps-check")
GENERATED = {"borel-nilradical-A4": borel_nilradical_a4, "heisenberg-3-central": heisenberg_central_extension}
# boundary components need a trivial center, and the central extension's is a line
RAISES = {f"boundary heisenberg-3-central v{v}" for v in VARIANTS}


def session_calls(directory) -> dict:
    """Every call of a session, keyed as `perfbench/golden.json` keys it
    where it has the call: the geometry commands on the builtins and on
    the generated algebras read from JSON, the chart commands on the
    chart builtins, and a nonzero seed and the markdown format."""
    calls = {}
    for b in GEOMETRY_BUILTINS:
        for c in GEOMETRY_COMMANDS:
            calls[f"{c} {b}"] = [c, "--builtin", b]
    for name, make in GENERATED.items():
        for v in VARIANTS:
            path = os.path.join(directory, f"{name}-v{v}.json")
            with open(path, "w") as fh:
                json.dump(make(v).to_json(), fh, sort_keys=True)
            for c in GEOMETRY_COMMANDS:
                calls[f"{c} {name} v{v}"] = [c, "--input", path]
    for b in CHART_BUILTINS:
        for c in CHART_COMMANDS:
            calls[f"{c} {b}"] = [c, "--builtin", b]
    calls["fixed-points borel-nilradical-A2 --seed 3"] = ["fixed-points", "--builtin", "borel-nilradical-A2", "--seed", "3"]
    calls["boundary borel-nilradical-A2 --format markdown"] = ["boundary", "--builtin", "borel-nilradical-A2", "--format", "markdown"]
    return calls


def call(key: str, argv: list, out) -> tuple:
    """The exit code and report bytes of one in-process call; a call in
    `RAISES` must raise `PreconditionFailedError` and write nothing."""
    if os.path.exists(out):
        os.remove(out)
    if key in RAISES:
        with pytest.raises(PreconditionFailedError):
            cli.main(argv + ["--output", str(out)])
        assert not os.path.exists(out)
        return None, None
    code = cli.main(argv + ["--output", str(out)])
    with open(out, "rb") as fh:
        return code, fh.read()


def clear_caches():
    """Forget what the process shares: the loaded algebras and the
    `ps-check` sections."""
    cli.shared_algebra.cache_clear()
    cli.ps_section.cache_clear()


def fresh_call(key: str, argv: list, out) -> tuple:
    clear_caches()
    return call(key, argv, out)


def loaded(*argv) -> WeightedLieAlgebra:
    return cli.load_algebra(cli._parser().parse_args(["validate", *argv]))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The calls and the result of each one after `cache_clear()`."""
    directory = tmp_path_factory.mktemp("session")
    calls = session_calls(str(directory))
    results = {key: fresh_call(key, argv, directory / "report") for key, argv in calls.items()}
    clear_caches()
    return directory, calls, results


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_session_writes_what_fresh_calls_write(fresh, seed):
    directory, calls, results = fresh
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    keys = list(calls)
    random.Random(seed).shuffle(keys)
    clear_caches()
    for key in keys:
        code, report = call(key, calls[key], directory / "report")
        assert (code, report) == results[key], key
        if key in golden:
            assert code == golden[key]["exit"], key
            assert hashlib.sha256(report).hexdigest() == golden[key]["sha256"], key
    # each distinct algebra loaded once (central extension variants 1 and 3 are one value)
    distinct = {models.builtin(b) for b in GEOMETRY_BUILTINS} | {make(v) for make in GENERATED.values() for v in VARIANTS}
    info = cli.shared_algebra.cache_info()
    assert info.currsize == info.misses == len(distinct) == 12
    assert info.hits == len(keys) - len(distinct)
    assert cli.ps_section.cache_info().misses == 3
    clear_caches()


def test_the_golden_digests_cover_the_workload_calls(fresh):
    """Every geometry and charts call of the benchmark is one of the
    session's, so the session checks each against its digest."""
    _, calls, _ = fresh
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert set(golden) <= set(calls)


# -- what is shared ------------------------------------------------------


def test_equal_values_load_one_instance(tmp_path):
    cli.shared_algebra.cache_clear()
    alg = models.heisenberg_3()
    text = json.dumps(alg.to_json())
    (tmp_path / "a.json").write_text(text)
    (tmp_path / "b.json").write_text(text)
    (tmp_path / "c.json").write_text(json.dumps(alg.to_json(), sort_keys=True, indent=2))
    first = loaded("--builtin", "heisenberg-3")
    assert loaded("--input", str(tmp_path / "a.json")) is first
    assert loaded("--input", str(tmp_path / "b.json")) is first
    assert loaded("--input", str(tmp_path / "c.json")) is first
    assert loaded("--builtin", "heisenberg-3") is first
    # the library still hands out fresh instances
    assert models.builtin("heisenberg-3") is not first
    assert WeightedLieAlgebra.from_json(alg.to_json()) is not first
    cli.shared_algebra.cache_clear()


def test_the_four_a4_presentations_load_four_instances(tmp_path):
    cli.shared_algebra.cache_clear()
    paths = []
    for v in VARIANTS:
        paths.append(tmp_path / f"a4-v{v}.json")
        paths[-1].write_text(json.dumps(borel_nilradical_a4(v).to_json()))
    first = [loaded("--input", str(p)) for p in paths]
    assert len({id(alg) for alg in first}) == 4
    assert all(loaded("--input", str(p)) is alg for p, alg in zip(paths, first))
    cli.shared_algebra.cache_clear()


def test_a_file_rewritten_in_place_gives_the_report_of_its_new_content(tmp_path):
    path, out = tmp_path / "alg.json", tmp_path / "report"
    argv = ["fixed-points", "--input", str(path)]
    path.write_text(json.dumps(models.borel_nilradical_a2().to_json()))
    before = fresh_call("", argv, out)
    path.write_text(json.dumps(models.heisenberg_3().to_json()))
    after = fresh_call("", argv, out)
    assert before != after
    cli.shared_algebra.cache_clear()
    for text, want in ((models.borel_nilradical_a2(), before), (models.heisenberg_3(), after), (models.borel_nilradical_a2(), before)):
        path.write_text(json.dumps(text.to_json()))
        assert call("", argv, out) == want
    cli.shared_algebra.cache_clear()


def test_a_limit_that_raised_is_not_kept(tmp_path, monkeypatch):
    """The third witness limit raises once: the call propagates the
    error, the limits and records built before it stay, the failed one
    and the group-fixed points are not kept, and the next call writes
    the fresh report."""
    argv, out = ["fixed-points", "--builtin", "borel-nilradical-A3"], tmp_path / "report"
    want = fresh_call("", argv, out)
    cli.shared_algebra.cache_clear()
    limit, calls = orbit.CurveSubspace.limit, []

    def third_raises(curve):
        calls.append(curve)
        if len(calls) == 3:
            raise RankDeficientError("the basis rows of the curve are dependent")
        return limit(curve)

    monkeypatch.setattr(orbit.CurveSubspace, "limit", third_raises)
    with pytest.raises(RankDeficientError):
        cli.main(argv + ["--output", str(out)])
    alg = loaded("--builtin", "borel-nilradical-A3")
    for family in ("witness-limit", "fixed-point-record"):
        assert sum(isinstance(k, tuple) and k[0] == family for k in alg._memo) == 2
    assert "group-fixed-points" not in alg._memo
    assert call("", argv, out) == want
    assert len(calls) > 3
    cli.shared_algebra.cache_clear()


def test_an_algebra_that_fails_validation_exits_two_on_every_call(tmp_path, capsys):
    bad = WeightedLieAlgebra.build(2, ["x", "y"], {"x": [1, 0], "y": [2, 0]}, [])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    cli.shared_algebra.cache_clear()
    for command in ("fixed-points", "validate", "boundary", "fixed-points", "property-p", "validate"):
        code = cli.main([command, "--input", str(path)])
        out, err = capsys.readouterr()
        if command == "validate":
            assert code == 1 and json.loads(out)["summary"]["worst"] == "refuted"
        else:
            assert code == 2 and "fails validation" in err and not out
    cli.shared_algebra.cache_clear()


def test_validate_runs_once_per_algebra(tmp_path):
    """`validate`, `fixed-points` and `boundary` on one algebra: the
    `validate` command fills the memo that the check before each later
    command reads, so the body of `validate` runs once in the session."""
    clear_caches()
    code, runs = inspect.unwrap(WeightedLieAlgebra.validate).__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            runs.append(frame.f_locals["self"])

    out = tmp_path / "report"
    sys.setprofile(profile)
    try:
        codes = [cli.main([c, "--builtin", "borel-nilradical-A3", "--output", str(out)]) for c in ("validate", "fixed-points", "boundary")]
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0]
    assert len(runs) == 1 and runs[0] is loaded("--builtin", "borel-nilradical-A3")
    clear_caches()


def test_an_evicted_algebra_gives_the_same_bytes(tmp_path):
    argv, out = ["property-p", "--builtin", "borel-nilradical-A2"], tmp_path / "report"
    want = fresh_call("", argv, out)
    first = loaded("--builtin", "borel-nilradical-A2")
    for d in range(1, cli.ALGEBRA_CACHE_SIZE + 1):  # read from files: the builtin names stop at abelian:10
        path = tmp_path / f"abelian-{d}.json"
        path.write_text(json.dumps(models.abelian(d).to_json()))
        loaded("--input", str(path))
    assert cli.shared_algebra.cache_info().currsize == cli.ALGEBRA_CACHE_SIZE
    assert call("", argv, out) == want
    assert loaded("--builtin", "borel-nilradical-A2") is not first
    cli.shared_algebra.cache_clear()


# -- the ps-check sections ------------------------------------------------

PS_CALLS = {
    (command, name, fmt): [command, "--builtin", name, "--format", fmt]
    for fmt in ("json", "markdown")
    for command, name in [("ps-check", b) for b in CHART_BUILTINS] + [("suite", "borel-nilradical-A2")]
}


def test_the_ps_check_sections_are_computed_once_per_process(tmp_path, monkeypatch):
    """`ps-check` on the three chart builtins, then `suite` on A2, in
    both formats: one process writes, call for call, what each call
    writes on cleared caches, and the JSON `ps-check` reports keep their
    pinned digests; P_2, P_3 and P_4 are each built once."""
    out = tmp_path / "report"
    want = {key: fresh_call("", argv, out) for key, argv in PS_CALLS.items()}
    for b in CHART_BUILTINS:
        code, report = want["ps-check", b, "json"]
        assert (code, hashlib.sha256(report).hexdigest()) == CHART_REPORTS["ps-check", b]
    clear_caches()
    built, minor_ideal = [], ideals.minor_ideal
    monkeypatch.setattr(ideals, "minor_ideal", lambda s: built.append(s) or minor_ideal(s))
    for key, argv in PS_CALLS.items():
        assert call("", argv, out) == want[key], key
    assert built == [2, 3, 4]
    info = cli.ps_section.cache_info()
    assert info.currsize == info.misses == 3
    assert info.hits == 3 * (len(PS_CALLS) - 1)
    clear_caches()


def test_each_report_gets_details_of_its_own():
    """Emptying one report's `details` changes neither the next
    `ps-check` report nor `suite`'s; no report holds a kept check or its
    `details` dict, and past that dict a kept check reaches no mutable
    value."""
    clear_caches()
    alg = models.builtin("abelian:3")
    want = cli.cmd_ps_check(alg, 0).render_json()
    first = cli.cmd_ps_check(alg, 0)
    suite = cli.cmd_suite(alg, 0)
    for c in first.checks:
        c.details.clear()
    assert cli.cmd_ps_check(alg, 0).render_json() == want
    shared = [c for c in suite.checks if c.name.startswith("ps-check/")]
    assert [c.details for c in shared] == [c.details for c in cli.cmd_ps_check(alg, 0).checks]
    for c in shared:
        c.details["dimension"] = -1
    assert cli.cmd_ps_check(alg, 0).render_json() == want
    assert not {id(c.details) for c in first.checks} & {id(c.details) for c in shared}
    kept = [c for s in (2, 3, 4) for c in cli.ps_section(s)]
    handed = first.checks + shared + cli.cmd_ps_check(alg, 0).checks
    assert not {id(c) for c in kept} & {id(c) for c in handed}
    assert not {id(c.details) for c in kept if c.details is not None} & {id(c.details) for c in handed}
    for c in kept:
        details = None if c.details is None else tuple(c.details.items())
        assert not list(mutable_parts((c.name, c.verdict, c.claim, c.witness, details), c.name, set())), c.name
    clear_caches()


def test_a_section_that_raised_is_not_kept(tmp_path, monkeypatch):
    """The cross-check of P_3 raises once: `ps-check` propagates the
    error and keeps P_2's section only; the next call computes P_3 and
    P_4 and writes the pinned report."""
    argv, out = ["ps-check", "--builtin", "heisenberg-3"], tmp_path / "report"
    want = fresh_call("", argv, out)
    assert (want[0], hashlib.sha256(want[1]).hexdigest()) == CHART_REPORTS["ps-check", "heisenberg-3"]
    clear_caches()
    crosscheck, calls = ideals.primality_crosscheck_P, []

    def raises_once(s, p=None):
        calls.append(s)
        if calls == [2, 3]:
            raise ideals.ScaleExceededError("the cross-check failed")
        return crosscheck(s, p)

    monkeypatch.setattr(ideals, "primality_crosscheck_P", raises_once)
    with pytest.raises(ideals.ScaleExceededError):
        cli.main(argv + ["--output", str(out)])
    assert cli.ps_section.cache_info().currsize == 1
    assert call("", argv, out) == want
    assert calls == [2, 3, 3, 4]
    assert call("", argv, out) == want
    assert calls == [2, 3, 3, 4]
    clear_caches()


# -- the memo holds immutable values only ---------------------------------

LEAVES = (int, Fraction, str, type(None))
# every memo key, one per fact; the memo tests assert that the commands
# fill exactly these families, so a new key, such as one holding a value
# another key already holds, fails them until it is justified here
FAMILIES = {
    "validate",
    "fingerprint",
    "ad-table",
    "bracket-coordinates",
    "exp-ad-chain",
    "kernel",
    "center",
    "jordan-preconditions",
    "weight-order",
    "factor-order",
    "witness-curve",
    "witness-limit",
    "fixed-point-record",
    "fixed-point-subsets",
    "group-fixed-points",
}


def mutable_parts(value, path: str, seen: set):
    """The paths of every value reachable from value that is not an int,
    a Fraction, a string, None, a tuple, a frozenset or a frozen
    dataclass: a list, a dict, a set, a dataclass that is not frozen, or
    any other object.  An algebra is walked without its memo."""
    if isinstance(value, LEAVES) or id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, (tuple, frozenset)):
        for i, item in enumerate(value):
            yield from mutable_parts(item, f"{path}[{i}]", seen)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type) and value.__dataclass_params__.frozen:
        for name, item in vars(value).items():
            if not (isinstance(value, WeightedLieAlgebra) and name == "_memo"):
                yield from mutable_parts(item, f"{path}.{name}", seen)
    else:
        yield f"{path}: {type(value).__name__}"


def test_mutable_parts_finds_each_kind():
    @dataclasses.dataclass
    class Open:
        x: int

    alg = models.borel_nilradical_a2()
    for bad in ([1], {1: 2}, {1}, Open(1), object()):
        assert list(mutable_parts((1, (bad,)), "v", set())) == [f"v[1][0]: {type(bad).__name__}"]
    assert not list(mutable_parts((alg, Fraction(1, 2), "s", None, frozenset({1})), "v", set()))


def test_every_memo_value_is_immutable():
    """Every command of the workloads on every workload algebra, and the
    library calls of the query stream, fill the memos; no value in them
    reaches a mutable object.  A4 leaves out `chart` and `nilcone`,
    which run for minutes, and a command whose precondition fails
    raises its typed error and keeps nothing of it."""
    a4 = [borel_nilradical_a4(v) for v in VARIANTS]
    algebras = [models.builtin(b) for b in GEOMETRY_BUILTINS] + a4
    algebras += [heisenberg_central_extension(v) for v in VARIANTS]
    for alg in algebras:
        for command, runner in cli.RUNNERS.items():
            if command == "suite" or (alg in a4 and command in ("chart", "nilcone")):
                continue
            try:
                runner(alg, 0)
            except (orbit.OrbitError, ideals.IdealError):
                assert alg.center().rows
    for alg in algebras[:5]:
        torus = orbit.torus_subspace(alg)
        orbit.membership(alg, orbit.act(alg, [(0, 2), (alg.n - 1, Fraction(-1, 2))], torus))
        record = orbit.torus_fixed_points(alg)[-1]
        orbit.membership(alg, record.subspace)
        orbit.multipoint_membership(alg, [record.subspace.basis.row(0)])
        orbit.biggest_torus(alg, record.subspace)
        orbit.verify_pair_relation(alg, alg.weights[0], samples=2, seed=1)
    families = set()
    for alg in algebras:
        for key, value in alg._memo.items():
            families.add(key if isinstance(key, str) else key[0])
            assert not list(mutable_parts(value, repr(key), set())), key
    assert families == FAMILIES
