"""The one memo path for per-algebra data, `liealg.memoised`:

- a weight subset given in any order reads the value of its sorted form;
- each decorated body runs once per key, and a body that raises keeps
  nothing;
- a missing chain of prefixes (`kernel`, `witness_curve`) is filled by a
  loop, so 2,000 weights need no deeper stack than one;
- a repeated or out-of-range index, or a weight of the wrong length, is
  refused with `AlgebraError` and keeps nothing;
- a key that another function uses is refused when it is decorated;
- `torus_kernel`, folded from `_kernel_step`, against
  `nullspace(weight_matrix(ws))`;

and `from_json`'s cap on t_dim + n, at the command line."""

import collections
import functools
import importlib
import json
import sys
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_reference import weight_matrix
from test_cli_session import FAMILIES
from test_grown_echelons import algebra_of, weight_sequences
from test_memo import FAITHFUL, SMALL
from test_weight_walks import borel_nilradical

from orbitvar import cli, liealg, models, orbit
from orbitvar.liealg import JSON_DIM_MAX, AlgebraError, Weight, WeightedLieAlgebra, _kernel_step, memoised
from orbitvar.linalg import Matrix, nullspace

A2 = models.borel_nilradical_a2()

DECORATED = {
    "fingerprint": WeightedLieAlgebra.fingerprint,
    "ad-table": WeightedLieAlgebra.ad_table,
    "bracket-coordinates": WeightedLieAlgebra.bracket_coordinates,
    "exp-ad-chain": WeightedLieAlgebra.exp_ad_chain,
    "kernel": WeightedLieAlgebra.kernel,
    "center": WeightedLieAlgebra.center,
    "jordan-preconditions": WeightedLieAlgebra.check_jordan_preconditions,
    "factor-order": WeightedLieAlgebra.factor_order,
    "witness-curve": orbit.witness_curve,
    "witness-limit": orbit.witness_limit,
    "fixed-point-record": orbit.fixed_point_record,
    "fixed-point-subsets": orbit._fixed_point_subsets,
    "group-fixed-points": orbit.group_fixed_points,
    "validate": WeightedLieAlgebra.validate,
}


def spread(n: int) -> WeightedLieAlgebra:
    """n weights (1, i + 1) on a 2-dimensional torus and no brackets."""
    names = [f"x{i}" for i in range(n)]
    return WeightedLieAlgebra.build(2, names, {nm: [1, i + 1] for i, nm in enumerate(names)})


def fill_memo(alg):
    """Every command of the geometry path and the library queries, so
    every decorated function runs on alg."""
    assert alg.is_valid()
    for command in ("validate", "fixed-points", "boundary", "property-p"):
        cli.RUNNERS[command](alg, 0)
    record = orbit.torus_fixed_points(alg)[-1]
    orbit.membership(alg, record.subspace)
    orbit.membership(alg, orbit.torus_subspace(alg))  # the orbit-word route
    orbit.multipoint_membership(alg, [record.subspace.basis.row(0)])
    alg.jordan_decompose(tuple(1 for _ in range(alg.dim)))


class BodyCalls:
    """Count the calls of the undecorated bodies by their code objects,
    keyed by their arguments other than the algebra; `plain` adds
    undecorated functions, by the names it maps them from."""

    def __init__(self, plain=None):
        self.codes = {fn.__wrapped__.__code__: key for key, fn in DECORATED.items()}
        self.codes.update({fn.__code__: name for name, fn in (plain or {}).items()})
        self.calls = collections.Counter()

    def __call__(self, frame, event, arg):
        if event == "call" and frame.f_code in self.codes:
            code = frame.f_code
            args = tuple(frame.f_locals[name] for name in code.co_varnames[1 : code.co_argcount])
            self.calls[self.codes[code], args] += 1

    def __enter__(self):
        sys.setprofile(self)
        return self.calls

    def __exit__(self, *exc):
        sys.setprofile(None)


# -- one value per sorted subset, one body call per key ---------------------------


class TestOneValuePerKey:
    @settings(max_examples=40, deadline=None)
    @given(spec=SMALL, data=st.data())
    def test_any_order_reads_the_sorted_value(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        subset = tuple(data.draw(st.sets(st.integers(0, alg.n - 1))) if alg.n else ())
        shuffled = data.draw(st.permutations(subset))
        assert alg.kernel(shuffled) is alg.kernel(tuple(sorted(subset)))
        if alg.centralizer_in_a(subset):
            assert orbit.witness_curve(alg, shuffled) is orbit.witness_curve(alg, tuple(sorted(subset)))
        for record in orbit.torus_fixed_points(alg):
            s = record.r_v_set
            order = data.draw(st.permutations(s))
            assert orbit.fixed_point_record(alg, order) is record
            assert orbit.witness_limit(alg, order) is orbit.witness_limit(alg, s)
            assert orbit.witness_curve(alg, order) is record.witness

    @settings(max_examples=15, deadline=None)
    @given(spec=FAITHFUL.filter(lambda spec: len(spec[1]) >= 1 and WeightedLieAlgebra.build(*spec).is_valid()))
    def test_each_body_runs_once_per_key(self, spec):
        alg = WeightedLieAlgebra.build(*spec)
        with BodyCalls() as calls:
            fill_memo(alg)
        assert calls and max(calls.values()) == 1, calls.most_common(3)
        first = dict(calls)
        with BodyCalls() as again:
            fill_memo(alg)
        assert not again
        # every body that ran kept its value under its own key
        assert all(((key, *args) if args else key) in alg._memo for key, args in first)

    @settings(max_examples=15, deadline=None)
    @given(spec=FAITHFUL.filter(lambda spec: len(spec[1]) >= 1 and WeightedLieAlgebra.build(*spec).is_valid()))
    def test_every_family_still_appears(self, spec):
        alg = WeightedLieAlgebra.build(*spec)
        fill_memo(alg)
        families = {key if isinstance(key, str) else key[0] for key in alg._memo}
        assert families == FAMILIES


# -- a body that raises keeps nothing -----------------------------------------------

FAILS = set()  # the subsets on which `sometimes` raises, set by each example


@memoised("test-memo-path-sometimes", subset=True)
def sometimes(alg, subset):
    if subset in FAILS:
        raise AlgebraError(f"refused {subset}")
    return (alg.fingerprint(), subset)


@memoised("test-memo-path-sometimes-grown", grown=True)  # the value of S is S
def sometimes_grown(alg, subset):
    if subset in FAILS:
        raise AlgebraError(f"refused {subset}")
    return sometimes_grown(alg, subset[:-1]) + subset[-1:] if subset else ()


class TestRaisingBodies:
    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.sets(st.integers(0, 2)), st.sets(st.integers(0, 3))), min_size=1, max_size=6))
    def test_a_body_that_raises_keeps_nothing(self, calls):
        alg = models.borel_nilradical_a2()
        for members, failing_sizes in calls:
            s = tuple(sorted(members))
            prefixes = [s[:k] for k in range(len(s) + 1)]
            for fn, key in ((sometimes, "test-memo-path-sometimes"), (sometimes_grown, "test-memo-path-sometimes-grown")):
                kept = {p: alg._memo[key, p] for p in prefixes if (key, p) in alg._memo}
                FAILS.clear()
                FAILS.update(p for p in prefixes if len(p) in failing_sizes)
                # the grown body reads every prefix not kept yet, shortest first
                read = [p for p in prefixes if p not in kept] if fn is sometimes_grown else [s][: s not in kept]
                failing = [p for p in read if p in FAILS]
                if failing:
                    with pytest.raises(AlgebraError, match="refused"):
                        fn(alg, s)
                    for p in prefixes:
                        if p in kept:
                            assert alg._memo[key, p] is kept[p]
                        else:
                            assert ((key, p) in alg._memo) == (fn is sometimes_grown and len(p) < len(failing[0]))
                else:
                    value = fn(alg, s)
                    assert fn(alg, s) is value and alg._memo[key, s] is value
            FAILS.clear()

    def test_the_real_bodies_keep_nothing_when_they_raise(self):
        # [x12, x3] doubled: Jacobi fails on (x1, x2, x3)
        alg = WeightedLieAlgebra.build(
            3,
            ["x1", "x2", "x3", "x12", "x23", "x123"],
            {"x1": [1, 0, 0], "x2": [0, 1, 0], "x3": [0, 0, 1], "x12": [1, 1, 0], "x23": [0, 1, 1], "x123": [1, 1, 1]},
            [("x1", "x2", {"x12": 1}), ("x2", "x3", {"x23": 1}), ("x1", "x23", {"x123": 1}), ("x12", "x3", {"x123": 2})],
        )
        with BodyCalls({"_jacobi": WeightedLieAlgebra._jacobi}) as calls:
            for _ in range(3):
                with pytest.raises(AlgebraError, match="jacobi"):
                    alg.check_jordan_preconditions()
        assert calls["jordan-preconditions", ()] == 3
        # the verdict is read from the `validate` table, kept on the first check
        assert calls["validate", ()] == calls["_jacobi", ()] == 1
        assert "jordan-preconditions" not in alg._memo


# -- prefix chains are filled by a loop ---------------------------------------------


class shallow_stack:
    """Limit the stack to `frames` frames above the caller's."""

    def __init__(self, frames: int):
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        self.limit, self.saved = depth + frames, sys.getrecursionlimit()

    def __enter__(self):
        sys.setrecursionlimit(self.limit)

    def __exit__(self, *exc):
        sys.setrecursionlimit(self.saved)


class TestPrefixFill:
    def test_2000_weights_need_no_deeper_stack(self):
        alg, fresh = spread(2000), spread(2000)
        with shallow_stack(150):
            got, center = alg.kernel(range(2000)), fresh.center()
        want = functools.reduce(_kernel_step, alg.weights, Matrix.identity(2))
        assert got == want and center == want and center.rows == 0
        assert all(("kernel", tuple(range(m))) in alg._memo for m in range(2001))

    def test_witness_curve_needs_no_deeper_stack(self):
        # a curve over 2,000 weights takes minutes (each prefix's rows hold
        # every earlier weight); 200 prefixes already need more than 150
        # frames when each costs one
        n = 200
        alg, ref = spread(n), spread(n)
        with shallow_stack(150):
            curve = orbit.witness_curve(alg, range(n))
        want = orbit.act(ref, [(j, None) for j in range(n)], orbit.torus_subspace(ref))
        assert curve.rows == want.rows
        assert all(("witness-curve", tuple(range(m))) in alg._memo for m in range(n + 1))

    def test_a_miss_with_its_parent_kept_takes_one_step(self, monkeypatch):
        alg = models.borel_nilradical_a3()
        steps = []
        real = liealg._kernel_step

        def counted(ker, w):
            steps.append(w)
            return real(ker, w)

        monkeypatch.setattr(liealg, "_kernel_step", counted)
        alg.kernel((0, 2))
        assert steps == [alg.weights[0], alg.weights[2]]  # () is the identity
        steps.clear()
        alg.kernel((0, 2, 4))
        assert steps == [alg.weights[4]]
        steps.clear()
        alg.kernel((1, 3, 5))
        assert steps == [alg.weights[1], alg.weights[3], alg.weights[5]]


# -- bad subsets and weights are refused --------------------------------------------


class TestBadArguments:
    @pytest.mark.parametrize("subset", [(-1,), (0, 0), (7,), (3,), (0, 1, 1), (-4, 0)])
    @pytest.mark.parametrize("name", ["kernel", "witness_curve", "witness_limit", "fixed_point_record"])
    def test_bad_subsets_are_refused_and_keep_nothing(self, name, subset):
        alg = models.borel_nilradical_a2()
        fn = getattr(alg, name) if name == "kernel" else functools.partial(getattr(orbit, name), alg)
        before = dict(alg._memo)
        for _ in range(2):
            with pytest.raises(AlgebraError, match=r"must hold distinct indices in range\(3\)"):
                fn(subset)
        assert alg._memo.keys() == before.keys()

    def test_a2_examples(self):
        # the kernel of the last weight, the curve of 2 x_a, the curve of t2, an IndexError
        alg = models.borel_nilradical_a2()
        for fn, subset in ((alg.kernel, (-1,)), (functools.partial(orbit.witness_limit, alg), (0, 0)),
                           (functools.partial(orbit.witness_curve, alg), (-1,)),
                           (functools.partial(orbit.witness_curve, alg), (7,))):
            with pytest.raises(AlgebraError):
                fn(subset)
        assert not alg._memo

    @pytest.mark.parametrize("coords", [(1, 0, 0), (1,), ()])
    def test_a_weight_of_the_wrong_length_is_refused(self, coords):
        with pytest.raises(AlgebraError, match="t_dim = 2"):
            A2.torus_kernel([Weight(coords)])
        with pytest.raises(AlgebraError, match="t_dim = 2"):
            A2.torus_kernel([A2.weights[0], Weight(coords)])


# -- one owner per key ----------------------------------------------------------------


class TestKeyOwners:
    @pytest.mark.parametrize("key", ["kernel", "center", "validate", liealg.EXP_AD_CHAIN, "witness-curve"])
    def test_a_used_key_is_refused(self, key):
        def other(alg):
            return 0

        with pytest.raises(ValueError, match=f"memo key '{key}' is already used"):
            memoised(key)(other)

    def test_at_import(self, tmp_path, monkeypatch):
        (tmp_path / "memo_key_clash.py").write_text(
            "from orbitvar.liealg import memoised\n\n\n@memoised('witness-limit')\ndef limit(alg):\n    return 0\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        with pytest.raises(ValueError, match="orbitvar.orbit.witness_limit"):
            importlib.import_module("memo_key_clash")
        assert liealg._MEMO_KEYS["witness-limit"] == "orbitvar.orbit.witness_limit"

    def test_every_decorated_function_owns_its_key(self):
        assert set(DECORATED) == FAMILIES
        assert {key for key, owner in liealg._MEMO_KEYS.items() if owner.startswith("orbitvar.")} == FAMILIES
        for key, fn in DECORATED.items():
            assert liealg._MEMO_KEYS[key] == f"{fn.__module__}.{fn.__qualname__}"


# -- one kernel route -------------------------------------------------------------------


class TestTorusKernel:
    @settings(max_examples=150)
    @given(weight_sequences())
    def test_matches_nullspace(self, spec):
        alg = algebra_of(*spec)
        for size in range(alg.n + 1):  # prefixes, in the drawn order and reversed
            for ws in (alg.weights[:size], alg.weights[::-1][:size]):
                want = nullspace(weight_matrix(alg, ws)) if ws else Matrix.identity(alg.t_dim)
                assert alg.torus_kernel(ws) == want

    def test_calls_no_nullspace(self, monkeypatch):
        monkeypatch.setattr(liealg, "nullspace", lambda m: pytest.fail("nullspace was called"))
        assert models.borel_nilradical_a3().torus_kernel([Weight((1, 0, 0)), Weight((1, 1, 0))]).rows == 1


# -- the cap on t_dim + n ----------------------------------------------------------------


def run_cli(tmp_path, data, capsys):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code = cli.main(["validate", "--input", str(path)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    return code, elapsed, out, err


class TestJsonCap:
    def test_the_cap_holds_a6_and_abelian_16(self):
        a6 = borel_nilradical(6)
        assert a6.dim == 27 and WeightedLieAlgebra.from_json(a6.to_json()) == a6
        a16 = models.abelian(16)
        assert a16.dim == 32 and WeightedLieAlgebra.from_json(a16.to_json()) == a16

    def test_the_cap_is_accepted(self, tmp_path, capsys):
        alg = spread(JSON_DIM_MAX - 2)
        assert alg.dim == JSON_DIM_MAX
        code, _, out, err = run_cli(tmp_path, alg.to_json(), capsys)
        assert code == 0 and err == ""
        assert WeightedLieAlgebra.from_json({"t_dim": JSON_DIM_MAX, "a_basis": [], "weights": {}}).dim == JSON_DIM_MAX

    @pytest.mark.parametrize(
        "data",
        [
            {"t_dim": JSON_DIM_MAX + 1, "a_basis": [], "weights": {}},
            {"t_dim": 1600, "a_basis": [], "weights": {}},
            {"t_dim": 0, "a_basis": [f"x{i}" for i in range(JSON_DIM_MAX + 1)], "weights": {f"x{i}": [] for i in range(JSON_DIM_MAX + 1)}},
            spread(360).to_json(),
        ],
        ids=["t_dim-cap+1", "t_dim-1600", "n-cap+1", "n-360"],
    )
    def test_past_the_cap_exits_2_at_once(self, tmp_path, capsys, data):
        code, elapsed, out, err = run_cli(tmp_path, data, capsys)
        assert code == 2 and elapsed < 1.0
        assert out == "" and err.startswith("error: ") and f"past the cap of {JSON_DIM_MAX}" in err
