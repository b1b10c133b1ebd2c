"""The echelon forms the geometry path grows one step at a time, against
the from-scratch routes they replaced:

- `WeightedLieAlgebra.kernel`, grown one weight at a time, against
  `nullspace(weight_matrix(ws))` on drawn weight sequences with zero,
  repeated and dependent weights;
- `CurveSubspace.limit`, one incremental echelon per pass, against the
  nullspace route kept in `curve_limit_reference.py` on drawn curves,
  rank-deficient ones included;
- `report.json_text` against `json.dumps(v, sort_keys=True, indent=2)`
  on drawn JSON values, and its `TypeError` on a float or a non-string
  key;
- `ideals.verify_chart_relation`, which checks the pairs i < j only,
  against the check of all d^2 ordered pairs;

and the A5 Borel nilradical (n = 15): 948 torus-fixed records, 203
flats, and a `property-p` report with 8,852 proven checks whose digest
is the one the nullspace routes gave; and A6 (n = 21): 8,020 records,
877 flats and every `validate` check proven."""

import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from curve_limit_reference import nullspace_limit
from curve_powers_reference import from_powers
from linalg_reference import weight_matrix
from stabilizer_reference import centralizer_of
from test_property_p import BUILTINS
from test_weight_walks import borel_nilradical

from orbitvar import cli, ideals, models, orbit
from orbitvar.liealg import WeightedLieAlgebra
from orbitvar.linalg import Matrix, RankDeficientError, nullspace, rank
from orbitvar.report import json_text

ENTRIES = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def is_entry(e):
    return type(e) is int or (type(e) is Fraction and e.denominator != 1)


# -- kernels grown one weight at a time ---------------------------------------


@st.composite
def weight_sequences(draw):
    """t_dim and a list of weights: drawn coordinates, zero weights,
    repeats and sums of earlier weights."""
    t_dim = draw(st.integers(1, 4))
    ws = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 5)) if ws else 0
        if kind == 1:
            w = draw(st.sampled_from(tuple(ws)))
        elif kind == 2:
            a, b = draw(st.sampled_from(tuple(ws))), draw(st.sampled_from(tuple(ws)))
            c = draw(st.sampled_from(ENTRIES))
            w = [x + c * y for x, y in zip(a, b)]
        elif kind == 3:
            w = [0] * t_dim
        else:
            w = draw(st.lists(st.sampled_from(ENTRIES), min_size=t_dim, max_size=t_dim))
        ws.append(list(w))
    return t_dim, ws


def algebra_of(t_dim, ws):
    names = [f"x{i}" for i in range(len(ws))]
    return WeightedLieAlgebra.build(t_dim, names, dict(zip(names, ws)))


class TestGrownKernel:
    @settings(max_examples=150)
    @given(weight_sequences(), st.randoms(use_true_random=False))
    def test_matches_nullspace_on_every_subset(self, spec, rnd):
        alg = algebra_of(*spec)
        subsets = [s for size in range(alg.n + 1) for s in itertools.combinations(range(alg.n), size)]
        rnd.shuffle(subsets)  # the memo fills in any order
        for s in subsets:
            want = nullspace(weight_matrix(alg, [alg.weights[i] for i in s]))
            got = alg.kernel(s)
            assert got == want, s
            assert all(is_entry(e) for row in got.entries for e in row)
            assert alg.kernel(reversed(s)) is got
            independent = want.rows == alg.t_dim - len(s)
            assert orbit._independent_abelian(alg, s) == independent  # no brackets: every set commutes

    @settings(max_examples=60)
    @given(weight_sequences())
    def test_center_and_closure(self, spec):
        alg = algebra_of(*spec)
        z = alg.center()
        assert z == alg.torus_kernel(alg.weights)
        assert alg.t_dim - z.rows == rank(weight_matrix(alg))
        for s in itertools.chain.from_iterable(itertools.combinations(range(alg.n), k) for k in range(3)):
            ker = alg.torus_kernel([alg.weights[i] for i in s])
            assert alg.closure(s) == tuple(
                i for i, w in enumerate(alg.weights) if all(w(row) == 0 for row in ker.entries)
            )

    def test_torus_element_data_matches_from_rows(self):
        for name in BUILTINS:
            alg = models.builtin(name)
            for lam in alg.complete_subsets():
                data = orbit.torus_element_data(alg, lam)
                rows = [alg.basis_vector(i) for i in range(alg.t_dim)] + [alg.weight_vector(i) for i in lam]
                assert data.alg is alg
                assert centralizer_of(alg, data.lam) == orbit.Subspace.from_rows(alg, rows)
                ker = alg.torus_kernel([alg.weights[i] for i in lam])
                assert data.center == tuple(tuple(row) + (0,) * alg.n for row in ker.entries)


# -- witness limits from one incremental echelon per pass ----------------------


@st.composite
def curves(draw):
    """A curve of 1-4 rows in r of A2 (dim 5) or A3 (dim 9), each row a
    sparse polynomial vector.  A row is drawn, or a constant times z^s
    times an earlier row, which makes the curve rank-deficient, or that
    with s >= 1 plus a drawn row of lower degree, which makes the leading
    rows dependent while the rows may stay independent."""
    alg = models.builtin(draw(st.sampled_from(("borel-nilradical-A2", "borel-nilradical-A3"))))
    dim = alg.dim
    rows = []  # each a list of coefficient vectors, degree ascending
    for _ in range(draw(st.integers(1, 4))):
        fresh = [
            draw(st.lists(st.sampled_from(ENTRIES), min_size=dim, max_size=dim))
            for _ in range(draw(st.integers(1, 4)))
        ]
        kind = draw(st.integers(0, 3)) if rows else 0
        if kind >= 1:
            base = draw(st.sampled_from(tuple(range(len(rows)))))
            shift = draw(st.integers(0 if kind == 1 else 1, 2))
            c = draw(st.sampled_from(ENTRIES[2:]))
            moved = [[0] * dim] * shift + [[c * e for e in v] for v in rows[base]]
            low = fresh[: len(moved) - 1] if kind >= 2 else []
            fresh = [[a + b for a, b in zip(u, v)] for u, v in zip(moved, low + [[0] * dim] * len(moved))]
        rows.append(fresh)
    top = max(len(r) for r in rows)
    rows = [r + [[0] * dim] * (top - len(r)) for r in rows]
    return from_powers(alg, [[r[k] for r in rows] for k in range(top)])


def outcome(limit, curve):
    try:
        return limit(curve)
    except RankDeficientError:
        return RankDeficientError


class TestIncrementalLimit:
    @settings(max_examples=400)
    @given(curves())
    def test_matches_nullspace_reference(self, curve):
        got = outcome(orbit.CurveSubspace.limit, curve)
        assert got == outcome(nullspace_limit, curve)
        if got is not RankDeficientError:
            assert all(is_entry(e) for row in got.basis.entries for e in row)

    def test_witness_limits_match_on_the_builtins(self):
        for name in BUILTINS:
            alg = models.builtin(name)
            for recd in orbit.torus_fixed_points(alg):
                assert recd.witness.limit() == nullspace_limit(recd.witness) == recd.subspace


# -- the report writer ------------------------------------------------------------

SPECIAL_TEXT = st.sampled_from(('', '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é ü", " ", "\ud800", "😀", "a/b"))
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text()
    | SPECIAL_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4) | SPECIAL_TEXT, inner, max_size=4),
    max_leaves=25,
)


class TestJsonText:
    @settings(max_examples=300)
    @given(JSON)
    def test_matches_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [1.5, [1, 2.0], {"a": float("nan")}, {1: "x", 2: "y"}, {"k": {3: None}}])
    def test_a_float_or_a_non_string_key_raises(self, value):
        with pytest.raises(TypeError):
            json_text(value)

    def test_nested_plain_values(self):
        value = [True, {"b": [{}], "a": ()}]
        assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_unserialisable_values_raise_as_json_does(self):
        with pytest.raises(TypeError):
            json_text({"a": object()})


# -- the chart relation over i < j ------------------------------------------------


def reference_chart_relation(chart):
    """The verdict of checking every ordered pair (i, j)."""
    gm = chart.alg.weights[chart.complement[-1]]
    u = {i: ideals.u_function(chart, i, gm) for i in range(1, chart.d + 1)}
    return all(
        chart.ideal.contains(u[i] * chart.a(j, chart.m) - u[j] * chart.a(i, chart.m))
        for i in range(1, chart.d + 1)
        for j in range(1, chart.d + 1)
    )


def builtin_charts():
    for name in BUILTINS:
        alg = models.builtin(name)
        for recd in orbit.group_fixed_points(alg):
            chart = ideals.chart_ideal(alg, recd.subspace)
            if chart.m >= 1:
                yield f"{name}-{recd.r_v_set}", chart


class TestChartRelationOverPairs:
    def test_verdict_unchanged_at_every_builtin_base_point(self):
        seen = 0
        for label, chart in builtin_charts():
            verdict = ideals.verify_chart_relation(chart).checks[-1].verdict
            assert (verdict == "proven") == reference_chart_relation(chart), label
            seen += 1
        assert seen >= 4

    def test_zero_ideal_is_refuted(self):
        for label, chart in builtin_charts():
            if chart.d < 2:
                continue
            zero = dataclasses.replace(chart, ideal=ideals.Ideal.make(chart.ideal.ring, []))
            assert not reference_chart_relation(zero), label
            assert ideals.verify_chart_relation(zero).checks[-1].verdict == "refuted", label


# -- A5 pinned --------------------------------------------------------------------

A5_PROPERTY_P_SHA256 = "8f0e77dc2c33fb06482d090001c4167b629c7b3581935bf736eba9a190adb608"


def test_a5_records_flats_and_property_p():
    alg = borel_nilradical(5)
    assert len(orbit.torus_fixed_points(alg)) == 948
    assert len(alg.complete_subsets()) == 203
    report = cli.cmd_property_p(borel_nilradical(5), 0)
    assert report.checks[-1].details == {"proven": 8852, "consequence_checked": 0, "refuted": 0}
    assert hashlib.sha256(report.render_json().encode()).hexdigest() == A5_PROPERTY_P_SHA256


def test_a6_records_flats_and_validation():
    """The A6 Borel nilradical (n = 21): every `validate` check proven,
    8,020 torus-fixed records, and one flat per set partition of
    {1, ..., 7}, Bell(7) = 877."""
    alg = borel_nilradical(6)
    assert all(ok for _, ok, _ in alg.validate())
    assert len(orbit.torus_fixed_points(alg)) == 8020
    assert len(alg.complete_subsets()) == 877
