"""A curve in z is held as its rows: `CurveSubspace.rows[i]` is basis row
i's tuple of z^k coefficient vectors, the last one nonzero, as `_exp_row`
builds it.  Pinned here on drawn curves of `act` and `witness_curve`:
the layout itself, `to_json` against the padded per-power rendering it
replaced (`curve_powers_reference.padded_to_json`), and `witness_curve`
against `act` over its factors.

Also the inputs the public `orbit` functions refuse: a subspace of
another algebra, and a weight set no torus element vanishes on exactly;
and `cmd_suite`'s stages, every other entry of `RUNNERS` in its order."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from curve_powers_reference import from_powers, padded_to_json, powers
from stabilizer_reference import centralizer_of
from test_liealg_sparse import RATIONALS
from test_memo import SMALL

from orbitvar import cli, models, orbit
from orbitvar.liealg import AlgebraError, WeightedLieAlgebra


NAMED = ("borel-nilradical-A2", "borel-nilradical-A3", "heisenberg-3")


@st.composite
def drawn_curves(draw):
    """`act` on a word of up to six factors, at least one of them formal,
    from t or from a drawn subspace, on a drawn graded algebra or a
    builtin whose brackets nest, so that curves of degree 2 and more
    are drawn too."""
    alg = draw(st.one_of(SMALL.map(lambda spec: WeightedLieAlgebra.build(*spec)), st.sampled_from(NAMED).map(models.builtin)))
    factor = st.tuples(st.integers(0, alg.n - 1), st.one_of(st.none(), st.none(), RATIONALS))
    word = draw(st.lists(factor, min_size=1, max_size=6).filter(lambda w: any(z is None for _, z in w)))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=alg.dim, max_size=alg.dim), max_size=3))
    v = draw(st.sampled_from((orbit.torus_subspace(alg), orbit.Subspace.from_rows(alg, rows))))
    return orbit.act(alg, word, v)


def commuting_subsets(alg):
    """Every weight subset, up to size 3, whose vectors pairwise commute."""
    return [
        s
        for size in range(min(alg.n, 3) + 1)
        for s in itertools.combinations(range(alg.n), size)
        if alg.centralizer_in_a(s)
    ]


VALID = SMALL.filter(lambda spec: WeightedLieAlgebra.build(*spec).is_valid())


def assert_one_layout(curve):
    assert isinstance(curve.rows, tuple) and all(isinstance(row, tuple) for row in curve.rows)
    for row in curve.rows:
        assert row and any(row[-1])
        assert all(isinstance(vector, tuple) and len(vector) == curve.alg.dim for vector in row)
    assert from_powers(curve.alg, powers(curve)) == curve


class TestOneLayout:
    @settings(max_examples=80)
    @given(curve=drawn_curves())
    def test_act_curves_and_their_rendering(self, curve):
        assert_one_layout(curve)
        assert curve.to_json() == padded_to_json(curve)

    @settings(max_examples=30)
    @given(spec=VALID)
    def test_witness_curves_are_act_over_their_factors(self, spec):
        alg = WeightedLieAlgebra.build(*spec)
        t = orbit.torus_subspace(alg)
        for s in commuting_subsets(alg):
            curve = orbit.witness_curve(alg, s)
            assert_one_layout(curve)
            assert curve.to_json() == padded_to_json(curve)
            if s:
                assert curve.rows == orbit.act(alg, [(i, None) for i in alg.weight_order() if i in s], t).rows
            else:
                assert curve.rows == tuple((row,) for row in t.basis.entries)

    def test_a_top_coefficient_that_cancels_is_dropped(self):
        # on h = t1 + t2 the z^2 terms of exp(z ad x_a) exp(z ad x_b)
        # exp(z ad x_a) h cancel, so the row has degree 1
        alg = models.builtin("borel-nilradical-A2")
        curve = orbit.act(alg, [(0, None), (1, None), (0, None)], orbit.Subspace.from_rows(alg, [[1, 1, 0, 0, 0]]))
        assert_one_layout(curve)
        assert [len(row) for row in curve.rows] == [2]

    def test_no_per_power_attribute(self):
        curve = orbit.witness_curve(models.builtin("borel-nilradical-A2"), (0,))
        assert [f for f in vars(curve)] == ["alg", "rows"]
        assert not hasattr(orbit, "_curve")


# -- a subspace of another algebra ---------------------------------------------

A2 = "borel-nilradical-A2"


def calls(alg, v):
    """Each public function that takes (alg, V), applied to V; property
    (P) against the data of s = 0, whose centralizer is all of r."""
    lam = tuple(range(alg.n))
    return {
        "act": lambda: orbit.act(alg, [(0, 3)], v),
        "act-formal": lambda: orbit.act(alg, [(0, None)], v).rows,
        "membership": lambda: orbit.membership(alg, v),
        "biggest_torus": lambda: orbit.biggest_torus(alg, v),
        "graded_subset": lambda: orbit.graded_subset(alg, v),
        "fixed_point_of": lambda: orbit.fixed_point_of(alg, v, orbit.graded_subset(alg, v) if v.alg == alg else ()),
        "property_P_checks": lambda: orbit.property_P_checks(alg, orbit.torus_element_data(alg, lam), v, None),
        "is_commutative_subalgebra": lambda: orbit.is_commutative_subalgebra(alg, v),
    }


def outcome(fn):
    try:
        return "value", fn()
    except Exception as e:
        return type(e), str(e)


class TestForeignSubspace:
    @pytest.mark.parametrize("name", sorted(calls(models.builtin(A2), orbit.torus_subspace(models.builtin(A2)))))
    @pytest.mark.parametrize("other", ["abelian:2", "heisenberg-3"])
    def test_refused_before_any_work(self, name, other):
        alg, foreign = models.builtin(A2), models.builtin(other)
        t = orbit.torus_subspace(foreign)
        for v in (t, orbit.act(foreign, [(0, 3)], t)):
            with pytest.raises(orbit.DimensionMismatchError, match="another algebra"):
                calls(alg, v)[name]()
        assert not any(key[0] in ("witness-curve", "exp-ad-chain") for key in alg._memo if isinstance(key, tuple))

    def test_the_examples_that_crashed_or_misread(self):
        alg = models.builtin(A2)
        h = models.builtin("heisenberg-3")
        with pytest.raises(orbit.DimensionMismatchError):
            orbit.membership(alg, orbit.torus_subspace(models.builtin("abelian:2")))
        with pytest.raises(orbit.DimensionMismatchError):
            orbit.act(alg, [(2, 1)], orbit.torus_subspace(models.builtin("abelian:2")))
        moved = orbit.act(h, [(0, 3)], orbit.torus_subspace(h))
        with pytest.raises(orbit.DimensionMismatchError):
            orbit.membership(alg, moved)
        assert orbit.membership(alg, orbit.Subspace(alg, moved.basis)).kind == "orbit"
        with pytest.raises(orbit.DimensionMismatchError):  # property (P) data of another algebra
            orbit.property_P_checks(alg, orbit.torus_element_data(h, (0, 1, 2)), orbit.torus_subspace(alg), None)

    @pytest.mark.parametrize("builtin", [A2, "borel-nilradical-A3", "heisenberg-3"])
    def test_an_equal_fresh_algebra_gets_the_same_answers(self, builtin):
        alg, fresh = models.builtin(builtin), models.builtin(builtin)
        assert alg == fresh and alg is not fresh
        t = orbit.torus_subspace(alg)
        subspaces = [t, orbit.act(alg, [(0, 3)], t), orbit.witness_limit(alg, (0,)), orbit.witness_limit(alg, (alg.n - 1,))]
        for v in subspaces:
            same = orbit.Subspace(fresh, v.basis)
            for name, fn in calls(alg, v).items():
                assert outcome(fn) == outcome(calls(alg, same)[name]), (name, v)


# -- a weight set that no torus element vanishes on exactly ---------------------


class TestTorusElementData:
    def test_an_incomplete_set_is_refused(self):
        alg = models.builtin("borel-nilradical-A3")
        assert alg.closure((0, 1)) == (0, 1, 3)
        with pytest.raises(AlgebraError, match="not complete"):
            orbit.torus_element_data(alg, (0, 1))
        assert centralizer_of(alg, orbit.torus_element_data(alg, (0, 1, 3)).lam).dim == alg.t_dim + 3

    @pytest.mark.parametrize("builtin", [A2, "borel-nilradical-A3", "heisenberg-3", "abelian:2"])
    def test_accepted_exactly_when_complete(self, builtin):
        alg = models.builtin(builtin)
        for size in range(alg.n + 1):
            for lam in itertools.combinations(range(alg.n), size):
                for order in (lam, lam[::-1]):
                    if alg.is_complete(lam):
                        assert orbit.torus_element_data(alg, order).lam == order
                    else:
                        with pytest.raises(AlgebraError):
                            orbit.torus_element_data(alg, order)


# -- the suite's stages -----------------------------------------------------------


def test_suite_runs_every_other_command_in_runners_order():
    stages = [name for name in cli.RUNNERS if name != "suite"]
    assert stages == ["validate", "fixed-points", "boundary", "property-p", "chart", "nilcone", "ps-check"]
    report = cli.cmd_suite(models.builtin(A2), 0)
    assert list(dict.fromkeys(c.name.split("/")[0] for c in report.checks)) == stages
