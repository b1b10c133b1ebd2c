"""`orbit.group_fixed_points` decides which torus-fixed points
z_S + a_S are ideals from two tests read off the weights and the bracket
table, a size test and a support test, and sums no bracket.  These tests
pin that filter to the bracket check it replaced
(`stabilizer_reference.is_ideal`): on every fixed-point subset of the
builtins, the four A4 presentations, the four central extensions and A5;
on every A6 subset of the size the filter keeps; and on drawn bracket
tables with entries off the grading and entries of several terms, since
the argument in its docstring needs no grading."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilizer_reference import is_ideal
from test_grown_echelons import weight_sequences
from test_liealg_sparse import NONZERO
from test_weight_walks import CASES, borel_nilradical

from orbitvar import orbit
from orbitvar.liealg import WeightedLieAlgebra


def ideals_among(alg, subsets):
    """The subsets S whose z_S + a_S is an ideal, by brackets, in order."""
    return [s for s in subsets if is_ideal(alg, orbit._fixed_point_subspace(alg, s))]


def assert_filter_is_the_ideal_test(alg):
    """The group-fixed points are the records of exactly the fixed-point
    subsets whose subspace is an ideal, in the walk's order, and each is
    the torus record of its subset itself."""
    group = orbit.group_fixed_points(alg)
    assert [r.r_v_set for r in group] == ideals_among(alg, orbit._fixed_point_subsets(alg))
    assert all(r is orbit.fixed_point_record(alg, r.r_v_set) for r in group)
    return group


@pytest.mark.parametrize("name", [*CASES, "borel-nilradical-A5"])
def test_every_fixed_point_subset(name):
    alg = borel_nilradical(5) if name == "borel-nilradical-A5" else CASES[name]()
    assert assert_filter_is_the_ideal_test(alg)


def test_a6_subsets_of_the_kept_size():
    """Every other size fails the size test, and no such z_S + a_S is an
    ideal (the docstring's converse), so only this size is checked."""
    alg = borel_nilradical(6)
    size = alg.t_dim - alg.center().rows
    candidates = [s for s in orbit._fixed_point_subsets(alg) if len(s) == size]
    group = [r.r_v_set for r in orbit.group_fixed_points(alg)]
    assert group == ideals_among(alg, candidates)
    assert 0 < len(group) < len(candidates)


# -- tables off the grading ---------------------------------------------------------


def a2_with(bracket):
    """A2's weights, x0 + x1 = x2, with [x0, x1] set to `bracket`."""
    weights = {"x0": [1, 0], "x1": [0, 1], "x2": [1, 1]}
    return WeightedLieAlgebra.build(2, ["x0", "x1", "x2"], weights, [("x0", "x1", bracket)])


@pytest.mark.parametrize(
    "bracket, group",
    [
        ({"x2": 1}, [(0, 2), (1, 2)]),  # graded: A2 itself
        ({"x2": 1, "x0": 1}, [(0, 2)]),  # x0 joins a multi-term entry off the grading
        ({"x1": 1}, [(1, 2)]),  # one term off the grading
    ],
)
def test_off_grade_examples(bracket, group):
    alg = a2_with(bracket)
    assert [r.r_v_set for r in assert_filter_is_the_ideal_test(alg)] == group


@st.composite
def drawn_tables(draw):
    """Drawn weights (zero, repeated and dependent ones among them) and a
    bracket table whose entries have one to three terms on any indices,
    with nonzero coefficients, graded or not; Jacobi and nilpotency may
    fail.  The witness curves need neither: each is built from weight
    vectors of one abelian S, which bracket only with the torus."""
    t_dim, ws = draw(weight_sequences())
    names = [f"x{i}" for i in range(len(ws))]
    brackets = [
        (names[i], names[j], draw(st.dictionaries(st.sampled_from(names), NONZERO, min_size=1, max_size=3)))
        for i, j in itertools.combinations(range(len(ws)), 2)
        if draw(st.booleans())
    ]
    return WeightedLieAlgebra.build(t_dim, names, dict(zip(names, ws)), brackets)


@settings(max_examples=300, deadline=None)
@given(drawn_tables())
def test_drawn_tables(alg):
    assert_filter_is_the_ideal_test(alg)
