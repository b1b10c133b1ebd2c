"""`membership`'s orbit word, found and verified in one forward pass from
t (`orbit._orbit_word`), and `WeightedLieAlgebra.commuting`, which
stops at the first nonzero bracket coordinate, each against the route
it replaced (`orbit_word_reference`): the peel of V down to t with the
word re-applied to t, and the dense pairwise bracket.

Membership pins the kind, reason and witness, or the exception's class
and message.  The word may differ, since the peel and the forward pass
give two factorisations of one point, and each side's word must map t
to V by `test_certify_first.reference_act`.  Both run on the builtins,
the four A4 presentations, the four central extensions of heisenberg-3,
A5, drawn root-subset algebras, drawn tables that fail Jacobi or
nilpotency, drawn multi-term tables and drawn tables with a zero weight
(`test_certified_inputs.ALL`): membership on orbit points, fixed points,
moved fixed points, torus graphs whose rows do not commute, random
subspaces and the other drawn shapes; `commuting` on drawn sets that
commute (rows of such points and combinations of them) and drawn sets
that do not; and both on every `queries` input of seeds 1-20, each
query that is not a membership run again with the dense `commuting`.
Also: every orbit point of A3 in a torus basis with flipped signs is
certified, where the peel misses some; the last comparison refuses a
word on a table that is not nilpotent; and `verify_pair_relation`
refuses a zero weight with `BadSliceError` before it samples a base
point."""

import itertools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings
from hypothesis import strategies as st

from orbit_word_reference import pairwise_commuting, peel_membership
from test_biggest_torus import load_workloads
from test_certified_inputs import ALL, SUBSPACES, fixed_point, made, moved_fixed_point, orbit_point, result
from test_certify_first import reference_act, same_answer
from test_conjugation_routes import FIXED, IDS, closure, combination
from test_query_kernels import shaped_vectors

from orbitvar import orbit
from orbitvar.liealg import AlgebraError, WeightedLieAlgebra


def applied_lowest_first(alg, params) -> bool:
    """The word's factors, read last first as `act` applies them, come in
    `weight_order`: the lowest height is applied first."""
    position = {k: i for i, k in enumerate(alg.weight_order())}
    places = [position[k] for k, _ in reversed(params)]
    return places == sorted(places)


def check_membership(alg, v):
    got = result(orbit.membership, alg, v)
    want = result(peel_membership, alg, v)
    assert same_answer(alg, v, got, want)
    if got[0] == "value" and got[1].kind == "orbit":
        assert applied_lowest_first(alg, got[1].params)
        return "orbit, same word" if got[1].params == want[1].params else "orbit, another word"
    return got[1].kind if got[0] == "value" else got[1].__name__


class TestMembership:
    @settings(max_examples=400)
    @given(ALL, st.sampled_from(SUBSPACES), st.data())
    def test_matches_the_peel(self, alg, make, data):
        v = made(data, make, data, alg)
        event(f"{make.__name__}: {check_membership(alg, v)}")

    @pytest.mark.parametrize("alg", FIXED, ids=IDS)
    def test_orbit_and_fixed_points(self, alg):
        """t moved by each weight and by pairs of weights, each factor
        order, and the first 40 torus-fixed points."""
        t = orbit.torus_subspace(alg)
        for i, j in itertools.islice(itertools.product(range(alg.n), repeat=2), 60):
            check_membership(alg, orbit.act(alg, [(i, Fraction(3, 2)), (j, -2)], t))
        for recd in orbit.torus_fixed_points(alg)[:40]:
            check_membership(alg, recd.subspace)


def signed_a3(signs, perm):
    """A3 in another torus basis: each simple-root coordinate permuted
    and its sign flipped by `signs`, so some weights have height 0 or
    less; the table passes `validate`."""
    base = {"x1": (1, 0, 0), "x2": (0, 1, 0), "x3": (0, 0, 1), "x12": (1, 1, 0), "x23": (0, 1, 1), "x123": (1, 1, 1)}
    weights = {nm: [signs[c] * w[perm[c]] for c in range(3)] for nm, w in base.items()}
    brackets = [("x1", "x2", {"x12": 1}), ("x2", "x3", {"x23": 1}), ("x1", "x23", {"x123": 1}), ("x12", "x3", {"x123": 1})]
    return WeightedLieAlgebra.build(3, list(base), weights, brackets)


def test_every_orbit_point_of_a3_in_any_signed_torus_basis():
    """`factor_order` walks the roots by depth, so each factor adds only
    in columns still ahead, whatever the heights: every point
    exp(2 ad x_i) exp(-ad x_j) t is certified with a word that
    `reference_act` verifies.  By height alone a factor's bracket can
    land in a column already passed: the peel then answers `unknown` on
    some of these points, and membership differs from it only there."""
    missed = 0
    for signs in itertools.product((1, -1), repeat=3):
        for perm in itertools.permutations(range(3)):
            alg = signed_a3(signs, perm)
            assert alg.is_valid()
            t = orbit.torus_subspace(alg)
            for i, j in itertools.product(range(alg.n), repeat=2):
                v = orbit.act(alg, [(i, 2), (j, -1)], t)
                got, want = result(orbit.membership, alg, v), result(peel_membership, alg, v)
                assert got[1].kind == "orbit" and reference_act(alg, list(got[1].params), t) == v
                if want[1].kind == "unknown":
                    missed += 1
                else:
                    assert same_answer(alg, v, got, want)
    assert missed > 0


def test_the_last_comparison_refuses_a_word_on_a_table_that_is_not_nilpotent():
    """[x2, x1] = x1 off the grading, and a central torus direction, so
    no precondition is checked.  exp(ad x1) exp(ad x2) t passes both gap
    tests, but x1's factor also moves its own column through the
    bracket with x2, so the image rows miss V and the word is refused:
    `unknown`.  The peel applies x2's factor to a row holding x1, whose
    exp(ad) chain does not end, and raises."""
    alg = WeightedLieAlgebra.build(2, ["x1", "x2"], {"x1": [1, 0], "x2": [2, 0]}, [("x2", "x1", {"x1": 1})])
    assert alg.center().rows == 1 and alg.factor_order() == (1, 0)
    t = orbit.torus_subspace(alg)
    v = orbit.act(alg, [(0, 1), (1, 1)], t)
    assert orbit.membership(alg, v) == orbit.MembershipVerdict("unknown", reason="torus-graph subspace without orbit certificate")
    assert result(peel_membership, alg, v)[:2] == ("raised", AlgebraError)
    for word in ([(0, 2)], [(1, -1)]):  # one factor: both certify
        u = orbit.act(alg, word, t)
        assert orbit.membership(alg, u) == peel_membership(alg, u) == orbit.MembershipVerdict("orbit", params=tuple(word))


def test_queries_seeds_one_to_twenty_answer_as_before(monkeypatch):
    """Every query of the `queries` streams of seeds 1-20, on its own
    input and algebra.  A membership gets the kind, reason and witness
    of the peel, and a word that maps t to V; at least one word is not
    the peel's.  Every other query answers as the same call with the
    dense pairwise `commuting`: verdict, witness rows, L and report."""
    workloads = load_workloads(monkeypatch)
    seen = set()
    for seed in range(1, 21):
        for op in workloads.query_ops(seed, 20):
            if op.key.startswith("member-"):
                names = closure(op.call)
                seen.add(check_membership(names["alg"], names["v"]))
                continue
            got = result(op.call)
            with monkeypatch.context() as m:
                m.setattr(WeightedLieAlgebra, "commuting", pairwise_commuting)
                assert result(op.call) == got, op.key
            seen.add(op.key.split(" ", 1)[0])
    assert {"orbit, same word", "orbit, another word", "limit", "refuted", "pair-relation"} <= seen


# -- commuting ---------------------------------------------------------------


def commuting_sets(data, alg):
    """The rows of an orbit point, a fixed point or a moved fixed point,
    or combinations of them: sets that commute on a Lie table."""
    v = data.draw(st.sampled_from([orbit_point, fixed_point, moved_fixed_point]))(data, alg)
    rows = list(v.basis.entries)
    if data.draw(st.booleans()):
        rows = [combination(data, v) for _ in range(data.draw(st.integers(1, 3)))]
    return rows


class TestCommuting:
    @settings(max_examples=300)
    @given(ALL, st.data())
    def test_matches_the_dense_pairwise_bracket(self, alg, data):
        if data.draw(st.booleans()):
            vectors = commuting_sets(data, alg)
        else:
            vectors = [data.draw(shaped_vectors(alg.dim, alg.t_dim)) for _ in range(data.draw(st.integers(0, 4)))]
        if vectors and data.draw(st.integers(0, 9)) == 0:  # a vector of the wrong length raises
            vectors.append(vectors[-1][:-1])
        got = result(alg.commuting, vectors)
        assert got == result(pairwise_commuting, alg, vectors)
        event(str(got[1]) if got[0] == "value" else "raised")

    @pytest.mark.parametrize("alg", FIXED, ids=IDS)
    def test_points_and_weight_vector_pairs(self, alg):
        """The rows of t moved by each weight and of every torus-fixed
        point commute; each pair of weight vectors commutes exactly when
        the table has no entry for it."""
        t = orbit.torus_subspace(alg)
        for i in range(alg.n):
            rows = orbit.act(alg, [(i, Fraction(-1, 2)), ((i + 1) % alg.n, 3)], t).basis.entries
            assert alg.commuting(rows) == pairwise_commuting(alg, rows) is True
        for recd in orbit.torus_fixed_points(alg)[:40]:
            assert alg.commuting(recd.subspace.basis.entries) == pairwise_commuting(alg, recd.subspace.basis.entries) is True
        entries = {(i, j) for i, j, _ in alg.brackets}
        for i, j in itertools.combinations(range(alg.n), 2):
            pair = [alg.weight_vector(i), alg.weight_vector(j)]
            assert alg.commuting(pair) == pairwise_commuting(alg, pair) == ((i, j) not in entries)


# -- the pair relation at a zero weight ------------------------------------------


def test_pair_relation_refuses_a_zero_weight_before_sampling(monkeypatch):
    alg = WeightedLieAlgebra.build(
        2,
        ["e12", "e13", "e23", "y"],
        {"e12": [1, 0], "e13": [1, 1], "e23": [0, 1], "y": [0, 0]},
        [("e12", "e23", {"e13": 1})],
    )
    monkeypatch.setattr(orbit, "_t_alpha_prime_sample", lambda *args: pytest.fail("a base point was sampled"))
    for x0 in (None, (1, 1, 0, 0, 0, 0)):
        with pytest.raises(orbit.BadSliceError, match="the weight is zero"):
            orbit.verify_pair_relation(alg, alg.weights[3], x0=x0)
