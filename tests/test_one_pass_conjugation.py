"""The Jordan conjugation in one pass over `factor_order`
(`WeightedLieAlgebra.torus_conjugation`), pinned by outcome to the
passes over `weight_order` that it replaced
(`conjugation_reference`): `jordan_decompose` and
`orbit._conjugated_centralizer` give the same value, or raise the same
class with the same message.  The pin runs on the builtins, the four A4
presentations, the four central extensions of heisenberg-3, A5,
`test_certified_inputs.ALL` (drawn root-subset algebras, tables that
fail Jacobi or nilpotency, multi-term tables and tables with a zero
weight), `test_conjugation_routes.MIXED`, a table whose support series
never empties, and root-subset algebras in signed and permuted torus
bases, where `factor_order` and `weight_order` part.  On the signed
family `jordan_decompose` is also pinned to the full solve
(`test_memo.reference_jordan`), the conjugated centralizer to the
nullspace of `ad p`, and `membership` certifies every orbit point with
a word that `test_certify_first.reference_act` verifies, answering as
the peel (`orbit_word_reference.peel_membership`) wherever the peel
certifies."""

import itertools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conjugation_reference import multipass_centralizer, multipass_jordan
from orbit_word_reference import peel_membership
from test_certified_inputs import ALL, result
from test_certify_first import reference_act, same_answer
from test_conjugation_routes import FIXED, IDS, MIXED, SCALAR, automorphic, generic_point
from test_memo import reference_jordan, rescaled_root_subsets
from test_liealg_sparse import root_subset_algebras
from test_query_kernels import shaped_vectors, types

from orbitvar import orbit
from orbitvar.liealg import WeightedLieAlgebra
from orbitvar.linalg import nullspace


def pin_jordan(alg, x):
    """`jordan_decompose` against the multi-pass reference: the same
    outcome, and the same entry types in a value."""
    got, want = result(alg.jordan_decompose, x), result(multipass_jordan, alg, x)
    assert got == want
    if got[0] == "value":
        assert [types(part) for part in got[1]] == [types(part) for part in want[1]]
    return got


def pin_centralizer(alg, p):
    """The conjugated centralizer of a point on which no weight vanishes
    against the multi-pass reference."""
    lam = [w(p[: alg.t_dim]) for w in alg.weights]
    got = result(orbit._conjugated_centralizer, alg, p, lam)
    assert got == result(multipass_centralizer, alg, p, lam)
    return got


def drawn_vector(data, alg):
    if data.draw(st.booleans()):
        return data.draw(shaped_vectors(alg.dim, alg.t_dim))
    return generic_point(data, alg)


class TestAgainstThePasses:
    @settings(max_examples=300)
    @given(st.one_of(ALL, MIXED), st.data())
    def test_drawn_tables(self, alg, data):
        for _ in range(3):
            got = pin_jordan(alg, drawn_vector(data, alg))
            event(got[0] if got[0] == "value" else got[2])
        if automorphic(alg):
            pin_centralizer(alg, generic_point(data, alg))

    @pytest.mark.parametrize("alg", FIXED, ids=IDS)
    def test_rows_of_orbit_points(self, alg):
        """Every basis row of t moved by each weight, and by pairs of
        weights, with its own torus part and another, and the points
        on which no weight vanishes among them."""
        t = orbit.torus_subspace(alg)
        for i, j in itertools.islice(itertools.product(range(alg.n), repeat=2), 60):
            for row in orbit.act(alg, [(i, Fraction(3, 2)), (j, -2)], t).basis.entries:
                x = tuple(c + (k == 0) for k, c in enumerate(row))
                for y in (row, x):
                    pin_jordan(alg, y)
                    if all(w(y[: alg.t_dim]) for w in alg.weights) and automorphic(alg):
                        assert pin_centralizer(alg, y)[0] == "value"

    def test_a_table_whose_support_series_never_empties(self):
        """[x, y] = [z, y] = z - x passes the Jordan preconditions, but
        D^m stays {x, z}: a factor of x or z moves both columns, so the
        pass can leave one to clear, and both routes then raise."""
        alg = WeightedLieAlgebra.build(
            1,
            ["x", "y", "z"],
            {"x": [1], "y": [0], "z": [1]},
            [("x", "y", {"z": 1, "x": -1}), ("z", "y", {"z": 1, "x": -1})],
        )
        alg.check_jordan_preconditions()
        assert list(alg._support_series()) == [{0, 1, 2}, {0, 2}, {0, 2}, {0, 2}]
        kinds = set()
        values = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
        for x in itertools.product(values[1:], values, values, values):
            got = pin_jordan(alg, x)
            kinds.add(got[0] if got[0] == "value" else got[2])
        assert kinds == {"value", "jordan conjugation did not settle in 4 passes"}


# -- root-subset algebras in signed and permuted torus bases ---------------------


@st.composite
def signed_algebras(draw):
    """A valid root-subset algebra with each torus coordinate permuted and
    its sign flipped as drawn, so that weights of height 0 or less
    come up and `factor_order` can part from `weight_order`."""
    d, names, weights, brackets = draw(st.one_of(root_subset_algebras(), rescaled_root_subsets()))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
    perm = draw(st.permutations(range(d)))
    moved = {nm: [signs[c] * w[perm[c]] for c in range(d)] for nm, w in weights.items()}
    alg = WeightedLieAlgebra.build(d, names, moved, brackets)
    assume(alg.is_valid())
    event("factor order is not the weight order" if alg.factor_order() != alg.weight_order() else "same orders")
    return alg


class TestSignedBases:
    @settings(max_examples=80)
    @given(signed_algebras(), st.data())
    def test_jordan_parts_and_centralizers(self, alg, data):
        for _ in range(3):
            x = drawn_vector(data, alg)
            assert pin_jordan(alg, x)[:2] == result(reference_jordan, alg, x)[:2]
        p = generic_point(data, alg)
        got = pin_centralizer(alg, p)
        assert got[0] == "value" and got[1].basis == nullspace(alg.ad(p))

    @settings(max_examples=150)
    @given(signed_algebras(), st.data())
    def test_membership_certifies_every_orbit_point(self, alg, data):
        word = data.draw(st.lists(st.tuples(st.integers(0, alg.n - 1), SCALAR), max_size=4))
        t = orbit.torus_subspace(alg)
        v = orbit.act(alg, word, t)
        got, want = result(orbit.membership, alg, v), result(peel_membership, alg, v)
        assert got[0] == "value" and got[1].kind == "orbit"
        assert reference_act(alg, list(got[1].params), t) == v
        if want[0] == "value" and want[1].kind == "orbit":
            assert same_answer(alg, v, got, want)
        event(f"peel: {want[1].kind if want[0] == 'value' else want[1].__name__}")
