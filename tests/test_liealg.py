"""Weight-graded nilpotent algebras: structure validation, centers,
complete subsets, restriction, centralizers and Jordan decomposition."""

from fractions import Fraction

import pytest

from linalg_reference import lambda_of, weight_matrix
from test_linalg import apply
from test_orbit import run_without_sympy, theta

from orbitvar import cli, models, orbit
from orbitvar.liealg import (
    AlgebraError,
    CenterNotTrivialError,
    Weight,
    WeightedLieAlgebra,
    weight_sort_key,
)
from orbitvar.linalg import Matrix, rank

A2 = models.borel_nilradical_a2()
A3 = models.borel_nilradical_a3()
HEIS = models.heisenberg_3()


def F(*cs):
    return tuple(Fraction(c) for c in cs)


def check_map(alg):
    return {name: (ok, detail) for name, ok, detail in alg.validate()}


class TestWeight:
    def test_evaluation_and_height(self):
        w = Weight(F(1, 2))
        assert w(F(3, -1)) == 1
        assert w.height() == 3

    def test_proportionality(self):
        assert Weight(F(1, 0)).proportional_to(Weight(F(2, 0)))
        assert not Weight(F(1, 0)).proportional_to(Weight(F(1, 1)))

    def test_sort_key_orders_by_height(self):
        ws = [Weight(F(1, 1)), Weight(F(0, 1)), Weight(F(1, 0))]
        assert sorted(ws, key=weight_sort_key)[-1] == Weight(F(1, 1))


class TestValidate:
    def test_builtins_are_valid(self):
        for name in ("borel-nilradical-A2", "borel-nilradical-A3", "heisenberg-3",
                     "abelian:3", "sl2-borel"):
            assert models.builtin(name).is_valid(), name

    def test_zero_weight_flagged(self):
        alg = WeightedLieAlgebra.build(2, ["x"], {"x": [0, 0]}, [])
        assert not check_map(alg)["weights-nonzero"][0]

    def test_repeated_weight_flagged(self):
        alg = WeightedLieAlgebra.build(2, ["x", "y"], {"x": [1, 0], "y": [1, 0]}, [])
        assert not check_map(alg)["multiplicity-one"][0]

    def test_proportional_weights_flagged(self):
        alg = WeightedLieAlgebra.build(2, ["x", "y"], {"x": [1, 0], "y": [2, 0]}, [])
        assert not check_map(alg)["no-proportional-weights"][0]

    def test_off_grade_bracket_flagged(self):
        alg = WeightedLieAlgebra.build(
            2,
            ["x", "y", "z"],
            {"x": [1, 0], "y": [0, 1], "z": [2, 1]},
            [("x", "y", {"z": 1})],
        )
        assert not check_map(alg)["grading"][0]

    def test_jacobi_failure_flagged(self):
        # two brackets that cannot coexist: [x,y]=w and [x,w]=y breaks
        # grading and jacobi; check jacobi on an honest grading instead
        alg = WeightedLieAlgebra.build(
            3,
            ["x", "y", "z", "xy", "yz", "xyz"],
            {
                "x": [1, 0, 0],
                "y": [0, 1, 0],
                "z": [0, 0, 1],
                "xy": [1, 1, 0],
                "yz": [0, 1, 1],
                "xyz": [1, 1, 1],
            },
            [
                ("x", "y", {"xy": 1}),
                ("y", "z", {"yz": 1}),
                ("x", "yz", {"xyz": 1}),
                ("xy", "z", {"xyz": -1}),  # wrong sign relative to jacobi
            ],
        )
        cm = check_map(alg)
        assert cm["grading"][0]
        assert not cm["jacobi"][0]

    def test_classification_reports_center(self):
        assert "zero" in check_map(A2)["classification"][1]
        single = WeightedLieAlgebra.build(2, ["x"], {"x": [1, 1]}, [])
        assert "dimension 1" in check_map(single)["classification"][1]


class TestCenter:
    def test_trivial_centers(self):
        for alg in (A2, A3, HEIS):
            assert alg.center().rows == 0

    def test_weight_rank(self):
        assert A2.t_dim - A2.center().rows == rank(weight_matrix(A2)) == 2
        assert A3.t_dim - A3.center().rows == rank(weight_matrix(A3)) == 3

    def test_nontrivial_center_is_weight_kernel(self):
        alg = WeightedLieAlgebra.build(2, ["x"], {"x": [1, 1]}, [])
        c = alg.center()
        assert c.rows == 1
        t = c.row(0)
        assert alg.weights[0](t) == 0


class TestTorusStructure:
    def test_lambda_of(self):
        assert lambda_of(A2, F(1, 1, 0, 0, 0)) == ()
        assert lambda_of(A2, F(1, -1, 0, 0, 0)) == (2,)
        assert lambda_of(A2, F(0, 1, 0, 0, 0)) == (0,)
        with pytest.raises(AlgebraError):
            lambda_of(A2, F(1, 0, 1, 0, 0))

    def test_complete_subsets_a2(self):
        assert A2.complete_subsets() == [(), (0,), (0, 1, 2), (1,), (2,)]

    def test_complete_subsets_are_lambda_images(self):
        # each complete subset arises as lambda_of(s) for its kernel
        for alg in (A2, A3):
            for sub in alg.complete_subsets():
                ker = alg.torus_kernel([alg.weights[i] for i in sub])
                got = {
                    i
                    for i, w in enumerate(alg.weights)
                    if all(w(ker.row(r)) == 0 for r in range(ker.rows))
                }
                assert got == set(sub)

    def test_centralizer_in_a(self):
        assert A2.centralizer_in_a((0, 2))
        assert A2.centralizer_in_a((1, 2))
        assert not A2.centralizer_in_a((0, 1))


class TestRestrict:
    def test_full_subset_recovers_algebra(self):
        sub, degenerate = A2.restrict((0, 1, 2))
        assert not degenerate
        assert sub.t_dim == 2 and sub.n == 3
        assert sub.is_valid()
        assert sub.pair_bracket(0, 1) == F(0, 0, 1)

    def test_singleton_subset(self):
        sub, degenerate = A2.restrict((2,))
        assert not degenerate
        assert sub.t_dim == 1 and sub.n == 1
        assert sub.is_valid()

    def test_empty_subset_degenerates(self):
        sub, degenerate = A2.restrict(())
        assert degenerate
        assert sub.dim == 0

    def test_incomplete_subset_rejected(self):
        with pytest.raises(AlgebraError):
            A3.restrict((0, 1))

    def test_dimension_inequality(self):
        # restricted nilpotent rank never exceeds the ambient gap n - d#
        for alg in (A2, A3):
            gap = alg.n - (alg.t_dim - alg.center().rows)
            for sub in alg.complete_subsets():
                if not sub:
                    continue
                r, _ = alg.restrict(sub)
                assert r.n - (r.t_dim - r.center().rows) <= gap


class TestCentralizer:
    def test_regular_torus_element(self):
        cent = A2.centralizer(F(1, 1, 0, 0, 0))
        assert cent.rows == 2
        assert A2.regular_test(F(1, 1, 0, 0, 0))

    def test_singular_torus_element(self):
        cent = A2.centralizer(F(1, -1, 0, 0, 0))
        assert cent.rows == 3
        assert not A2.regular_test(F(1, -1, 0, 0, 0))

    def test_nilpotent_element_not_regular(self):
        assert not A2.regular_test(F(0, 0, 1, 0, 0))


class TestJordan:
    def test_torus_element_is_semisimple(self):
        s, n = A2.jordan_decompose(F(1, 2, 0, 0, 0))
        assert s == F(1, 2, 0, 0, 0) and n == F(0, 0, 0, 0, 0)

    def test_weight_vector_is_nilpotent(self):
        s, n = A2.jordan_decompose(F(0, 0, 1, 0, 0))
        assert s == F(0, 0, 0, 0, 0) and n == F(0, 0, 1, 0, 0)

    def test_commuting_mixture_splits(self):
        # (1,1)(t1 - t2) = 0, so x_ab commutes with t1 - t2
        s, n = A2.jordan_decompose(F(1, -1, 0, 0, 1))
        assert s == F(1, -1, 0, 0, 0) and n == F(0, 0, 0, 0, 1)

    def test_conjugate_of_torus_is_semisimple(self):
        # t1 + t2 + x_a is exp(ad x_a)-conjugate to t1 + t2
        x = F(1, 1, 1, 0, 0)
        s, n = A2.jordan_decompose(x)
        assert s == x and n == F(0, 0, 0, 0, 0)

    def test_parts_commute_and_sum(self):
        x = F(2, -1, 3, 1, -2)
        s, n = A2.jordan_decompose(x)
        assert tuple(a + b for a, b in zip(s, n)) == x
        assert all(c == 0 for c in A2.bracket(s, n))
        # the middle weight vanishes on (1, 0, 1): that component is nilpotent
        s3, n3 = A3.jordan_decompose(F(1, 0, 1, 0, 2, 0, 0, 0, 0))
        assert s3 == F(1, 0, 1, 0, 0, 0, 0, 0, 0)
        assert n3 == F(0, 0, 0, 0, 2, 0, 0, 0, 0)

    def test_center_obstruction(self):
        alg = WeightedLieAlgebra.build(2, ["x"], {"x": [1, 1]}, [])
        with pytest.raises(CenterNotTrivialError):
            alg.jordan_decompose(F(1, 0, 1))

    def test_element_that_needs_several_passes(self):
        # x3 vanishes at the torus part (1, 2, 0), so its coordinate is
        # left; the factors of x1 and x2 put terms on x12, x23 and x123,
        # all deeper in `factor_order`, which later factors of the one
        # pass clear
        x = F(1, 2, 0, 1, 1, 1, 0, 0, 0)
        s, n = A3.jordan_decompose(x)
        assert s == (F(1, 2, 0, 1, 1, 0, 0) + (Fraction(1, 2), Fraction(-1, 6)))
        assert n == (F(0, 0, 0, 0, 0, 1, 0) + (Fraction(-1, 2), Fraction(1, 6)))
        assert not any(A3.bracket(s, n))

    def test_pure_torus_element_is_its_own_semisimple_part(self):
        x = F(1, -2, 5, 0, 0, 0, 0, 0, 0)
        assert A3.jordan_decompose(x) == (x, A3.zero())

    def test_zero_torus_part_is_nilpotent(self):
        x = F(0, 0, 0, 1, -2, 3, Fraction(1, 2), 5, -6)
        assert A3.jordan_decompose(x) == (A3.zero(), x)

    def test_sl2_borel(self):
        alg = models.sl2_borel()
        assert alg.jordan_decompose(F(2, 3)) == (F(2, 3), F(0, 0))
        assert alg.jordan_decompose(F(0, 3)) == (F(0, 0), F(0, 3))

    def test_non_jacobi_algebra_raises(self):
        alg = WeightedLieAlgebra.build(
            3,
            ["x1", "x2", "x3", "x12", "x23", "x123"],
            {"x1": [1, 0, 0], "x2": [0, 1, 0], "x3": [0, 0, 1], "x12": [1, 1, 0], "x23": [0, 1, 1], "x123": [1, 1, 1]},
            [("x1", "x2", {"x12": 1}), ("x2", "x3", {"x23": 1}), ("x1", "x23", {"x123": 1}), ("x12", "x3", {"x123": 0})],
        )
        with pytest.raises(AlgebraError, match=r"^jordan decomposition needs the jacobi identity: jacobi fails on \(x1,x2,x3\)$"):
            alg.jordan_decompose(F(1, 2, 3, 1, 1, 1, 0, 0, 0))

    def test_non_nilpotent_algebra_raises(self):
        # [h, e] = e with h of weight 0: Jacobi holds and the center is zero,
        # but ad h is semisimple, so h cannot be a nilpotent part
        alg = WeightedLieAlgebra.build(1, ["h", "e"], {"h": [0], "e": [1]}, [("h", "e", {"e": 1})])
        assert alg._jacobi()[0] and alg.center().rows == 0
        with pytest.raises(AlgebraError, match="^jordan decomposition needs a nilpotent a$"):
            alg.jordan_decompose(F(0, 1, 0))


class TestVectorLength:
    """A vector whose length is not dim is refused with `AlgebraError`
    before any work: read against the basis, a short one took zeros for
    its missing coordinates and a long one raised `IndexError`."""

    SHORT, LONG = F(1, 2, 3), F(1, 2, 0, 0, 0, 1)
    MESSAGE = r"^a vector of r has 5 coordinates, not {}$"

    def refuses(self, call, *args):
        for v in (self.SHORT, self.LONG, F(1, 2)):
            with pytest.raises(AlgebraError, match=self.MESSAGE.format(len(v))):
                call(*args, v)

    def test_jordan_decompose(self, monkeypatch):
        # before the precondition check, which a short vector used to pass
        monkeypatch.setattr(WeightedLieAlgebra, "check_jordan_preconditions", lambda alg: pytest.fail("work began"))
        self.refuses(A2.jordan_decompose)

    def test_centralizer(self):
        self.refuses(A2.centralizer)

    def test_regular_test(self):
        self.refuses(A2.regular_test)

    def test_bracket_and_ad(self):
        self.refuses(A2.ad)
        self.refuses(A2.bracket, A2.zero())
        self.refuses(lambda v: A2.bracket(v, A2.zero()))

    def test_commuting(self):
        self.refuses(lambda v: A2.commuting([A2.zero(), v]))

    def test_right_length_still_answers(self):
        x = F(1, 1, 1, 0, 0)
        assert A2.jordan_decompose(x) == (x, A2.zero())
        assert A2.centralizer(x).rows == 2 and A2.regular_test(x)
        assert A2.commuting([x, x]) and not A2.commuting([x, F(0, 0, 0, 1, 0)])


class TestJordanWithoutSympy:
    """The Jordan decomposition and the routes that use it run on Fraction
    arithmetic alone: a fresh interpreter runs them and never imports
    sympy."""

    def test_jordan_biggest_torus_and_membership(self):
        run_without_sympy(
            """
from fractions import Fraction
from orbitvar import models, orbit
alg = models.builtin("borel-nilradical-A3")
x = tuple(map(Fraction, (1, 2, 0, 1, 1, 1, 0, 0, 0)))
s, n = alg.jordan_decompose(x)
assert tuple(a + b for a, b in zip(s, n)) == x and not any(alg.bracket(s, n))
assert orbit.biggest_torus(alg, orbit.torus_subspace(alg)) == ()
moved, limit = orbit.act(alg, [(0, 2)], orbit.torus_subspace(alg)), orbit.fixed_point_record(alg, (0,)).subspace
assert orbit.biggest_torus(alg, moved) == ()
assert orbit.biggest_torus(alg, limit) == (0,)
assert orbit.membership(alg, moved).kind == "orbit"
assert orbit.membership(alg, limit).kind == "limit"
"""
        )


class TestBuild:
    """`build` refuses what `from_json` refuses about the weights, with
    `from_json`'s messages, before anything is built."""

    def test_a_weight_of_the_wrong_length_is_refused(self):
        # a weight pairs with a torus vector by `zip`, so one of another
        # length would act cut short or padded with zeros
        with pytest.raises(AlgebraError, match="^weight length must equal t_dim$"):
            WeightedLieAlgebra.build(2, ["x", "y"], {"x": [1], "y": [0, 1, 5]})

    def test_a_name_with_no_weight_is_refused(self):
        for weights in ({}, {"x": [1, 0], "y": [0, 1]}):
            with pytest.raises(AlgebraError, match="^weights must be given for exactly the a-basis$"):
                WeightedLieAlgebra.build(2, ["x"], weights)


class TestSerialization:
    def test_roundtrip(self):
        for alg in (A2, A3, HEIS):
            again = WeightedLieAlgebra.from_json(alg.to_json())
            assert again == alg
            assert again.fingerprint() == alg.fingerprint()

    def test_fingerprints_distinguish(self):
        assert A2.fingerprint() != HEIS.fingerprint()

    def test_rationals_as_strings(self):
        alg = WeightedLieAlgebra.build(1, ["x"], {"x": [Fraction(1, 2)]}, [])
        data = alg.to_json()
        again = WeightedLieAlgebra.from_json(data)
        assert again.weights[0].coords == (Fraction(1, 2),)

    def test_malformed_rational_rejected(self):
        data = A2.to_json()
        data["weights"]["xa"] = ["1/0", "0"]
        with pytest.raises((AlgebraError, ZeroDivisionError)):
            WeightedLieAlgebra.from_json(data)


class TestBracket:
    def test_bilinearity_sampled(self):
        import random

        rng = random.Random(8)
        for alg in (A2, A3):
            for _ in range(10):
                x = [Fraction(rng.randint(-3, 3)) for _ in range(alg.dim)]
                y = [Fraction(rng.randint(-3, 3)) for _ in range(alg.dim)]
                z = [Fraction(rng.randint(-3, 3)) for _ in range(alg.dim)]
                lhs = alg.bracket([a + b for a, b in zip(x, y)], z)
                rhs = [
                    a + b for a, b in zip(alg.bracket(x, z), alg.bracket(y, z))
                ]
                assert list(lhs) == rhs
                assert list(alg.bracket(x, x)) == [Fraction(0)] * alg.dim

    def test_ad_matches_bracket(self):
        x = F(1, 2, 3, -1, 0)
        adx = A2.ad(x)
        y = F(0, 1, 1, 1, 1)
        assert apply(adx, y) == A2.bracket(x, y)

    def test_torus_acts_diagonally(self):
        t = F(3, -2, 0, 0, 0)
        for i, w in enumerate(A2.weights):
            got = A2.bracket(t, A2.weight_vector(i))
            expect = tuple(
                w(t[:2]) * c for c in A2.weight_vector(i)
            )
            assert got == expect


class TestMemo:
    """Derived data is memoised per instance and never shows outside it."""

    @pytest.mark.parametrize("name", ["borel-nilradical-A2", "heisenberg-3", "abelian:2"])
    def test_filled_memo_is_invisible(self, name):
        alg, fresh = models.builtin(name), models.builtin(name)
        alg.center()
        orbit.membership(alg, theta(alg, 0, 2))
        orbit.multipoint_membership(alg, [alg.weight_vector(0)])
        orbit.group_fixed_points(alg)
        assert alg._memo and not fresh._memo
        assert alg == fresh and hash(alg) == hash(fresh) and repr(alg) == repr(fresh)
        assert alg.to_json() == fresh.to_json()
        assert not fresh._memo
        # the fingerprint is itself memoised, and only it
        assert alg.fingerprint() == fresh.fingerprint()
        assert set(fresh._memo) == {"fingerprint"}
        assert cli.cmd_fixed_points(alg, 0).render_json() == cli.cmd_fixed_points(fresh, 0).render_json()

    def test_repeat_calls_return_the_same_object(self):
        alg = models.borel_nilradical_a2()
        torus = orbit.torus_fixed_points(alg)
        assert isinstance(torus, tuple)
        assert all(a is b for a, b in zip(orbit.torus_fixed_points(alg), torus, strict=True))
        group = orbit.group_fixed_points(alg)
        assert isinstance(group, tuple) and orbit.group_fixed_points(alg) is group
        assert alg.center() is alg.center()
        table = alg.ad_table()
        assert isinstance(table, tuple) and alg.ad_table() is table

    def test_equal_instances_do_not_share_state(self):
        first = models.borel_nilradical_a2()
        second = WeightedLieAlgebra.from_json(first.to_json())
        orbit.torus_fixed_points(first)
        assert first == second and first._memo is not second._memo
        assert not second._memo
        assert not any(a is b for a, b in zip(orbit.torus_fixed_points(second), orbit.torus_fixed_points(first)))
        assert orbit.torus_fixed_points(second) == orbit.torus_fixed_points(first)
