"""Polynomial ideal computations: Gröbner normal forms, elimination,
quotients, Krull dimension, the determinantal minor ideals, and the
chart ideals at group-fixed base points."""

from fractions import Fraction

import pytest
import sympy

from chart_reference import determinantal_P
from orbitvar import models
from orbitvar import report as rep
from orbitvar.ideals import (
    ChartIdeal,
    Ideal,
    IdealError,
    NotGroupFixedError,
    PolyRing,
    ScaleExceededError,
    UnitIdealError,
    chart_dimension,
    chart_ideal,
    eliminate,
    hilbert_dimension,
    i_gamma,
    ideal_quotient,
    nilcone_dimension,
    nilpotent_locus_dimension,
    primality_crosscheck_P,
    regular_sequence_check,
    u_function,
    verify_chart_relation,
)
from orbitvar.liealg import Weight
from orbitvar.orbit import Subspace, group_fixed_points
from sympy_reference import basis, generators, symbols, to_sympy

A2 = models.borel_nilradical_a2()

x, y, z, t = sympy.symbols("x y z t")


def text(*exprs) -> list:
    """sympy expressions as the text `ideals` reads."""
    return [str(e) for e in exprs]


def ring3():
    return PolyRing(("x", "y", "z"))


class TestIdealBasics:
    def test_normal_form_and_contains(self):
        r = PolyRing(("x", "y"))
        i = Ideal.make(r, text(x**2 - y, y**2 - x))
        assert i.contains(str(x**4 - x))
        assert not i.contains(str(x + y))
        # y - x**2 is solved: normal forms are in x, and x**4 = x
        assert to_sympy(i.normal_form(str(y))) == x**2
        assert to_sympy(i.normal_form(str(x**5 + y**2))) == x**2 + x

    def test_rational_coefficients_against_integer_generators(self):
        i = Ideal.make(ring3(), text(x * y))
        assert not i.contains(str(x / 2))
        assert i.contains(str(x * y / 2))
        assert to_sympy(i.normal_form(str(x / 2 + x * y))) == x / 2

    def test_zero_ideal(self):
        i = Ideal.make(ring3(), [])
        assert to_sympy(i.normal_form(str(x * y))) == x * y
        assert not i.is_unit()
        assert hilbert_dimension(i) == 3

    def test_unit_ideal(self):
        i = Ideal.make(ring3(), text(x, x + 1))
        assert i.is_unit()
        with pytest.raises(UnitIdealError):
            hilbert_dimension(i)

    def test_foreign_variables_rejected(self):
        with pytest.raises(IdealError):
            Ideal.make(ring3(), text(t + x))

    def test_contains_ideal(self):
        big = Ideal.make(ring3(), text(x, y))
        small = Ideal.make(ring3(), text(x * y, x + y))
        assert big.contains_ideal(small)
        assert not small.contains_ideal(big)


class TestEliminate:
    def test_parametrized_parabola(self):
        r = PolyRing(("t", "x", "y"))
        i = Ideal.make(r, text(x - t, y - t**2))
        out = eliminate(i, ("t",))
        assert set(out.ring.variables) == {"x", "y"}
        assert out.contains(str(y - x**2))
        assert not out.contains(str(x))

    def test_drop_everything_from_proper_ideal(self):
        r = PolyRing(("x", "y"))
        i = Ideal.make(r, text(x - y))
        out = eliminate(i, ("x", "y"))
        assert generators(out) == ()


class TestQuotient:
    def test_monomial_quotients(self):
        i = Ideal.make(ring3(), text(x * y))
        q = ideal_quotient(i, str(x))
        assert q.contains(str(y)) and not q.contains(str(x))

    def test_principal_power(self):
        i = Ideal.make(ring3(), text(x**2))
        q = ideal_quotient(i, str(x))
        assert q.contains(str(x))
        assert not q.contains(1)

    def test_foreign_divisor_rejected(self):
        with pytest.raises(IdealError):
            ideal_quotient(Ideal.make(ring3(), text(x * y)), str(t))

    def test_nonzerodivisor_gives_same_ideal(self):
        i = Ideal.make(ring3(), text(x * y - z**2))
        q = ideal_quotient(i, str(x + y))
        assert q.contains_ideal(i) and i.contains_ideal(q)


class TestHilbertDimension:
    def test_linear_cuts(self):
        assert hilbert_dimension(Ideal.make(ring3(), text(x))) == 2
        assert hilbert_dimension(Ideal.make(ring3(), text(x, y))) == 1
        assert hilbert_dimension(Ideal.make(ring3(), text(x, y, z))) == 0

    def test_hypersurface(self):
        assert hilbert_dimension(Ideal.make(ring3(), text(x * y - z**2))) == 2

    def test_matches_sympy_on_twisted_cubic(self):
        r = PolyRing(("x", "y", "z", "w"))
        w = sympy.Symbol("w")
        i = Ideal.make(r, text(x * z - y**2, y * w - z**2, x * w - y * z))
        assert hilbert_dimension(i) == 2


class TestDeterminantal:
    def test_s1_is_zero(self):
        p, pp, pd = determinantal_P(1)
        assert generators(p) == () and generators(pp) == () and generators(pd) == ()

    def test_dimension_s_plus_one(self):
        for s in (2, 3, 4):
            p, _, _ = determinantal_P(s)
            assert hilbert_dimension(p) == s + 1

    def test_p3_basis_is_the_three_minors(self):
        p, _, _ = determinantal_P(3)
        u1, u2, u3, t1, t2, t3 = sympy.symbols("u1 u2 u3 T1 T2 T3")
        minors = {
            sympy.expand(u1 * t2 - u2 * t1),
            sympy.expand(u1 * t3 - u3 * t1),
            sympy.expand(u2 * t3 - u3 * t2),
        }
        got = {sympy.expand(g) for g in basis(p)}
        normalized = {g if str(g).lstrip("-") == str(g) else -g for g in got}
        assert {sympy.expand(m) for m in normalized} == minors or len(got) == 3

    def test_variant_inclusions(self):
        for s in (2, 3, 4):
            p, pp, pd = determinantal_P(s)
            assert p.contains_ideal(pp)
            assert p.contains_ideal(pd)

    def test_primality_crosscheck(self):
        for s in (2, 3, 4):
            out = primality_crosscheck_P(s)
            assert not out.has_refutation()
            assert out.checks[0].verdict == rep.PROVEN

    def test_scale_guard(self):
        with pytest.raises(ScaleExceededError):
            primality_crosscheck_P(6)

    def test_column_identity(self):
        # T1 (uj Tk - uk Tj) reduces to zero modulo the single-column minors
        for s in (2, 3, 4):
            _, pp, _ = determinantal_P(s)
            us = sympy.symbols(" ".join(f"u{i}" for i in range(1, s + 1)))
            ts = sympy.symbols(" ".join(f"T{i}" for i in range(1, s + 1)))
            if s == 2:
                us, ts = list([us] if not isinstance(us, tuple) else us), list(
                    [ts] if not isinstance(ts, tuple) else ts
                )
            us, ts = list(us), list(ts)
            for j in range(s):
                for k in range(j + 1, s):
                    f = ts[0] * (us[j] * ts[k] - us[k] * ts[j])
                    assert pp.normal_form(str(f)) == 0


class TestRegularSequence:
    def test_coordinates_are_regular(self):
        i = Ideal.make(ring3(), [])
        out = regular_sequence_check(i, text(x, y, z))
        assert all(c.verdict == rep.PROVEN for c in out.checks)

    def test_repeated_element_fails(self):
        i = Ideal.make(ring3(), [])
        out = regular_sequence_check(i, text(x, x))
        assert out.checks[-1].verdict == rep.REFUTED
        assert "zerodivisor" in out.checks[-1].claim

    def test_unit_step_fails(self):
        i = Ideal.make(ring3(), [])
        # x + 1 is congruent to 1 modulo (x), hence a unit at step 2
        out = regular_sequence_check(i, text(x, x + 1))
        assert out.checks[-1].verdict == rep.REFUTED
        assert "unit" in out.checks[-1].claim
        out2 = regular_sequence_check(i, text(sympy.Integer(1)))
        assert out2.checks[-1].verdict == rep.REFUTED
        assert "unit" in out2.checks[-1].claim

    def test_zerodivisor_on_quotient(self):
        # modulo x*y, x kills y
        i = Ideal.make(ring3(), text(x * y))
        out = regular_sequence_check(i, text(x))
        assert out.has_refutation()


def a2_charts():
    out = []
    for recd in group_fixed_points(A2):
        out.append((recd, chart_ideal(A2, recd.subspace)))
    return out


class TestChartIdeal:
    def test_base_point_must_be_group_fixed(self):
        with pytest.raises(NotGroupFixedError):
            chart_ideal(A2, Subspace.from_rows(A2, [
                [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
            ]))

    def test_chart_shapes(self):
        for recd, chart in a2_charts():
            assert chart.d == 2 and chart.m == 1
            assert chart.fixed_weights == recd.r_v_set
            assert len(chart.ideal.ring.variables) == chart.d**2 + chart.d * chart.m

    def test_generators_vanish_at_origin(self):
        for _, chart in a2_charts():
            zero = {s: 0 for s in symbols(chart.ideal.ring)}
            for g in generators(chart.ideal):
                assert sympy.expand(g).subs(zero) == 0

    def test_frozen_generators_first_chart(self):
        recd, chart = next(
            (r, c) for r, c in a2_charts() if r.r_v_set == (0, 2)
        )
        gens = {str(sympy.expand(g)) for g in generators(chart.ideal)}
        assert gens == {
            "-z2_1",
            "a1_1*z2_1 - a1_1*z2_2 - a2_1*z1_1 + a2_1*z1_2",
            "a2_1 + z1_2",
        }

    def test_chart_dimension_is_n(self):
        for _, chart in a2_charts():
            assert chart_dimension(chart) == A2.n

    def test_dual_basis_duality(self):
        for recd, chart in a2_charts():
            for i, wi in enumerate(chart.fixed_weights):
                for j in range(chart.d):
                    val = A2.weights[wi](chart.dual_basis[j][: A2.t_dim])
                    assert val == (1 if i == j else 0)


class TestUFunctions:
    def test_kronecker_on_base_weights(self):
        for recd, chart in a2_charts():
            for j, wi in enumerate(chart.fixed_weights, start=1):
                gamma = A2.weights[wi]
                for i in range(1, chart.d + 1):
                    assert to_sympy(u_function(chart, i, gamma)) == to_sympy(chart.z(i, j))
                assert i_gamma(chart, gamma) == (j,)

    def test_complement_weight_support(self):
        # at the base point a^a + a^{a+b}, the dual basis is (1,-1), (0,1),
        # so b = (0,1) has coefficients (-1, 1)
        recd, chart = next(
            (r, c) for r, c in a2_charts() if r.r_v_set == (0, 2)
        )
        gamma = Weight((Fraction(0), Fraction(1)))
        assert i_gamma(chart, gamma) == (1, 2)
        assert sympy.expand(
            to_sympy(u_function(chart, 1, gamma)) - (-to_sympy(chart.z(1, 1)) + to_sympy(chart.z(1, 2)))
        ) == 0

    def test_row_index_bounds(self):
        _, chart = a2_charts()[0]
        with pytest.raises(IdealError):
            u_function(chart, 0, A2.weights[0])

    @pytest.mark.parametrize("coords", [(1,), (1, 0, 5)])
    def test_u_function_refuses_a_weight_of_the_wrong_length(self, coords):
        _, chart = a2_charts()[0]
        with pytest.raises(IdealError, match="length d = 2"):
            u_function(chart, 1, Weight(coords))

    @pytest.mark.parametrize("coords", [(1,), (1, 0, 5)])
    def test_i_gamma_refuses_a_weight_of_the_wrong_length(self, coords):
        _, chart = a2_charts()[0]
        with pytest.raises(IdealError, match="length d = 2"):
            i_gamma(chart, Weight(coords))


class TestChartGeometry:
    def test_coupling_relation(self):
        for _, chart in a2_charts():
            out = verify_chart_relation(chart)
            assert not out.has_refutation()

    def test_nilcone_dimensions(self):
        for _, chart in a2_charts():
            d, n = A2.t_dim, A2.n
            assert nilcone_dimension(chart) == n
            for subset in [(), (1,), (2,)]:
                assert nilcone_dimension(chart, subset) == n + d - len(subset)

    def test_nilpotent_locus_bound(self):
        for _, chart in a2_charts():
            assert nilpotent_locus_dimension(chart) <= A2.n - A2.t_dim
            assert nilpotent_locus_dimension(chart) == 1

    def test_base_weight_families_are_regular(self):
        for recd, chart in a2_charts():
            for wi in recd.r_v_set:
                gamma = A2.weights[wi]
                seq = [u_function(chart, i, gamma) for i in i_gamma(chart, gamma)]
                out = regular_sequence_check(chart.ideal, seq)
                assert all(c.verdict == rep.PROVEN for c in out.checks)
