"""The chart path in integers: a `Poly` holds an int where a coefficient
is integral and a `Fraction` otherwise, `chart_ideal` assembles its
generators term by term, and `_solve` substitutes a solved variable only
where it occurs.  The assembly and the solve are pinned to the `Poly`
product route they replaced (`chart_reference`), term order included,
since `_solvable` picks the variable to solve from it; `Poly` arithmetic
and the reader are pinned to the same computation done in `Fraction`;
`ps-check` decides P_s ⊆ kernel by substitution."""

import operator
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from chart_reference import chart_generators, determinantal_P, solve_linear
from orbitvar import ideals, models, orbit, report
from orbitvar.ideals import (
    Ideal,
    IdealError,
    Poly,
    PolyRing,
    _parse,
    _solve,
    chart_ideal,
    eliminate,
    minor_ideal,
    primality_crosscheck_P,
    u_function,
)
from orbitvar.liealg import WeightedLieAlgebra
from test_liealg_sparse import root_subset_algebras
from test_property_p import borel_nilradical_a4

BUILTINS = ("sl2-borel", "borel-nilradical-A2", "heisenberg-3", "abelian:2", "abelian:3", "borel-nilradical-A3")


def exact(p) -> bool:
    """Every coefficient of p is nonzero, an int when it is integral and a
    `Fraction` otherwise."""
    return all(c and (type(c) is int or (type(c) is Fraction and c.denominator != 1)) for c in p.values())


def terms(p) -> list:
    return list(p.items())


def assert_same_chart_and_solve(alg):
    """Every group-fixed base point: the dual torus basis, the
    generators, and `_solve`'s kept variables, images and remaining
    generators, term for term."""
    charts = 0
    for recd in orbit.group_fixed_points(alg):
        try:
            chart = chart_ideal(alg, recd.subspace)
        except IdealError as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                chart_generators(alg, recd.subspace)
            continue
        ring, gens, duals = chart_generators(alg, recd.subspace)
        assert chart.dual_basis == tuple(duals)
        assert all(type(e) is int or e.denominator != 1 for dv in chart.dual_basis for e in dv)
        assert chart.ideal.ring == ring
        assert [terms(g) for g in chart.ideal.polys] == [terms(g) for g in gens]
        assert all(exact(g) for g in chart.ideal.polys)
        sub = _solve(chart.ideal.ring, chart.ideal.polys)
        kept, images, rest = solve_linear(ring, gens)
        assert sub.kept == kept
        assert list(sub.images) == list(images)
        assert [terms(v) for v in sub.images.values()] == [terms(v) for v in images.values()]
        assert [terms(g) for g in sub.rest] == [terms(g) for g in rest]
        assert all(exact(p) for p in sub.rest + tuple(sub.images.values()))
        charts += 1
    return charts


@pytest.mark.parametrize("name", BUILTINS)
def test_chart_assembly_and_solve_match_the_product_route_on_builtins(name):
    assert assert_same_chart_and_solve(models.builtin(name)) >= 1


@pytest.mark.parametrize("variant", range(4))
def test_chart_assembly_and_solve_match_the_product_route_on_a4(variant):
    assert assert_same_chart_and_solve(borel_nilradical_a4(variant)) == 4


@settings(max_examples=40)
@given(root_subset_algebras())
def test_chart_assembly_and_solve_match_the_product_route_on_drawn_algebras(spec):
    assert_same_chart_and_solve(WeightedLieAlgebra.build(*spec))


def test_u_forms_and_minors_match_ring_arithmetic():
    """The u-forms and the 2x2 minors, built term by term, against the
    same sums and products of ring elements."""
    alg = models.builtin("borel-nilradical-A3")
    for recd in orbit.group_fixed_points(alg):
        chart = chart_ideal(alg, recd.subspace)
        for gamma in alg.weights:
            for i in range(1, chart.d + 1):
                want = chart.ideal.ring.zero
                for j in range(1, chart.d + 1):
                    val = gamma(chart.dual_basis[j - 1])
                    if val:
                        want += chart.z(i, j) * val
                got = u_function(chart, i, gamma)
                assert terms(got) == terms(want) and exact(got)
    for s in range(1, 6):
        p, p_prime, p_dbl = determinantal_P(s)
        u, t = p.ring.gens[:s], p.ring.gens[s:]
        minors = [u[j] * t[k] - u[k] * t[j] for j in range(s) for k in range(j + 1, s)]
        assert [terms(g) for g in minor_ideal(s).polys] == [terms(g) for g in minors]
        assert [terms(g) for g in p_prime.polys] == [terms(u[j] * t[0] - u[0] * t[j]) for j in range(1, s)]
        rec = [u[j] * t[k] - u[k] * t[j] for j in range(s - 1) for k in range(j + 1, s - 1)]
        rec += [u[s - 1] * t[0] - u[0] * t[s - 1]] if s >= 2 else []
        assert [terms(g) for g in p_dbl.polys] == [terms(g) for g in rec]


# -- Poly arithmetic and the reader against the same computation in Fraction

RING = PolyRing(("x", "y", "z"))
CONSTANTS = st.tuples(st.integers(-6, 6), st.integers(1, 4))  # p/q, often whole


def trees():
    """Expression trees: variables and constants p/q, combined by +, -,
    *, a sign, / by a nonzero constant and ** 0-3."""
    leaves = st.one_of(st.sampled_from(range(3)).map(lambda i: ("var", i)), CONSTANTS.map(lambda c: ("const", c)))
    nonzero = CONSTANTS.filter(lambda c: c[0] != 0)

    def grow(inner):
        return st.one_of(
            st.tuples(st.sampled_from(("add", "sub", "mul")), inner, inner),
            st.tuples(st.just("neg"), inner),
            st.tuples(st.just("div"), inner, nonzero),
            st.tuples(st.just("pow"), inner, st.integers(0, 3)),
        )

    return st.recursive(leaves, grow, max_leaves=8).filter(lambda t: degree(t) <= 12)


def degree(t) -> int:
    """A bound on the total degree of the tree's value, which keeps nested
    powers small."""
    kind = t[0]
    if kind in ("var", "const"):
        return int(kind == "var")
    if kind == "pow":
        return degree(t[1]) * t[2]
    if kind == "mul":
        return degree(t[1]) + degree(t[2])
    if kind in ("neg", "div"):
        return degree(t[1])
    return max(degree(t[1]), degree(t[2]))


def text(t) -> str:
    kind = t[0]
    if kind == "var":
        return RING.variables[t[1]]
    if kind == "const":
        return f"({t[1][0]}/{t[1][1]})"
    if kind == "neg":
        return f"-({text(t[1])})"
    if kind == "div":
        return f"({text(t[1])})/({t[2][0]}/{t[2][1]})"
    if kind == "pow":
        return f"({text(t[1])})**{t[2]}"
    return f"({text(t[1])}) {dict(add='+', sub='-', mul='*')[kind]} ({text(t[2])})"


def reference(t) -> dict:
    """The tree's value as exponent tuple -> nonzero `Fraction`, by
    arithmetic on `Fraction`s alone."""

    def add(a, b, sign=1):
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, Fraction(0)) + sign * c
        return {m: c for m, c in out.items() if c}

    def mul(a, b):
        out: dict = {}
        for m, c in a.items():
            for k, d in b.items():
                mk = tuple(map(operator.add, m, k))
                out[mk] = out.get(mk, Fraction(0)) + c * d
        return {m: c for m, c in out.items() if c}

    kind = t[0]
    if kind == "var":
        return {tuple(int(i == t[1]) for i in range(3)): Fraction(1)}
    if kind == "const":
        c = Fraction(*t[1])
        return {(0, 0, 0): c} if c else {}
    if kind == "neg":
        return {m: -c for m, c in reference(t[1]).items()}
    if kind == "div":
        return {m: c / Fraction(*t[2]) for m, c in reference(t[1]).items()}
    if kind == "pow":
        out, a = {(0, 0, 0): Fraction(1)}, reference(t[1])
        for _ in range(t[2]):
            out = mul(out, a)
        return out
    a, b = reference(t[1]), reference(t[2])
    return mul(a, b) if kind == "mul" else add(a, b, -1 if kind == "sub" else 1)


def by_poly(t):
    """The tree's value by `Poly` arithmetic, a constant kept as an int or
    a `Fraction` scalar until it meets a `Poly`."""
    kind = t[0]
    if kind == "var":
        return RING.gens[t[1]]
    if kind == "const":
        p, q = t[1]
        return p if q == 1 else Fraction(p, q)  # an int, or a Fraction, whole or not
    if kind == "neg":
        return -by_poly(t[1])
    if kind == "div":
        return by_poly(t[1]) * Fraction(t[2][1], t[2][0])
    if kind == "pow":
        a = by_poly(t[1])
        return a ** t[2] if isinstance(a, Poly) else RING(a) ** t[2]
    a, b = by_poly(t[1]), by_poly(t[2])
    return {"add": operator.add, "sub": operator.sub, "mul": operator.mul}[kind](a, b)


@settings(max_examples=300)
@given(trees())
def test_poly_arithmetic_and_the_reader_keep_ints_and_match_fractions(tree):
    want = reference(tree)
    value = by_poly(tree)
    value = value if isinstance(value, Poly) else RING(value)
    read = _parse(RING, text(tree))
    for got in (value, read):
        assert dict(got) == want
        assert exact(got)


def test_ring_gens_and_constants_are_ints():
    assert all(terms(g) == [(e, 1)] and type(g[e]) is int for g, e in zip(RING.gens, RING.units))
    assert terms(RING(Fraction(6, 3))) == [((0, 0, 0), 2)] and type(RING(Fraction(6, 3))[0, 0, 0]) is int
    assert RING(Fraction(1, 2))[0, 0, 0] == Fraction(1, 2)
    assert str(RING.gens[0] * Fraction(3, 1)) == str(RING.gens[0] * 3) == "3*x"


def test_the_basis_hands_back_ints_where_integral():
    """`_Basis.monic` (through `groebner()`, `eliminate`) and
    `_Basis.reduce` (through `normal_form`) divide exactly."""
    ideal = Ideal.make(RING, ["2*x - 3*y", "x*z - 4*y**2"])
    for _, g in ideal.groebner():
        assert exact(g)
    assert exact(ideal.normal_form("x**2 + 5*z/2"))
    assert all(exact(g) for g in eliminate(ideal, ("x",)).polys)


# -- ps-check: P_s in the kernel by substitution


@pytest.mark.parametrize("s", range(2, 6))
def test_p_in_kernel_by_substitution_matches_the_kernel_basis(s):
    """The substitution T_i -> lam*u_i sends every generator of P_s to 0,
    and the kernel computed by elimination contains P_s: the inclusion
    the basis of the kernel decides agrees."""
    p = minor_ideal(s)
    out = primality_crosscheck_P(s, p)
    assert out.checks[0].details["P_in_kernel"] is True
    ring = PolyRing(("lam",) + p.ring.variables)
    lam, u, t = ring.gens[0], ring.gens[1 : s + 1], ring.gens[s + 1 :]
    graph = Ideal.make(ring, [t[i] - lam * u[i] for i in range(s)])
    kernel = Ideal.make(p.ring, eliminate(graph, ("lam",)).polys)
    assert kernel.contains_ideal(p)


def test_an_ideal_outside_the_kernel_is_refuted():
    """A p larger than P_2, by u1: the kernel still lies in p, but u1
    does not map to 0 under T_i -> lam*u_i, so P_in_kernel reads False
    and the check is refuted."""
    p = minor_ideal(2)
    bigger = Ideal.make(p.ring, p.polys + ("u1",))
    out = primality_crosscheck_P(2, bigger)
    (check,) = out.checks
    assert check.details == {"kernel_in_P": True, "P_in_kernel": False}
    assert check.verdict == report.REFUTED
    # a generator that maps to 0 only after cancelling between its terms
    assert primality_crosscheck_P(2, Ideal.make(p.ring, ["u1*T2 - u2*T1", "u1**2*T2 - u1*u2*T1"])).checks[
        0
    ].verdict == report.PROVEN


@pytest.mark.parametrize("s, other", [(2, 3), (3, 2), (1, 2)])
def test_a_minor_ideal_of_another_s_is_refused(s, other):
    """P_3 given as P_2 used to read `refuted`, P_2 given as P_3 raised
    `IndexError`, and P_2 given as P_1 read `proven` as the zero ideal;
    each is a p outside the ring of P_s, refused before any check."""
    with pytest.raises(IdealError, match=f"not an ideal of the ring of P{s}"):
        primality_crosscheck_P(s, minor_ideal(other))
    assert not primality_crosscheck_P(s, minor_ideal(s)).has_refutation()


def test_reader_divides_exactly_by_an_int():
    """`a / c` with c a whole constant stays exact: a Fraction, never a
    float."""
    got = _parse(RING, "x/3 + y/2*4")
    assert got == RING({(1, 0, 0): Fraction(1, 3), (0, 1, 0): 2}) and exact(got)


def test_an_exponent_a_substitution_would_cancel_is_refused_at_the_field_boundary():
    """`_check_exponents` reads every monomial's largest exponent before
    `_solve` runs: x := y cancels the second generator, so only that
    check sees its exponent.  32767 is the largest a packed field holds."""
    ring = PolyRing(("x", "y"))
    assert Ideal.make(ring, ["x - y", "x**32767 - y**32767"]).is_unit() is False
    with pytest.raises(ideals.ScaleExceededError):
        Ideal.make(ring, ["x - y", "x**32768 - y**32768"]).is_unit()
    with pytest.raises(ideals.ScaleExceededError):
        Ideal.make(ring, ["x - y"]).contains("x**32768 - y**32768")


def test_a_chain_of_linear_generators_reaches_every_value_found():
    """x := y, then y := z, then z := w: each value already found takes
    every later substitution, also of a variable it gained from an
    earlier one, so every image is w."""
    ring = PolyRing(("x", "y", "z", "w"))
    polys = Ideal.make(ring, ["x - y", "y - z", "z - w", "w**2 - x"]).polys
    sub = _solve(ring, polys)
    kept, images, rest = solve_linear(ring, polys)
    assert sub.kept == kept == (3,)
    assert [terms(v) for v in sub.images.values()] == [terms(v) for v in images.values()] == [[((1,), 1)]] * 3
    assert [terms(g) for g in sub.rest] == [terms(g) for g in rest] == [[((2,), 1), ((1,), -1)]]
