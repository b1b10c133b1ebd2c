"""The in-repo Gröbner kernel against sympy's `groebner`, kept here as
the reference: the reduced basis in lex and in grevlex (a `_Basis`
built in that order) must be identical, list order included, on generated
ideals and on every chart ideal of the builtins, and its remainder must
equal that of sympy's `GroebnerBasis.reduce`.  `Ideal.normal_form`,
which reduces by the ideal's one basis, must agree with sympy on
membership."""

import itertools
from fractions import Fraction

import pytest
import sympy
from sympy.polys.orderings import monomial_key

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitvar import models
from orbitvar.ideals import (
    Ideal,
    IdealError,
    PolyRing,
    ScaleExceededError,
    _Basis,
    _parse,
    chart_ideal,
    ideal_quotient,
    regular_sequence_check,
)
from orbitvar.orbit import group_fixed_points
from sympy_reference import generators, symbols, to_sympy


def kernel_basis(ideal: Ideal, order: str) -> _Basis:
    """The kernel's reduced basis of ideal in order, grevlex or lex."""
    n = len(ideal.ring.variables)
    return _Basis(n, ideal.polys, None if order == "lex" else (1,) * n)


def reference_basis(ideal: Ideal, order: str) -> list:
    """sympy's reduced basis over QQ, as exponent -> coefficient dicts."""
    if not ideal.polys:
        return []
    gb = sympy.groebner(generators(ideal), *symbols(ideal.ring), order=order, domain=sympy.QQ)
    return [p.rep.to_dict() for p in gb.polys]


def assert_same_basis(ideal: Ideal, order: str):
    gb = kernel_basis(ideal, order).monic
    assert [dict(g) for _, g in gb] == reference_basis(ideal, order)
    # the cached leading monomials are the leading monomials
    key = monomial_key(order)
    assert [lm for lm, _ in gb] == [max(g, key=key) for _, g in gb]


# -- generated ideals ---------------------------------------------------

COEFFS = st.builds(sympy.Rational, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def ideals(draw):
    """Up to four generators in 2-5 variables, of degree at most 3 in up
    to three variables and at most 2 in more, with rational
    coefficients; homogeneous or not; and an order, grevlex or lex, to
    compare the kernel with sympy in: (ideal, order)."""
    n = draw(st.integers(2, 5))
    syms = sympy.symbols(f"x0:{n}")
    homogeneous = draw(st.booleans())
    top = 3 if n <= 3 else 2
    monomials = [e for e in itertools.product(range(top + 1), repeat=n) if sum(e) <= top]

    def polynomial():
        if homogeneous:
            d = draw(st.integers(1, top))
            pool = [e for e in monomials if sum(e) == d]
        else:
            pool = monomials
        exps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        return sympy.Add(*(draw(COEFFS) * sympy.Mul(*(s**k for s, k in zip(syms, e))) for e in exps))

    gens = [polynomial() for _ in range(draw(st.integers(0, 4)))]
    order = draw(st.sampled_from(("grevlex", "lex")))
    return Ideal.make(PolyRing(tuple(map(str, syms))), [str(g) for g in gens]), order


@settings(max_examples=300)
@given(ideals())
def test_reduced_basis_matches_sympy(case):
    assert_same_basis(*case)


@settings(max_examples=200)
@given(ideals(), st.data())
def test_normal_form_matches_sympy_reduce(case, data):
    """The kernel's remainder in the drawn order is sympy's; and
    `normal_form`, in the ideal's own order, is 0 exactly when sympy
    finds f in the ideal, and differs from f by an element of it."""
    ideal, order = case
    syms = symbols(ideal.ring)
    terms = data.draw(
        st.lists(st.tuples(COEFFS, st.lists(st.integers(0, 3), min_size=len(syms), max_size=len(syms))), max_size=5)
    )
    f = sympy.Add(*(c * sympy.Mul(*(s**k for s, k in zip(syms, e))) for c, e in terms))
    if not ideal.polys:
        assert to_sympy(ideal.normal_form(str(f))) == sympy.expand(f)
        return
    gb = sympy.groebner(generators(ideal), *syms, order=order, domain=sympy.QQ)
    p = _parse(ideal.ring, str(f))
    assert to_sympy(kernel_basis(ideal, order).reduce(p)) == sympy.expand(gb.reduce(f)[1])
    nf = to_sympy(ideal.normal_form(str(f)))
    assert (nf == 0) == gb.contains(f)
    assert gb.contains(f - nf)


@pytest.mark.parametrize("order", ("grevlex", "lex"))
@pytest.mark.parametrize(
    "gens",
    ([], [0], [1], [Fraction(2, 3)], ["x - 1", "x"], ["x*y - 1", "y**2 - x", "x**2 - y"], ["x*y", "x + y"]),
    ids=("no-generators", "zero", "one", "constant", "unit", "unit-by-pairs", "non-minimal-input"),
)
def test_zero_unit_and_small_ideals(order, gens):
    ideal = Ideal.make(PolyRing(("x", "y", "z")), gens)
    assert_same_basis(ideal, order)


def test_kernel_takes_sparse_ring_elements():
    ring = PolyRing(("x", "y"))
    polys = [_parse(ring, g) for g in ("x**2 - y", "x*y - 1")]
    gb = _Basis(2, polys + [ring.zero]).monic
    ref = sympy.groebner(["x**2 - y", "x*y - 1"], *symbols(ring), order="lex", domain=sympy.QQ)
    assert [to_sympy(ring(g)) for _, g in gb] == list(ref.exprs)


@pytest.mark.parametrize("order", ("grevlex", "lex"))
def test_exponents_past_the_packed_fields_are_refused(order):
    """Each exponent has 15 bits in the kernel: an input or a product
    past 32767 raises instead of spilling into the next field, in the
    ideal's own order and in the given one, and in the zero ideal."""
    ring = PolyRing(("x", "y"))
    ideal = Ideal.make(ring, ["x - y"])
    basis = kernel_basis(ideal, order)
    for reduce in (ideal.normal_form, lambda f: basis.reduce(_parse(ring, f))):
        assert reduce("x**16000*y**16000") == ring.gens[1] ** 32000
        with pytest.raises(ScaleExceededError):
            reduce("x**20000*y**20000")  # the remainder y**40000
    big = Ideal.make(ring, ["x**40000 - y"])
    with pytest.raises(ScaleExceededError):
        kernel_basis(big, order)
    with pytest.raises(ScaleExceededError):
        big.is_unit()  # the weighted basis for its grading (1, 40000)
    zero = Ideal.make(ring, [])
    with pytest.raises(ScaleExceededError):
        zero.normal_form("x**40000")
    with pytest.raises(ScaleExceededError):
        zero.contains("x**40000")


def test_an_element_of_a_ring_in_other_variables_is_refused():
    x = PolyRing(("x", "y")).gens[0]
    assert Ideal.make(PolyRing(("x", "y")), [x]).polys == (x,)
    with pytest.raises(IdealError):
        Ideal.make(PolyRing(("y", "x")), [x])


# -- foreign variables ------------------------------------------------------


@pytest.mark.parametrize("f", ("w*x**2", "x**2 + w", "w/2"))
def test_normal_form_with_a_foreign_variable_is_refused(f):
    ideal = Ideal.make(PolyRing(("x", "y")), ["x**2 - y"])
    with pytest.raises(IdealError, match="foreign variables"):
        ideal.normal_form(str(sympy.sympify(f)))


def test_normal_form_in_the_zero_ideal_refuses_a_foreign_variable():
    ideal = Ideal.make(PolyRing(("x", "y")), [])
    x = ideal.ring.gens[0]
    with pytest.raises(IdealError, match="foreign variables"):
        ideal.normal_form("w*x")
    assert ideal.normal_form("x/2 - 3") == x * Fraction(1, 2) - 3


ENTRY_POINTS = {
    "make": lambda ideal, f: Ideal.make(ideal.ring, [f]),
    "contains": lambda ideal, f: ideal.contains(f),
    "normal_form": lambda ideal, f: ideal.normal_form(f),
    "regular_sequence_check": lambda ideal, f: regular_sequence_check(ideal, [f]),
    "ideal_quotient": lambda ideal, f: ideal_quotient(ideal, f),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("gens", ([], ["x**2 - y"]), ids=("zero", "nonzero"))
@pytest.mark.parametrize("as_expr", (False, True), ids=("string", "expression"))
def test_every_input_path_refuses_a_foreign_variable(entry, gens, as_expr):
    """Every input goes through `_parse`: a variable outside the ring
    raises `IdealError`, and so does a coefficient outside Q, whether
    the text is written by hand or printed from a sympy expression."""
    ideal = Ideal.make(PolyRing(("x", "y")), gens)
    foreign, irrational = "x*w + y", "sqrt(2)*x + y"
    if as_expr:
        foreign, irrational = str(sympy.sympify(foreign)), str(sympy.sympify(irrational))
    with pytest.raises(IdealError, match="foreign variables"):
        ENTRY_POINTS[entry](ideal, foreign)
    with pytest.raises(IdealError, match="not a polynomial"):
        ENTRY_POINTS[entry](ideal, irrational)


# -- the chart ideals of the builtins ----------------------------------------


def chart_cases():
    for name in ("sl2-borel", "borel-nilradical-A2", "heisenberg-3", "abelian:2", "abelian:3", "borel-nilradical-A3"):
        alg = models.builtin(name)
        for recd in group_fixed_points(alg):
            yield pytest.param(name, recd.r_v_set, id=f"{name}-{'-'.join(map(str, recd.r_v_set))}")


@pytest.mark.parametrize("name, base", chart_cases())
def test_chart_ideal_basis_matches_sympy(name, base):
    alg = models.builtin(name)
    recd = next(r for r in group_fixed_points(alg) if r.r_v_set == base)
    assert_same_basis(chart_ideal(alg, recd.subspace).ideal, "grevlex")
