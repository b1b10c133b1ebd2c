"""The fast routines of `ideals` against references kept here: the Krull
dimension by a smallest hitting set against the exhaustive search over
variable subsets, on generated monomial ideals, and the ideal quotient
by a homogeneous colon against the lex tag-variable intersection, on
generated ideals and divisors.  Each case draws an order, grevlex or
lex, for its reference: sympy's basis and the kernel's
(`test_groebner.kernel_basis`) in that order."""

import itertools

import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitvar.ideals import Ideal, PolyRing, eliminate, hilbert_dimension, ideal_quotient
from sympy_reference import generators, symbols
from test_groebner import kernel_basis

X = sympy.symbols("x y z")
RING_NAMES = ("x", "y", "z")


# -- references -------------------------------------------------------


def reference_dimension(ideal: Ideal, order: str) -> int:
    """The size of the largest variable subset that contains no
    leading-monomial support, searched from the largest size down, with
    the leading monomials from sympy's own Gröbner basis in order; the
    kernel's basis in order has the same leading monomials."""
    syms = symbols(ideal.ring)
    if not ideal.polys:
        return len(syms)
    gb = sympy.groebner(generators(ideal), *syms, order=order, domain=sympy.QQ)
    lms = [p.monoms(order=order)[0] for p in gb.polys]
    assert kernel_basis(ideal, order).lms == lms
    supports = [frozenset(syms[i] for i, e in enumerate(exps) if e > 0) for exps in lms]
    for size in range(len(syms), -1, -1):
        for subset in itertools.combinations(syms, size):
            if all(not (sup <= set(subset)) for sup in supports):
                return size
    return 0


def reference_quotient(ideal: Ideal, f) -> Ideal:
    """(I : f) via the intersection I ∩ (f), taken by eliminating a tag
    variable with a lex basis, then exact division of each intersection
    generator by f."""
    f = sympy.expand(sympy.sympify(f))
    tag = sympy.Symbol("_q")
    big = Ideal.make(
        PolyRing(("_q",) + ideal.ring.variables),
        [str(tag * g) for g in generators(ideal)] + [str((1 - tag) * f)],
    )
    out = []
    for g in generators(eliminate(big, ("_q",))):
        q, r = sympy.div(g, f, *symbols(ideal.ring))
        assert sympy.expand(r) == 0, "intersection generator not divisible"
        out.append(str(q))
    return Ideal.make(ideal.ring, out)


def same_ideal(a: Ideal, b: Ideal, order: str) -> bool:
    """Mutual containment, by `contains` and by the kernel's basis in
    order."""

    def inside(big: Ideal, small: Ideal) -> bool:
        basis = kernel_basis(big, order)
        by_order = all(not basis.reduce(p) for p in small.polys)
        assert big.contains_ideal(small) == by_order
        return by_order

    return inside(a, b) and inside(b, a)


# -- generated inputs ---------------------------------------------------


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(1, 7))
    names = tuple(f"v{i}" for i in range(n))
    syms = sympy.symbols(names)
    exponents = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)
    gens = [
        sympy.Mul(*(s**e for s, e in zip(syms, exps)))
        for exps in draw(st.lists(exponents, min_size=1, max_size=8))
    ]
    order = draw(st.sampled_from(("grevlex", "lex")))
    return Ideal.make(PolyRing(names), [str(g) for g in gens]), order


COEFFS = st.integers(-2, 2).filter(bool)


def polynomials(max_degree: int, min_degree: int = 0, max_terms: int = 3):
    """Sums of up to max_terms terms in x, y, z of total degree between
    min_degree and max_degree, with small nonzero coefficients."""
    monomial = st.sampled_from(
        [e for e in itertools.product(range(max_degree + 1), repeat=3) if min_degree <= sum(e) <= max_degree]
    )
    term = st.builds(lambda c, e: c * X[0] ** e[0] * X[1] ** e[1] * X[2] ** e[2], COEFFS, monomial)
    return st.lists(term, min_size=1, max_size=max_terms).map(sympy.Add.fromiter).filter(
        lambda p: sympy.expand(p) != 0
    )


LINEAR_FORMS = polynomials(1, min_degree=1)
INHOMOGENEOUS = st.one_of(
    st.builds(lambda p, c: p + c, polynomials(1, min_degree=1), COEFFS),
    st.builds(lambda p, q: p + q, polynomials(2, min_degree=2, max_terms=2), polynomials(1, max_terms=2)),
)
HIGHER = polynomials(3, min_degree=2)
DIVISORS = st.one_of(
    # the u-forms of a chart are linear forms
    LINEAR_FORMS,
    INHOMOGENEOUS,
    HIGHER,
    # a rational coefficient, reduced against integer generators
    st.builds(lambda p: p / 2, LINEAR_FORMS),
)
IDEALS = st.builds(
    lambda order, gens: (Ideal.make(PolyRing(RING_NAMES), [str(g) for g in gens]), order),
    st.sampled_from(("grevlex", "lex")),
    st.lists(polynomials(2), min_size=1, max_size=3),
)


# -- the tests ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(monomial_ideals())
def test_dimension_matches_exhaustive_search(case):
    ideal, order = case
    assert hilbert_dimension(ideal) == reference_dimension(ideal, order)


@settings(max_examples=300, deadline=None)
@given(IDEALS, DIVISORS)
def test_quotient_matches_tag_variable_intersection(case, f):
    ideal, order = case
    assert same_ideal(ideal_quotient(ideal, str(f)), reference_quotient(ideal, f), order)


@pytest.mark.parametrize("order", ("grevlex", "lex"))
@pytest.mark.parametrize("gens", ([], [1], [X[0], X[0] - 1]), ids=("zero", "one", "unit"))
@pytest.mark.parametrize("f", (X[0], X[0] + X[1] - 3, X[0] * X[1] + 1, X[2] ** 3, sympy.Rational(1, 2)))
def test_quotient_of_zero_and_unit_ideals(order, gens, f):
    ideal = Ideal.make(PolyRing(RING_NAMES), [str(g) for g in gens])
    quot = ideal_quotient(ideal, str(f))
    assert same_ideal(quot, reference_quotient(ideal, f), order)
    assert quot.is_unit() == bool(gens)
