"""sympy views of `ideals` objects for the tests that pin the in-repo
ring, reader and kernel to sympy.  The package reads and prints
polynomials itself; these helpers are the expression API it used to
carry, rebuilt from the `Poly` dicts."""

from fractions import Fraction

import sympy
from sympy.polys.polyutils import dict_from_expr

from orbitvar.ideals import Poly, PolyRing


def symbols(ring: PolyRing) -> tuple:
    return sympy.symbols(ring.variables)


def to_sympy(p: Poly):
    """p as a sympy expression."""
    syms = symbols(p.ring)
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(syms, m) if e))
            for m, c in p.items()
        )
    )


def from_sympy(ring: PolyRing, expr) -> Poly:
    """The expanded sympy expression expr, in the variables of ring, as an
    element of ring."""
    terms, _ = dict_from_expr(sympy.expand(expr), gens=symbols(ring))
    out = {}
    for m, c in terms.items():
        q = sympy.QQ.from_sympy(c)
        if q:
            out[m] = Fraction(int(q.numerator), int(q.denominator))
    return Poly(ring, out)


def generators(ideal) -> tuple:
    """`ideal.polys` as sympy expressions."""
    return tuple(to_sympy(p) for p in ideal.polys)


def basis(ideal) -> tuple:
    """`ideal.groebner()` as sympy expressions."""
    return tuple(to_sympy(g) for _, g in ideal.groebner())
