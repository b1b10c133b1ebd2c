"""Exact commutative algebra: Gröbner bases, elimination, ideal
quotients, Krull dimension, and the determinantal and chart ideals the
verification suite needs, on an in-repo polynomial ring over Q.

Every polynomial is a `Poly` of a `PolyRing` (exponent tuple -> nonzero
coefficient, an int where it is integral and a `Fraction` otherwise)
from where it is built to the kernel: the chart and determinantal
ideals are assembled term by term, and `Ideal` stores ring elements.
The Gröbner kernel (`_groebner`, `_reduce`) works on a second, packed
form (`_Order`): each exponent vector is one int, and each polynomial
is kept primitive with Python-int coefficients and reduced
fraction-free.  `_Basis` is the one way into it: it picks the
order, packs the polynomials, runs `_groebner` and reads the elements
back as monic exponent dicts over Q, and every basis below (an
ideal's, `eliminate`'s and `ideal_quotient`'s) is a `_Basis`.  A
`Poly` prints itself as sympy prints the same polynomial (`str`), and
`_read` reads polynomial text over Python's own syntax tree, so
`ideals` imports no sympy.

A ring has no term order.  No report prints a Gröbner basis, and the
questions the reports ask (membership, the unit ideal, the dimension,
regularity) have the same answer for every term order.  An `Ideal`
first solves its generators of the form c·x - q, x a variable in no
term of q (`_solve`): x := q/c is substituted in the others, and the
values compose into one map φ from R onto the ring R' of the variables
left, with R/J ≅ R'/J' for the image J' of the other generators.
When a grading makes every generator homogeneous, x and q have the
same degree, so φ keeps degrees and R/J ≅ R'/J' as graded rings: the
dimension, the Hilbert series and every regularity verdict carry over
(`_solve`, `Ideal._numerator`).  The ideal keeps one basis, that of J'
(`_order_free`, computed once or grown from the basis of a smaller
ideal by `_extended`), in the order where it is cheapest: weighted
grevlex for a positive integer grading in which every generator is
homogeneous (`_grading`, found exactly, all ones when the total degree
is one), on the variables left, and grevlex when there is none.  For
such an ideal every S-polynomial and every remainder is homogeneous,
and the weighted order follows the ideal's own degrees; the A3 chart
ideal at base point (3,4,5), not homogeneous in the total degree, has
7 of its 18 generators solved and an image basis of 11 elements there
against 38 in grevlex (57 in grevlex on all 18 variables).  Membership
and the unit ideal are asked of J', φ(f) for f, and the dimension is
that of R'/J'.  `Ideal.groebner` and `normal_form` answer in `ring`,
in the block order that compares the solved variables first and then
the others in the image basis's order; `eliminate` takes lex.

A sequence element f, homogeneous of degree δ > 0 with the ideal J, is
regular on R/J exactly when the Hilbert-series numerators satisfy
N(J + f) = (1 - t^δ) N(J) (`_is_regular`, with the proof).  Each
numerator is read off the leading monomials of a basis already
computed (Bayer–Stillman, *Computation of Hilbert functions*, 1992;
Bigatti, *Computation of Hilbert–Poincaré series*, 1997), so no colon
ideal is computed; the colon of `ideal_quotient` is the fallback for
ideals with no positive grading."""

from __future__ import annotations

import ast
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .liealg import Weight, WeightedLieAlgebra, weight_sort_key
from .linalg import Matrix, bounded_fraction, entry, exact_div, rref
from .orbit import group_fixed_points, render_sum
from . import report as rep


class IdealError(Exception):
    pass


class UnitIdealError(IdealError):
    pass


class ScaleExceededError(IdealError):
    pass


class NotGroupFixedError(IdealError):
    pass


@dataclass(frozen=True)
class PolyRing:
    """Q[variables], with no term order.  The ring builds its own elements:
    `gens`, `zero`, `one`, and `ring(x)` for an int, a `Fraction` or a
    dict of exponent tuple -> either; a float raises `IdealError`."""

    variables: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise IdealError("variable names must be unique")

    @functools.cached_property
    def units(self) -> tuple:
        """The exponent tuple of each variable."""
        zero = (0,) * len(self.variables)
        return tuple(zero[:j] + (1,) + zero[j + 1 :] for j in range(len(zero)))

    @functools.cached_property
    def gens(self) -> tuple:
        return tuple(Poly(self, {e: 1}) for e in self.units)

    @property
    def zero(self) -> "Poly":
        return Poly(self)

    @property
    def one(self) -> "Poly":
        return self(1)

    def __call__(self, x) -> "Poly":
        terms = x if isinstance(x, dict) else {(0,) * len(self.variables): x}
        if not all(isinstance(c, (int, Fraction)) for c in terms.values()):
            raise IdealError(f"coefficients are ints or Fractions, not {x!r}")
        return Poly(self, {m: entry(c) for m, c in terms.items() if c})

    @functools.cached_property
    def _print_order(self) -> tuple[int, ...]:
        """The variable indices by name: the order sympy prints them in."""
        return tuple(sorted(range(len(self.variables)), key=self.variables.__getitem__))


class Poly(dict):
    """An element of `ring`: exponent tuple -> nonzero coefficient, an
    int where it is integral and a `Fraction` otherwise (`linalg.entry`).
    Ring arithmetic with `Poly`s of the same variables, ints and
    `Fraction`s, and powers by an int, keeps that form; `str` is the text
    sympy prints for it."""

    __slots__ = ("ring",)
    __hash__ = None

    def __init__(self, ring: PolyRing, terms=()):
        dict.__init__(self, terms)
        self.ring = ring

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring.variables != self.ring.variables:
                raise IdealError("elements of rings in different variables")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = Poly(self.ring, self)
        for m, c in other.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v if type(v) is int else entry(v)
            else:
                del out[m]
        return out

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.ring, _entries({m: c * other for m, c in self.items()}) if other else {})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly(self.ring, _product(self, other))

    __rmul__ = __mul__

    def __pow__(self, n):
        """self**n by repeated squaring, from the top bit of n down."""
        if type(n) is not int or n < 0:
            return NotImplemented
        out = self.ring.one
        for bit in bin(n)[2:]:
            out = out * out * self if bit == "1" else out * out
        return out

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring.variables == other.ring.variables and dict.__eq__(self, other)
        if isinstance(other, (int, Fraction)):
            return dict.__eq__(self, self.ring(other))
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __str__(self) -> str:
        """sympy's text for the polynomial: the variables sorted by name,
        the terms by lex on their exponents in that order, largest first,
        as `Expr.as_ordered_terms` sorts them (`orbit.render_sum`)."""
        names, order = self.ring.variables, self.ring._print_order
        terms = sorted(self.items(), key=lambda t: [t[0][i] for i in order], reverse=True)
        return render_sum(
            [(tuple(names[i] if m[i] == 1 else f"{names[i]}**{m[i]}" for i in order if m[i]), c) for m, c in terms]
        )

    __repr__ = __str__


def _times(m: tuple, k: tuple) -> tuple:
    """The product of two monomials, as exponent tuples."""
    return tuple(map(operator.add, m, k))


def _entries(terms: dict) -> dict:
    """terms with the zero coefficients dropped and each whole `Fraction`
    lowered to its int."""
    return {m: c if type(c) is int else entry(c) for m, c in terms.items() if c}


def _product(a: dict, b: dict) -> dict:
    """The product of two polynomials kept as exponent tuple ->
    coefficient, its terms in the order they first arise (a's terms
    outer, b's inner), as `_entries`."""
    out: dict = {}
    for m, c in a.items():
        for k, d in b.items():
            mk = tuple(map(operator.add, m, k))
            out[mk] = out.get(mk, 0) + c * d
    return _entries(out)


# -- the Gröbner kernel on packed monomials ------------------------------

_BITS = 16  # per exponent field; its top bit is a guard, so exponents stay below 2**15
_TOP = (1 << (_BITS - 1)) - 1  # the largest exponent a field holds


class _Order:
    """Exponent vectors of `nvars` variables packed into one int each, so
    that a larger int is a larger monomial in the term order: lex when
    weights is None, else weighted grevlex by the weights.

    Every field has _BITS bits, and an exponent at most `top`, which
    leaves each field's top bit clear.  Lex stores e_0 in the highest
    field down to e_(n-1) in the lowest.  Weighted grevlex stores the
    weighted degree above all the fields and then `top - e_i` with
    e_(n-1) highest: a larger degree wins, and at one degree the smaller
    exponent in the last variable that differs does.  In both the packing
    is affine, pack(e) = one + sum_i e_i coef_i, with one = pack(0), so

    - a product is `a + b - one`, and a quotient `b - a + one`;
    - a divides b exactly when `(b - a + one) & mask` is 0, mask holding
      the top bit of each field: field i of b - a + one is
      `top + a_i - b_i` (grevlex) or `b_i - a_i` (lex), so no field
      borrows while every a_i <= b_i, and the lowest field with
      a_i > b_i, which no field below it borrows from, has its top bit
      set;
    - a product whose exponent passes `top` sets a top bit the same way,
      and the kernel refuses it with `ScaleExceededError` (`_too_large`).

    These are the packed monomials of Monagan and Pearce, *Sparse
    polynomial division using a heap* (J. Symbolic Comput., 2011)."""

    def __init__(self, nvars: int, weights: tuple[int, ...] | None):
        b, self.nvars, self.weights = _BITS, nvars, weights
        self.top = top = _TOP
        self.field = (1 << b) - 1
        self.mask = sum(1 << (b * i + b - 1) for i in range(nvars))
        if weights is None:
            self.shifts = tuple(b * (nvars - 1 - i) for i in range(nvars))
            self.one = 0
            self.coefs = tuple(1 << s for s in self.shifts)
        else:
            self.shifts = tuple(b * i for i in range(nvars))
            self.one = sum(top << s for s in self.shifts)
            self.coefs = tuple((w << (b * nvars)) - (1 << s) for w, s in zip(weights, self.shifts))

    def pack(self, e) -> int:
        if max(e, default=0) > self.top:
            raise _too_large()
        return self.one + sum(map(operator.mul, e, self.coefs))

    def unpack(self, m: int) -> tuple[int, ...]:
        f = self.field
        if self.weights is None:
            return tuple((m >> s) & f for s in self.shifts)
        return tuple(self.top - ((m >> s) & f) for s in self.shifts)

    def lcm(self, a: tuple, b: tuple) -> int:
        return self.one + sum(map(operator.mul, map(max, a, b), self.coefs))


def _too_large() -> ScaleExceededError:
    return ScaleExceededError(f"an exponent passes {_TOP}")


def _packed(poly, order: _Order) -> tuple[dict, int]:
    """poly (exponent tuple -> int or `Fraction`) times the lcm of its
    denominators, packed: (packed monomial -> int, that lcm)."""
    den = math.lcm(*(c.denominator for c in poly.values()))
    return {order.pack(m): c.numerator * (den // c.denominator) for m, c in poly.items()}, den


def _primitive(terms: dict) -> tuple[int, dict]:
    """(leading monomial, terms divided by their content, with a positive
    leading coefficient)."""
    lm = max(terms)
    g = math.gcd(*terms.values())
    if terms[lm] < 0:
        g = -g
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
    return lm, terms


def _divisor(elem, one: int) -> tuple:
    """A kernel element (lm, terms) as `_reduce` takes it: lm - one, the
    leading coefficient, and the other terms as (monomial - one, c)."""
    lm, terms = elem
    return lm - one, terms[lm], tuple((m - one, c) for m, c in terms.items() if m != lm)


def _reduce(p: dict, divisors, order: _Order) -> tuple[dict, int]:
    """(r, s): the remainder r of s·p on division by divisors (`_divisor`
    tuples), fraction-free, with s a positive integer; r is 0 (empty)
    exactly when p reduces to 0.

    The dividend's monomials wait in a heap, so its leading term is the
    top of the heap and no step takes a max over all its terms.  A
    monomial that cancels stays in the heap and is skipped when popped;
    it cannot come back once popped, because every term a reduction step
    adds is smaller than the term it removes.  A step with leading
    coefficient a on the term c x^m replaces p by (a/g) p - (c/g) x^q h,
    g = gcd(a, c); only when a does not divide c are the waiting terms
    and the remainder scaled, by a/g, and s with them."""
    one, mask = order.one, order.mask
    p = dict(p)
    heap = [-m for m in p]
    heapify(heap)
    rem: dict = {}
    scale = 1
    while heap:
        m = -heappop(heap)
        c = p.pop(m, None)
        if c is None:
            continue
        for shift, a, tail in divisors:
            q = m - shift
            if not q & mask:
                break
        else:
            rem[m] = c
            continue
        if a != 1:
            g = math.gcd(a, c)
            if g != a:
                f = a // g
                scale *= f
                for k in p:
                    p[k] *= f
                for k in rem:
                    rem[k] *= f
            c //= g
        for mg, cg in tail:
            mm = mg + q
            old = p.get(mm)
            if old is None:
                if mm & mask:
                    raise _too_large()
                p[mm] = -c * cg
                heappush(heap, -mm)
            else:
                new = old - c * cg
                if new:
                    p[mm] = new
                else:
                    del p[mm]
    return rem, scale


def _groebner(polys, order: _Order, seed=()) -> list:
    """The reduced Gröbner basis of the ideal generated by polys, dicts of
    packed monomial -> int coefficient, as primitive (leading monomial,
    terms) pairs with positive leading coefficients, largest leading
    monomial first.  Divided by its leading coefficient, each element is
    the monic one sympy's `groebner` returns, in sympy's list order.

    This is sympy's improved Buchberger algorithm (Becker–Weispfenning,
    *Gröbner Bases*, 1993, p. 232) with the pair criteria of Gebauer–
    Möller (*On an installation of Buchberger's algorithm*, 1988) and
    the normal selection strategy.  Each element's leading monomial is
    found once and kept beside it, with its exponent tuple for the lcms;
    the critical pairs wait in a heap keyed by their packed lcm, and a
    pair the update has dropped is skipped when popped; the division is
    `_reduce`.  Scaling an element by a nonzero rational changes none of
    this, so the run over integers keeps sympy's run over QQ step for
    step.

    The result is the basis sympy's `groebner` returns because the
    reduced Gröbner basis of an ideal for a term order is unique
    (Becker–Weispfenning, Thm. 5.43): when no pair is left, the kept
    elements form a Gröbner basis; interreducing them, dropping those
    that reduce to 0 and scaling the rest gives a reduced Gröbner basis
    up to scalars, which is therefore that unique one.  Listing it by
    leading monomial, largest first, fixes the order.  When a remainder
    is a nonzero constant the ideal is the whole ring and its reduced
    basis is 1.

    `seed`, a reduced basis in the same order as this function returns
    it (the `elems` of the `_Basis` passed as a `_Basis`'s seed), gives
    the basis of the ideal generated by it and polys.  Its elements
    enter the basis first, with no pairs among themselves: the pairs of
    a Gröbner basis reduce to 0 modulo it (Buchberger's criterion), and
    the Gebauer–Möller update keeps its invariant from any basis with no
    pairs pending ([BW] p. 230–232), so only the pairs with the new
    elements are formed.  The inputs are reduced by the seed before they
    are interreduced, and the final interreduction is the same, so the
    result is the same unique reduced basis."""
    one, mask = order.one, order.mask
    unit = [(one, {one: 1})]
    if seed and seed[0][0] == one:
        return unit
    seed_divs = [_divisor(e, one) for e in reversed(seed)]  # smallest leading monomial first

    # the inputs, reduced by the seed, primitive and interreduced as sympy
    # does ([BW] p. 203)
    if seed:
        polys = [_reduce(p, seed_divs, order)[0] for p in polys]
    new = [_primitive(p) for p in polys if p]
    while True:
        f, new = new, []
        divs = [_divisor(e, one) for e in f]
        for i, (_, p) in enumerate(f):
            r, _ = _reduce(p, divs[:i], order)
            if r:
                new.append(_primitive(r))
        if new == f:
            break
    if any(lm == one for lm, _ in f):
        return unit

    lms, elems = [lm for lm, _ in seed] + [lm for lm, _ in f], [p for _, p in seed] + [p for _, p in f]
    exps = [order.unpack(lm) for lm in lms]
    divs = seed_divs[::-1] + [_divisor(e, one) for e in f]
    basis: set[int] = set(range(len(seed)))
    pairs: dict[tuple[int, int], int] = {}  # pending pair -> packed lcm
    queue: list = []  # (packed lcm, i, j), stale once out of pairs

    def divides(a: int, b: int) -> bool:
        return not (b - a + one) & mask

    def update(ih):
        """Gebauer–Möller update of basis and pairs by the new element ih
        ([BW] p. 230)."""
        mh, eh = lms[ih], exps[ih]
        lcms = {ig: order.lcm(eh, exps[ig]) for ig in basis}
        candidates = sorted(basis)
        kept = []
        while candidates:
            ig = candidates.pop()
            mhg = lcms[ig]
            if mh + lms[ig] - one == mhg or not any(
                divides(lcms[ip], mhg) for ip in itertools.chain(candidates, kept)
            ):
                kept.append(ig)
        for pair, m12 in list(pairs.items()):
            if (
                divides(mh, m12)
                and order.lcm(exps[pair[0]], eh) != m12
                and order.lcm(exps[pair[1]], eh) != m12
            ):
                del pairs[pair]
        for ig in kept:
            mhg = lcms[ig]
            if mh + lms[ig] - one != mhg:
                pairs[ih, ig] = mhg
                heappush(queue, (mhg, ih, ig))
        basis.difference_update([ig for ig in basis if divides(mh, lms[ig])])
        basis.add(ih)

    for ih in sorted(range(len(seed), len(lms)), key=lms.__getitem__):
        update(ih)

    divisors = None
    while queue:
        m, i, j = heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue
        # the S-polynomial, fraction-free; the leading terms cancel
        ai, aj = elems[i][lms[i]], elems[j][lms[j]]
        g = math.gcd(ai, aj)
        fi, fj = aj // g, ai // g
        qi, qj = m - lms[i] + one, m - lms[j] + one
        s = {mi + qi: c * fi for mi, c in divs[i][2]}
        for mj, c in divs[j][2]:
            mm = mj + qj
            v = s.get(mm, 0) - c * fj
            if v:
                s[mm] = v
            else:
                del s[mm]
        if any(mm & mask for mm in s):
            raise _too_large()
        if divisors is None:
            # smallest leading monomial first ([Cox] p. 111)
            divisors = [divs[g] for g in sorted(basis, key=lms.__getitem__)]
        r, _ = _reduce(s, divisors, order)
        if r:
            lm, r = _primitive(r)
            if lm == one:
                return unit
            lms.append(lm)
            elems.append(r)
            exps.append(order.unpack(lm))
            divs.append(_divisor((lm, r), one))
            update(len(elems) - 1)
            divisors = None

    # interreduce; an input whose leading monomial another element's
    # divides reduces to 0 here and is dropped
    reduced = []
    for ig in basis:
        r, _ = _reduce(elems[ig], [divs[g] for g in basis if g != ig], order)
        if r:
            reduced.append(_primitive(r))
    reduced.sort(key=operator.itemgetter(0), reverse=True)
    return reduced


class _Basis:
    """The reduced Gröbner basis of the ideal generated by polys, exponent
    tuple -> coefficient mappings in `nvars` variables: in lex when weights
    is None, else in weighted grevlex by them; with `seed`, a `_Basis` of
    J, the basis of J + (polys) in the seed's order, grown from it.  The
    one way into `_groebner`; it holds no ring."""

    def __init__(self, nvars: int, polys, weights: tuple[int, ...] | None = None, seed: _Basis | None = None):
        self.order = order = _Order(nvars, weights) if seed is None else seed.order
        packed = [_packed(p, order)[0] for p in polys]
        self.elems = _groebner(packed, order, () if seed is None else seed.elems)

    @functools.cached_property
    def divisors(self) -> list:
        """The elements as `_reduce` takes them, smallest leading monomial
        first."""
        return [_divisor(e, self.order.one) for e in reversed(self.elems)]

    @functools.cached_property
    def lms(self) -> list:
        """The leading monomials, as exponent tuples."""
        return [self.order.unpack(lm) for lm, _ in self.elems]

    def is_unit(self) -> bool:
        return len(self.elems) == 1 and self.elems[0][0] == self.order.one

    @functools.cached_property
    def monic(self) -> tuple:
        """(leading monomial, monic element) pairs, largest leading
        monomial first, each element an exponent tuple -> coefficient dict,
        as a `Poly` holds it."""
        unpack = self.order.unpack
        return tuple(
            (e, {unpack(m): exact_div(c, terms[lm]) for m, c in terms.items()})
            for e, (lm, terms) in zip(self.lms, self.elems)
        )

    def reduce(self, p: Poly) -> Poly:
        """The remainder of p on division by the basis, over Q, in p's
        ring."""
        terms, den = _packed(p, self.order)
        rem, scale = _reduce(terms, self.divisors, self.order)
        den *= scale
        unpack = self.order.unpack
        return Poly(p.ring, {unpack(m): exact_div(c, den) for m, c in rem.items()})


# -- positive gradings and Hilbert series --------------------------------


def _degree(weights, m) -> int:
    return sum(map(operator.mul, weights, m))


def _clear(u: list, v: list, j: int) -> list:
    """v[j] u - u[j] v, which is 0 in column j, divided by the gcd of its
    entries.  With v[j] > 0 it is u reduced by v and scaled by a positive
    factor: a row operation in integers, which keeps every sign and every
    ratio.  Over `Fraction` (`linalg.rref` and a normalised tableau) the
    grading of the A3 (3,4,5) chart ideal took 18–27 ms against 1–2 ms
    in integers."""
    w = [v[j] * a - u[j] * b for a, b in zip(u, v)]
    g = math.gcd(*w) or 1
    return [e // g for e in w]


def _integer_rref(vectors) -> dict:
    """Pivot column -> row of a reduced row echelon basis of the span of
    the integer vectors, each row scaled to coprime integers with a
    positive pivot: fraction-free Gauss–Jordan elimination."""
    rows: dict[int, list] = {}
    for v in vectors:
        v = list(v)
        for j, row in rows.items():
            if v[j]:
                v = _clear(v, row, j)
        pivot = next((j for j, e in enumerate(v) if e), None)
        if pivot is None:
            continue
        g = math.gcd(*v) * (1 if v[pivot] > 0 else -1)
        v = [e // g for e in v]
        for j, row in rows.items():
            if row[pivot]:
                rows[j] = _clear(row, v, pivot)
        rows[pivot] = v
    return rows


def _grading(polys, nvars: int) -> tuple[int, ...] | None:
    """A positive integer weight vector for which every element of polys
    is homogeneous, or None when there is none.

    The all-ones vector is tried first.  Otherwise the vectors that make
    every element homogeneous are those orthogonal to the differences of
    the exponent vectors within each element.  Let R be the reduced row
    echelon form of the differences, with pivot columns p_i and free
    columns f.  A vector w is orthogonal to them exactly when
    w[p_i] = -sum_f R[i][f] w[f] / R[i][p_i], so a positive w exists
    exactly when the linear program

        minimise sum_f c_f  subject to  c >= 1 and A c >= b,

    with A[i][f] = -R[i][f] and b_i = R[i][p_i] > 0, is feasible, and
    w[f] = c_f.  With c = 1 + x it reads: minimise sum(x) subject to
    x >= 0 and A x >= beta, beta = b - A·1.  Its dual, maximise beta·y
    subject to y >= 0 and A^T y <= 1, is feasible at y = 0, so the
    simplex method starts from the slack basis with no first phase.
    Bland's rule makes it terminate, and the arithmetic is exact.  An
    unbounded dual means an infeasible primal, so no positive grading;
    at the optimum the primal x is the negated objective row under the
    slack columns (Chvátal, *Linear Programming*, 1983, ch. 5).  The
    vector is scaled to coprime integers and checked against every
    element before it is returned."""
    if all(len({sum(m) for m in p}) == 1 for p in polys):
        return (1,) * nvars
    diffs = set()
    for p in polys:
        it = iter(p)
        m0 = next(it)
        diffs.update(tuple(a - b for a, b in zip(m, m0)) for m in it)
    rref = _integer_rref(sorted(diffs))
    free = [j for j in range(nvars) if j not in rref]
    if not free:
        return None
    a = [[-row[f] for f in free] for row in rref.values()]
    beta = [row[j] - sum(ai) for (j, row), ai in zip(rref.items(), a)]
    k, q = len(free), len(a)
    # the dual's tableau, one row per x_f over (y, slacks, right-hand
    # side, 0), and the objective row over the same columns with a last
    # entry 1; each row is kept in integers up to a positive factor,
    # which the objective row's last entry records
    table = [[ai[f] for ai in a] + [int(f == s) for s in range(k)] + [1, 0] for f in range(k)]
    cost = beta + [0] * (k + 1) + [1]
    basic = [q + f for f in range(k)]
    while True:
        enter = next((j for j in range(q + k) if cost[j] > 0), None)
        if enter is None:
            break
        ratios = [(Fraction(t[-2], t[enter]), basic[i], i) for i, t in enumerate(table) if t[enter] > 0]
        if not ratios:
            return None
        r = min(ratios)[2]
        table = [t if i == r or not t[enter] else _clear(t, table[r], enter) for i, t in enumerate(table)]
        cost = _clear(cost, table[r], enter)
        basic[r] = enter
    # w[f] = 1 + x_f = 1 - cost[q + f] / cost[-1], times cost[-1]
    w = [Fraction(0)] * nvars
    for f, j in enumerate(free):
        w[j] = Fraction(cost[-1] - cost[q + f])
    for j, row in rref.items():
        w[j] = -sum(row[f] * w[f] for f in free) / row[j]
    common = math.lcm(*(e.denominator for e in w))
    ints = [int(e * common) for e in w]
    g = math.gcd(*ints)
    w = tuple(e // g for e in ints)
    if min(w) < 1 or any(len({_degree(w, m) for m in p}) != 1 for p in polys):
        return None
    return w


def _minimal(monomials) -> list:
    """The minimal generators of the monomial ideal generated by
    monomials: a divisor never has the larger total degree."""
    out: list = []
    for m in sorted(set(monomials), key=sum):
        if not any(all(a <= b for a, b in zip(g, m)) for g in out):
            out.append(m)
    return out


def _times_one_minus(poly: dict, d: int) -> dict:
    """poly · (1 - t^d), for a polynomial kept as degree -> coefficient."""
    out = dict(poly)
    for e, c in poly.items():
        out[e + d] = out.get(e + d, 0) - c
    return {e: c for e, c in out.items() if c}


def _hilbert_numerator(gens, weights) -> dict:
    """The numerator N of the Hilbert series N(t) / prod_i (1 - t^w_i) of
    R/I, where I is the monomial ideal minimally generated by gens and
    x_i has degree w_i, as degree -> nonzero coefficient.

    The pivot recursion (Bigatti, *Computation of Hilbert–Poincaré
    series*, 1997): for a variable x_j the exact sequence
    0 -> (R/(I : x_j))(-w_j) -> R/I -> R/(I + (x_j)) -> 0 gives
    N(I) = N(I + (x_j)) + t^w_j N(I : x_j).  The pivot is a variable in
    the most generators.  When no variable is in two of them, the
    generators are a regular sequence and N(I) = prod_m (1 - t^deg m);
    a generator 1 makes that product 0, the series of the zero ring."""
    count = [0] * len(weights)
    for m in gens:
        for j, e in enumerate(m):
            if e:
                count[j] += 1
    if max(count, default=0) <= 1:
        out = {0: 1}
        for m in gens:
            out = _times_one_minus(out, _degree(weights, m))
        return out
    j = count.index(max(count))
    unit = tuple(int(i == j) for i in range(len(weights)))
    plus = [m for m in gens if not m[j]] + [unit]
    colon = _minimal([m[:j] + (m[j] - 1,) + m[j + 1 :] if m[j] else m for m in gens])
    out = _hilbert_numerator(plus, weights)
    for e, c in _hilbert_numerator(colon, weights).items():
        out[e + weights[j]] = out.get(e + weights[j], 0) + c
    return {e: c for e, c in out.items() if c}


_READ_WORK = 1 << 20  # the most term-by-term products one multiplication of the reader may make
_READ_BITS = 1 << 16  # the most bits of a literal's numerator or denominator, or of a coefficient of a power it forms


def _ceil_log2(v: int) -> int:
    """The least e >= 0 with v <= 2**e."""
    return (v - 1).bit_length() if v > 1 else 0


def _read_budget(a: Poly, b: Poly, k: int | None) -> str | None:
    """Why the product a*b (k None) or the power a**k would pass the
    reader's budget, or None when it would not.  The bounds hold before
    anything is multiplied.  a*b makes len(a)·len(b) term products.  a**k,
    for a of t >= 2 terms, has at most T = C(k + t - 1, t - 1) terms (the
    monomials of degree k in t symbols), as has every power of a that
    `Poly.__pow__` forms on the way, so each of its multiplications makes
    at most T² term products; and written over L**k, L the lcm of a's
    denominators, its numerators are at most S**k, S the sum of the
    absolute values of a's coefficients times L."""
    if k is None:
        work = len(a) * len(b)
    else:
        t = len(a)
        terms = 1 if t < 2 else _READ_WORK if k >= _READ_WORK else math.comb(k + t - 1, t - 1)
        work = terms * terms
        den = math.lcm(*(c.denominator for c in a.values()))
        size = sum(abs(c.numerator) * (den // c.denominator) for c in a.values())
        bits = k * (_ceil_log2(size) + _ceil_log2(den))
        if bits > _READ_BITS:
            return f"coefficients of up to {bits} bits, past {_READ_BITS}"
    if work > _READ_WORK:
        return f"more than {_READ_WORK} term products in one multiplication"
    return None


def _read(ring: PolyRing, text: str) -> Poly:
    """text as an element of ring, by `Poly` arithmetic over its syntax
    tree (`ast.parse`), with nothing evaluated: the ring's variable names,
    int and decimal literals (a decimal exactly as written, never through
    a float), + and -, *, parentheses, / by a nonzero constant and ** by
    a nonnegative integer constant.  Anything else raises `IdealError`, as
    does text too deeply nested for `ast.parse` (a flat sum of a few
    thousand terms is).  A product or power whose multiplications could
    make more than `_READ_WORK` term products each, or a power whose
    coefficients could pass `_READ_BITS` bits (`_read_budget`), raises
    `ScaleExceededError` before it is formed: `"3/3**3**3**3"` and
    `"(x + 1)**(10**9)"` are refused at once instead of expanded for
    hours.  So does a literal whose numerator or denominator would pass
    `_READ_BITS` bits, its decimal exponent checked before the number is
    formed (`linalg.bounded_fraction`): `"1e9999999*x"`."""
    text = text.strip()
    names, one = dict(zip(ring.variables, ring.gens)), (0,) * len(ring.variables)
    arithmetic = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}

    def checked(a: Poly, b: Poly, k: int | None, node) -> None:
        why = _read_budget(a, b, k)
        if why is not None:
            raise ScaleExceededError(f"generator {text!r}: {ast.get_source_segment(text, node)!r} could have {why}")

    def read(node) -> Poly:
        chain = []  # a left-leaning run of +, - and *, as a long sum prints, read by a loop
        while isinstance(node, ast.BinOp) and type(node.op) in arithmetic:
            chain.append(node)
            node = node.left
        if chain:
            out = read(node)
            for link in reversed(chain):
                right = read(link.right)
                if type(link.op) is ast.Mult:
                    checked(out, right, None, link)
                out = arithmetic[type(link.op)](out, right)
            return out
        if isinstance(node, ast.Name):
            if node.id not in names:
                raise IdealError(f"generator {text!r} uses foreign variables")
            return names[node.id]
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = node.value if type(node.value) is int else ast.get_source_segment(text, node).replace("_", "")
            number = bounded_fraction(value, 1 << _READ_BITS)
            if number is None:
                raise ScaleExceededError(f"generator {text!r}: a literal has a numerator or denominator past {_READ_BITS} bits")
            return ring(number)
        if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
            return read(node.operand) * (-1 if type(node.op) is ast.USub else 1)
        if isinstance(node, ast.BinOp):
            a, b = read(node.left), read(node.right)
            c = b.get(one, 0) if b.keys() <= {one} else None  # b's value when it is a constant
            if type(node.op) is ast.Div and c:
                return a * exact_div(1, c)
            if type(node.op) is ast.Pow and c is not None and c >= 0 and c.denominator == 1:
                checked(a, b, int(c), node)
                return a ** int(c)
        raise IdealError(f"generator {text!r} is not a polynomial: {ast.get_source_segment(text, node)!r}")

    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as e:
        raise IdealError(f"generator {text!r} is not a polynomial: {e.msg}") from None
    except RecursionError:
        raise IdealError(f"generator text of {len(text)} characters is too deep to parse") from None
    return read(tree.body)


def _parse(ring: PolyRing, g) -> Poly:
    """g as an element of ring: an element of a ring in the same variables
    as it is, an int or a `Fraction` as a constant, a string by `_read`;
    anything else (a float, a sympy expression: pass `str(expr)`) raises
    `IdealError`."""
    if isinstance(g, Poly):
        if g.ring is ring:
            return g
        if g.ring.variables != ring.variables:
            raise IdealError(f"generator {g} belongs to a ring in other variables")
        return Poly(ring, g)
    if isinstance(g, (int, Fraction)):
        return ring(g)
    if isinstance(g, str):
        return _read(ring, g)
    raise IdealError(f"generator {g!r} is not a ring element, an int, a Fraction or a string")


# -- linear generators solved before the kernel ---------------------------


def _check_exponents(polys):
    """Refuse an exponent the kernel's packed fields cannot hold, before
    a substitution could hide it: each monomial's largest exponent is
    read once."""
    if any(p and p.ring.variables and max(map(max, p)) > _TOP for p in polys):
        raise _too_large()


def _support(p) -> set:
    """The indices of the variables that occur in p."""
    return set(itertools.compress(itertools.count(), map(any, zip(*p))))


def _restrictor(kept: tuple[int, ...]):
    """The map from an exponent tuple to its entries at the indices
    kept, as a tuple."""
    if len(kept) == 1:
        (i,) = kept
        return lambda m: (m[i],)
    return operator.itemgetter(*kept) if kept else lambda m: ()


def _solvable(g: Poly) -> int | None:
    """A variable x for which g = c·x - q with x in no term of q, or
    None: that of the first such term c·x in the order g holds its terms
    (the order they were built or read in)."""
    for m in g:
        if sum(m) == 1:
            i = m.index(1)
            if sum(1 for k in g if k[i]) == 1:
                return i
    return None


def _substitute(p: Poly, x: int, value: Poly) -> Poly:
    """p with the variable x replaced by value, which is free of x."""
    out: dict = {}
    powers = {1: value}
    for m, c in p.items():
        e = m[x]
        if not e:
            out[m] = out.get(m, 0) + c
            continue
        if e not in powers:
            powers[e] = value**e
        others = m[:x] + (0,) + m[x + 1 :]
        for k, v in powers[e].items():
            k = tuple(map(operator.add, k, others))
            out[k] = out.get(k, 0) + c * v
    return Poly(p.ring, _entries(out))


@dataclass(frozen=True)
class _Substitution:
    """The map φ: R -> R' that an ideal's linear generators define
    (`_solve`).  R' = `ring` is Q[the variables of R at the indices
    `kept`], φ is the identity on them and sends each solved variable x
    to `images[x]`, an element of R', and `rest` holds the images of the
    other generators: they generate J', and R/J ≅ R'/J' by φ."""

    ring: PolyRing
    kept: tuple[int, ...]
    images: dict
    rest: tuple

    @functools.cached_property
    def _restrict(self):
        return _restrictor(self.kept)

    def __call__(self, p: Poly) -> Poly:
        """φ(p), in one pass over its terms: a term free of the solved
        variables is only restricted to R', and a linear form costs one
        sum of images."""
        if not self.images:
            return p
        out: dict = {}
        restrict, solved = self._restrict, tuple(self.images.items())
        for m, c in p.items():
            term = {restrict(m): c}
            for x, value in solved:
                e = m[x]
                if e:
                    term = _product(term, value if e == 1 else value**e)
            for k, v in term.items():
                out[k] = out.get(k, 0) + v
        return Poly(self.ring, _entries(out))

    def lift(self, m: tuple) -> tuple:
        """An exponent vector of R' as one of R."""
        if not self.images:
            return m
        out = [0] * (len(self.kept) + len(self.images))
        for i, e in zip(self.kept, m):
            out[i] = e
        return tuple(out)


def _solve(ring: PolyRing, polys) -> _Substitution:
    """Solve the generators of the form c·x - q, x a variable in no term
    of q, one at a time: the first such generator, for the x of its first
    such term (`_solvable`), leaves the list, and x := q/c is substituted
    in the values already found and in the others, so that each value
    is, at the end, an element of R' = Q[the variables left]
    (`_Substitution`).  Each generator and each value is kept beside a
    set that holds every variable occurring in it: its `_support` at the
    start, and after a substitution of x the set without x and with the
    variables of x's value.  So x is substituted only where it may occur
    (a cancellation can leave a variable in the set that no longer
    occurs, and substituting it then changes nothing), and only the
    generators it is substituted in are searched again.  Every exponent
    is checked first (`_check_exponents`).

    The ideal J contains x - φ(x) for every solved x and is generated by
    them and the images φ(g) of the other generators, so φ, onto with
    kernel (x - φ(x)), carries J onto J' = (φ(g)) and R/J ≅ R'/J'.  When
    a weight vector makes every generator homogeneous, x and q have the
    same degree, so φ keeps degrees and the isomorphism is one of graded
    rings."""
    _check_exponents(polys)
    n = len(ring.variables)
    # each generator beside its solvable variable and the set holding its variables
    rest = [(g, _solvable(g), _support(g)) for g in polys]
    images: dict = {}  # solved variable -> (value, the set holding its variables)
    while (k := next((k for k, (_, x, _) in enumerate(rest) if x is not None), None)) is not None:
        g, x, support = rest.pop(k)
        e = ring.units[x]
        c = g[e]
        value = Poly(ring, {m: exact_div(-v, c) for m, v in g.items() if m != e})
        support = support - {x}
        for y, (v, s) in images.items():
            if x in s:
                images[y] = _substitute(v, x, value), (s - {x}) | support
        images[x] = value, support
        left = []
        for p, y, s in rest:
            if x in s:
                p = _substitute(p, x, value)
                y, s = _solvable(p), (s - {x}) | support
            if p:
                left.append((p, y, s))
        rest = left
    rest = [g for g, _, _ in rest]
    if not images:
        return _Substitution(ring, tuple(range(n)), {}, tuple(rest))
    kept = tuple(i for i in range(n) if i not in images)
    image_ring = PolyRing(tuple(ring.variables[i] for i in kept))
    restrict = _restrictor(kept)

    def restricted(p: Poly) -> Poly:
        return Poly(image_ring, {restrict(m): c for m, c in p.items()})

    return _Substitution(
        image_ring, kept, {x: restricted(v) for x, (v, _) in sorted(images.items())}, tuple(map(restricted, rest))
    )


@dataclass
class Ideal:
    """An ideal of `ring`, kept as its nonzero generators `polys`,
    elements of `ring`, in the order they were given."""

    ring: PolyRing
    polys: tuple
    _sub: _Substitution | None = field(default=None, repr=False, compare=False)
    _gb: _Basis | None = field(default=None, repr=False, compare=False)
    _numerators: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def make(ring: PolyRing, gens) -> "Ideal":
        """The ideal generated by gens (as `_parse` takes them), with the
        zeros dropped."""
        polys = (_parse(ring, g) for g in gens)
        return Ideal(ring, tuple(p for p in polys if p))

    @functools.cached_property
    def _free_weights(self) -> tuple[int, ...]:
        """The weights of `_order_free`'s basis, on the variables of R:
        `grading`, or all ones (grevlex) when there is none."""
        return self.grading or (1,) * len(self.ring.variables)

    def _substitution(self) -> _Substitution:
        """φ: R -> R' and the generators of J' (`_solve`), found once."""
        if self._sub is None:
            self._sub = _solve(self.ring, self.polys)
        return self._sub

    def _order_free(self) -> _Basis:
        """The one reduced Gröbner basis the ideal keeps: that of the
        image J' in R' (`_substitution`), in weighted grevlex by
        `_free_weights` on the variables left, computed once.  Every
        question the reports ask has the same answer for J and J' and in
        every term order, so they all read it."""
        if self._gb is None:
            sub = self._substitution()
            self._gb = _Basis(len(sub.kept), sub.rest, tuple(self._free_weights[i] for i in sub.kept))
        return self._gb

    def _numerator(self, weights: tuple[int, ...]) -> dict:
        """The Hilbert-series numerator N(J) of ring/J for variables of
        degrees `weights`, which make every generator homogeneous, once
        per weight vector: N(J') · prod over the solved x of
        (1 - t^w_x), with N(J') read off the leading monomials of
        `_order_free`'s basis (`_hilbert_numerator`).  φ is an
        isomorphism of graded rings for these weights (`_solve`), so
        HS(R/J) = HS(R'/J') = N(J') / prod over the kept x of (1 - t^w_x),
        and HS(R/J) = N(J) / prod over all x of (1 - t^w_x)."""
        out = self._numerators.get(weights)
        if out is None:
            sub = self._substitution()
            out = _hilbert_numerator(self._order_free().lms, tuple(weights[i] for i in sub.kept))
            for x in sub.images:
                out = _times_one_minus(out, weights[x])
            self._numerators[weights] = out
        return out

    def groebner(self) -> tuple:
        """The reduced Gröbner basis of the ideal in `ring`, as (leading
        monomial, monic element) pairs, largest leading monomial first, in
        the block order that compares the solved variables first, by lex
        in their index order, and then the others by `_order_free`'s
        order.  It is {x - NF(φ(x))} over the solved x, NF the remainder
        on division by J''s basis G', together with G': its leading
        monomials are the solved variables and those of G', and every
        element of J reduces to 0 by it (to φ(f) ∈ J' by the first part,
        then by G'); no term of one element is divisible by the leading
        monomial of another, so it is the reduced basis, unique
        (Becker–Weispfenning, Thm. 5.43)."""
        sub, basis = self._substitution(), self._order_free()
        n = len(self.ring.variables)
        if basis.is_unit():
            return (((0,) * n, self.ring.one),)
        solved = tuple(
            (self.ring.units[x], self.ring.gens[x] - self._lift(basis.reduce(v))) for x, v in sub.images.items()
        )
        return solved + tuple((sub.lift(e), self._lift(g)) for e, g in basis.monic)

    def _lift(self, p) -> Poly:
        """An element of R' (exponent tuple -> coefficient) as one of
        `ring`."""
        lift = self._substitution().lift
        return Poly(self.ring, {lift(m): c for m, c in p.items()})

    def _image_of(self, f) -> Poly:
        """φ(f), for f as `_parse` takes it, its exponents checked
        first."""
        f = _parse(self.ring, f)
        _check_exponents([f])
        return self._substitution()(f)

    def _image(self) -> "Ideal":
        """J' as an ideal of R', holding its basis, with nothing more to
        solve: the ring the colon fallback of `_is_regular` works in."""
        sub = self._substitution()
        same = _Substitution(sub.ring, tuple(range(len(sub.kept))), {}, sub.rest)
        return Ideal(sub.ring, sub.rest, same, self._order_free())

    @functools.cached_property
    def grading(self) -> tuple[int, ...] | None:
        """A positive integer weight vector for which every generator is
        homogeneous, all ones when the total degree is one, and None when
        there is none (`_grading`)."""
        return _grading(self.polys, len(self.ring.variables))

    def normal_form(self, f) -> Poly:
        """The remainder of f (as `_parse` takes it) on division by
        `groebner()`: that of φ(f) on division by J''s basis, since f and
        φ(f) differ by an element of J and the remainder has no term a
        leading monomial divides."""
        return self._lift(self._order_free().reduce(self._image_of(f)))

    def contains(self, f) -> bool:
        """Whether f (as `_parse` takes it) lies in the ideal: whether
        φ(f) lies in J', its remainder on division by J''s basis 0."""
        return not self._order_free().reduce(self._image_of(f))

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(p) for p in other.polys)

    def is_unit(self) -> bool:
        return self._order_free().is_unit()


def eliminate(ideal: Ideal, drop_vars) -> Ideal:
    """I intersected with the subring omitting drop_vars, via a lex basis
    with the dropped block ordered first.  In that order a basis element
    is free of the dropped variables exactly when its leading monomial
    is, since every term with one of them is larger than every term
    without."""
    drop = tuple(drop_vars)
    names = ideal.ring.variables
    keep = tuple(v for v in names if v not in drop)
    out = PolyRing(keep)
    if not drop:
        return Ideal(out, ideal.polys)
    # exponent vectors permuted into the lex order, the dropped block first
    where = [names.index(v) if v in names else None for v in drop + keep]
    permuted = [{tuple(0 if i is None else m[i] for i in where): c for m, c in p.items()} for p in ideal.polys]
    k = len(drop)
    kept = [g for lm, g in _Basis(len(where), permuted).monic if not any(lm[:k])]
    return Ideal(out, tuple(Poly(out, {m[k:]: c for m, c in g.items()}) for g in kept))


def ideal_quotient(ideal: Ideal, f) -> Ideal:
    """(I : f) as a homogeneous colon by a new variable (Bayer–Stillman,
    *A criterion for detecting m-regularity*, 1987).

    Let R be the ring of I, y a new variable and K = I + (y - f) in R[y].
    The map R[y] -> R, y -> f, is onto with kernel (y - f) inside K, so
    it carries K onto I, and it carries K : y onto I : f: if g y is in K
    then g(f) f is in K ∩ R = I, and g in I : f gives g y = g f + g (y - f)
    in K.  The images of generators of K : y therefore generate I : f.

    Let J be the ideal generated by the basis of I and y - f, each
    homogenized by a further variable h.  J dehomogenizes (h = 1) to K,
    and every homogeneous G with G(h=1) in K has some h^k G in J
    (Cox–Little–O'Shea, *Ideals, Varieties, and Algorithms*, §8.4).  So
    K : y is the dehomogenization of J : y: if G y is in J then G(h=1) y
    is in K, and if g y is in K then h^k g^h y is in J for some k, and
    h^k g^h, which dehomogenizes to g, is in J : y.  For homogeneous G
    in grevlex with y the last variable, y divides the leading term of G
    only if it divides every term of G.  So the elements of a grevlex
    basis of J with y last, each divided once by y where y divides it,
    form a Gröbner basis of J : y (Eisenbud, *Commutative Algebra*,
    Prop. 15.12).  The kernel works on exponent vectors, so h and y need
    no names.

    The basis of I is used rather than its generators: `groebner()`,
    the view in `ring` of the one basis I keeps, which
    `regular_sequence_check` has computed already for `is_unit`, so the
    Gröbner basis of J is the only one computed.  It is also a better
    start for that Buchberger run (on the A3 chart at base point (3,4,5)
    it took about half the time it takes from the generators)."""
    f = _parse(ideal.ring, f)
    if not f:
        raise IdealError("quotient by zero")
    r, n = ideal.ring, len(ideal.ring.variables)
    # the basis of I and y - f, as exponent vectors in the x's and y
    elems = [{m + (0,): c for m, c in g.items()} for _, g in ideal.groebner()]
    elems.append({(0,) * n + (1,): 1, **{m + (0,): -c for m, c in f.items()}})
    homogenized = []  # in the x's, h, y
    for e in elems:
        d = max(sum(m) for m in e)
        homogenized.append({m[:n] + (d - sum(m), m[n]): c for m, c in e.items()})
    out, powers = [], [r.one]
    for _, p in _Basis(n + 2, homogenized, (1,) * (n + 2)).monic:
        shift = 1 if all(m[-1] > 0 for m in p) else 0
        # h -> 1, y -> f; p is homogeneous, so within one power of y the
        # x exponents fix the h exponent
        by_power: dict[int, dict] = {}
        for m, c in p.items():
            by_power.setdefault(m[-1] - shift, {})[m[:n]] = c
        g = r.zero
        for e, part in by_power.items():
            while len(powers) <= e:
                powers.append(powers[-1] * f)
            g += Poly(r, part) * powers[e]
        out.append(g)
    return Ideal.make(ideal.ring, out)


def _min_cover_size(supports) -> int:
    """Size of a smallest set of variables that meets every support, by
    branch and bound."""
    best = len(frozenset().union(*supports))  # every variable that occurs

    def search(unmet, size):
        nonlocal best
        if not unmet:
            best = size
        elif size + 1 < best:
            # every cover contains a variable of the smallest unmet support
            for v in sorted(min(unmet, key=len)):
                search([s for s in unmet if v not in s], size + 1)

    search(supports, 0)
    return best


def hilbert_dimension(ideal: Ideal) -> int:
    """Krull dimension of ring/I.

    A set S of variables is independent modulo I when no leading
    monomial of a Gröbner basis of I has its support inside S, and the
    dimension is the size of the largest independent set
    (Kredel–Weispfenning, *Computing dimension and independent sets for
    polynomial ideals*, 1988).  S is independent exactly when its
    complement meets every leading-monomial support, so the dimension
    is the number of variables minus the size of a smallest set of
    variables meeting every support.  That set is found by branch and
    bound: branch on the variables of an unmet support with the fewest
    variables, since every cover contains one of them, and prune a
    branch once it cannot beat the smallest cover found so far.

    R/J ≅ R'/J' (`_solve`), so the dimension is that of R'/J': the
    leading monomials are those of `Ideal._order_free`, J''s basis, and
    the variables those of R'."""
    basis = ideal._order_free()
    lms, nvars = basis.lms, basis.order.nvars
    if not lms:
        return nvars
    if basis.is_unit():
        raise UnitIdealError("the ideal is the whole ring")
    supports = [frozenset(i for i, e in enumerate(lm) if e > 0) for lm in lms]
    return nvars - _min_cover_size(supports)


def minor_ideal(s: int) -> Ideal:
    """The 2x2-minor ideal P_s of the matrix with rows (u_1..u_s) and
    (T_1..T_s), in Q[u_1..u_s, T_1..T_s]."""
    if s < 1:
        raise IdealError("s must be at least 1")
    ring = PolyRing(_minor_variables(s))
    return Ideal.make(ring, [_minor(ring, s, j, k) for j in range(s) for k in range(j + 1, s)])


def _minor_variables(s: int) -> tuple[str, ...]:
    """u1..us, T1..Ts: the variables of `minor_ideal(s)`."""
    return tuple(f"u{i}" for i in range(1, s + 1)) + tuple(f"T{i}" for i in range(1, s + 1))


def _minor(ring: PolyRing, s: int, j: int, k: int) -> Poly:
    """u_j T_k - u_k T_j, indices from 0, in the ring of `minor_ideal`."""
    e = ring.units
    return Poly(ring, {_times(e[j], e[s + k]): 1, _times(e[k], e[s + j]): -1})


def primality_crosscheck_P(s: int, p: Ideal | None = None) -> rep.VerificationReport:
    """Certify P_s as the kernel of T_i -> lam*u_i by elimination, and
    check both inclusions explicitly.  p is P_s (`minor_ideal`) when the
    caller holds it already, with its basis; a p outside the ring of P_s
    raises `IdealError`, since the substitution and the elimination read
    its variables as u1..us, T1..Ts.

    Eliminating lam from (T_i - lam*u_i) gives exactly the kernel of the
    map Q[u, T] -> Q[lam, u], T_i -> lam*u_i, so P_s lies in the kernel
    exactly when every generator of P_s maps to 0 (`_scaled`); only the
    other inclusion takes a normal form."""
    out = rep.VerificationReport("ps-check", f"determinantal-P{s}")
    if s < 1 or s > 5:
        raise ScaleExceededError("s out of the certified range")
    if p is None:
        p = minor_ideal(s)
    elif p.ring.variables != _minor_variables(s):
        raise IdealError(f"p is not an ideal of the ring of P{s}: {', '.join(p.ring.variables)}")
    if s == 1:
        out.add("kernel-equality", rep.PROVEN, "the one-variable case is the zero ideal")
        return out
    ring = PolyRing(("lam",) + p.ring.variables)
    lam, u, t = ring.gens[0], ring.gens[1 : s + 1], ring.gens[s + 1 :]
    graph = Ideal.make(ring, [t[i] - lam * u[i] for i in range(s)])
    kernel = Ideal.make(p.ring, eliminate(graph, ("lam",)).polys)
    inc1 = p.contains_ideal(kernel)
    inc2 = not any(_scaled(g, s) for g in p.polys)
    ok = inc1 and inc2
    out.add(
        "kernel-equality",
        rep.PROVEN if ok else rep.REFUTED,
        "the minor ideal equals the kernel of the scaling parametrization, "
        "hence is prime as the kernel of a map into a domain",
        details={"kernel_in_P": inc1, "P_in_kernel": inc2},
    )
    return out


def _scaled(p: Poly, s: int) -> dict:
    """p(u, T) with T_i -> lam*u_i, for p in the ring of `minor_ideal`:
    (lam exponent, u exponents) -> nonzero coefficient."""
    out: dict = {}
    for m, c in p.items():
        k = (sum(m[s:]),) + _times(m[:s], m[s:])
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _is_regular(ideal: Ideal, extended: Ideal, f) -> bool:
    """Whether the ring element f is a non-zerodivisor modulo ideal, given
    extended = ideal + (f), which is not the whole ring.

    When extended has a positive grading w, ideal and f are homogeneous
    for it, with deg f = δ > 0, and the exact sequence of graded modules
    0 -> ((J : f)/J)(-δ) -> (R/J)(-δ) -> R/J -> R/(J + f) -> 0, the middle
    map multiplication by f, gives
        HS(R/(J + f)) = (1 - t^δ) HS(R/J) + t^δ HS((J : f)/J).
    A graded module with finite-dimensional pieces is 0 exactly when its
    Hilbert series is, so f is regular exactly when the numerators over
    prod_i (1 - t^w_i) satisfy N(J + f) = (1 - t^δ) N(J).  For a
    w-homogeneous ideal and any term order, the standard monomials of
    each degree are a basis of that degree of the quotient (Macaulay), so
    HS(R/J) = HS(R/in J), read from the leading monomials of the bases
    already computed for `is_unit`, in whatever order each was computed
    (Bayer–Stillman, *Computation of Hilbert functions*, 1992).  Each
    ideal keeps its numerators (`Ideal._numerator`), so along a sequence
    N(J) is the previous step's N(J + f).

    Without a positive grading the colon is computed: f is regular
    exactly when (J : f) ⊆ J, since J ⊆ (J : f) always holds.  R/J ≅
    R'/J' by φ (`_solve`), so this is (J' : φ(f)) ⊆ J', computed in R';
    φ(f) = 0 puts f in J, a zerodivisor on R/J, which is not 0."""
    w = extended.grading
    if w is None:
        image, g = ideal._image(), ideal._substitution()(f)
        return bool(g) and image.contains_ideal(ideal_quotient(image, g))
    delta = _degree(w, next(iter(f)))
    return extended._numerator(w) == _times_one_minus(ideal._numerator(w), delta)


def _extended(ideal: Ideal, f: Poly) -> Ideal:
    """ideal + (f), generated by ideal's generators and f, with ideal's
    substitution φ: its image in R' is J' + (φ(f)), and nothing more is
    solved.  When ideal holds its basis and the weights of the new basis
    are ideal's, that basis is grown by φ(f) (a `_Basis` seeded with it)
    instead of being computed from the generators; it is the same
    reduced basis."""
    out = Ideal.make(ideal.ring, ideal.polys + (f,))
    _check_exponents([f])
    sub = ideal._substitution()
    image = sub(f)
    out._sub = _Substitution(sub.ring, sub.kept, sub.images, sub.rest + ((image,) if image else ()))
    if ideal._gb is not None and out._free_weights == ideal._free_weights:
        out._gb = _Basis(len(sub.kept), [image], seed=ideal._gb)
    return out


def regular_sequence_check(ideal: Ideal, seq) -> rep.VerificationReport:
    """Check each f_i is a non-zerodivisor and a non-unit modulo the
    ideal extended by its predecessors (`_is_regular`).  This is a
    global check on the chart: a proven step implies the local statement
    at the base point, since localising keeps a non-zerodivisor one.

    A refuted step means only that f_i is a unit or a zerodivisor on the
    whole chart modulo its predecessors.  The zerodivisors are the union
    of the associated primes of R/J, and f_i is regular in the local
    ring at the base point exactly when it lies in no associated prime
    inside the base point's maximal ideal; so f_i can be a zerodivisor
    on the whole chart through a component away from the base point and
    still be regular there.  A refuted step does not refute the local
    statement.

    An f equal to 0 is a zerodivisor, since J is not the whole ring."""
    out = rep.VerificationReport("regular-sequence", "ideal")
    current = ideal
    if current.is_unit():
        raise UnitIdealError("base ideal is the whole ring")
    for i, f in enumerate(seq, start=1):
        f = _parse(ideal.ring, f)
        details = {"index": i, "element": str(f)}
        extended = _extended(current, f)
        if extended.is_unit():
            out.add(f"step-{i}", rep.REFUTED, "sequence element is a unit modulo its predecessors", details=details)
            return out
        if not f or not _is_regular(current, extended, f):
            out.add(
                f"step-{i}", rep.REFUTED, "sequence element is a zerodivisor modulo its predecessors", details=details
            )
            return out
        out.add(f"step-{i}", rep.PROVEN, "non-unit with trivial quotient: regular at this step", details=details)
        current = extended
    return out


# -- chart ideals ------------------------------------------------------


@dataclass
class ChartIdeal:
    alg: WeightedLieAlgebra
    fixed_weights: tuple[int, ...]  # indices of the base-point weights
    complement: tuple[int, ...]  # Lie-ordered complement weight indices
    dual_basis: tuple  # rows: d torus vectors dual to the base weights
    ideal: Ideal

    @property
    def d(self) -> int:
        return self.alg.t_dim

    @property
    def m(self) -> int:
        return len(self.complement)

    def z(self, i: int, j: int):
        """z_{i,j} as an element of the chart's ring, for i, j in 1..d."""
        _check_index("z", i, self.d)
        _check_index("z", j, self.d)
        return self.ideal.ring.gens[(i - 1) * self.d + j - 1]

    def a(self, i: int, j: int):
        """a_{i,j} as an element of the chart's ring, for i in 1..d and j
        in 1..m."""
        _check_index("a", i, self.d)
        _check_index("a", j, self.m)
        return self.ideal.ring.gens[self.d * self.d + (i - 1) * self.m + j - 1]


def _check_index(name: str, i: int, top: int):
    """Refuse an index outside 1..top, which would otherwise wrap or pick
    a variable of another block."""
    if not 1 <= i <= top:
        raise IdealError(f"{name} index {i} outside 1..{top}")


def _lie_order_complement(alg: WeightedLieAlgebra, base: tuple[int, ...]) -> tuple[int, ...]:
    """Order the complement weights so each prefix extends the base point
    to a subalgebra; ties broken by height then coordinates."""
    remaining = [i for i in range(alg.n) if i not in base]
    chosen: list[int] = []
    while remaining:
        progressed = False
        for cand in sorted(remaining, key=lambda i: weight_sort_key(alg.weights[i])):
            inside = set(base) | set(chosen) | {cand}
            ok = all(
                k in inside
                for i, j, terms in alg.brackets
                if cand in (i, j) and i in inside and j in inside
                for k, _ in terms
            )
            if ok:
                chosen.append(cand)
                remaining.remove(cand)
                progressed = True
                break
        if not progressed:
            raise IdealError("no subalgebra-compatible ordering of the complement")
    return tuple(chosen)


def chart_ideal(alg: WeightedLieAlgebra, v0) -> ChartIdeal:
    """Affine chart of the Grassmannian at a group-fixed base point, with
    the commutator components of the graph basis as generators."""
    match = None
    for recd in group_fixed_points(alg):
        if recd.subspace == v0:
            match = recd
            break
    if match is None:
        raise NotGroupFixedError("base point is not group-fixed")
    base = match.r_v_set
    d = alg.t_dim
    if len(base) != d:
        raise NotGroupFixedError("base-point weights do not form a torus basis")
    comp = _lie_order_complement(alg, base)
    m = len(comp)
    # dual torus basis to the base weights: the columns of W^-1, W the
    # matrix of base-weight rows, read off one rref of [W | I]; a record's
    # weights are independent and there are d of them, so W is invertible
    # and the pivots of [W | I] are 0..d-1
    augmented = [list(alg.weights[b].coords) + [int(k == j) for k in range(d)] for j, b in enumerate(base)]
    rr = rref(Matrix.from_rows(augmented))[0]
    duals = [tuple(rr[k, d + j] for k in range(d)) for j in range(d)]
    names = tuple(f"z{i}_{j}" for i in range(1, d + 1) for j in range(1, d + 1)) + tuple(
        f"a{i}_{j}" for i in range(1, d + 1) for j in range(1, m + 1)
    )
    r = PolyRing(names)
    # the graph basis: row i is the base weight vector plus
    # sum_j z_{i,j} (dual vector j) plus sum_j a_{i,j} (complement vector j),
    # as coordinate -> linear form, a list of (variable, coefficient)
    # pairs with the variable None for the constant 1
    rows = []
    for i in range(d):
        row = {d + base[i]: [(None, 1)]}
        for k in range(d):
            form = [(i * d + j, duals[j][k]) for j in range(d) if duals[j][k]]
            if form:
                row[k] = form
        for j in range(m):
            row[d + comp[j]] = [(d * d + i * m + j, 1)]
        rows.append(row)
    # the components of [row i, row j], i < j, from the adjoint table,
    # term by term: a term x_a x_b (a from row i, b from row j, so the
    # pair (a, b) names the monomial) is added to component k as
    # Poly.__add__ adds it, so a term that cancels is deleted and goes to
    # the end if it comes back; the terms then come in the order `Poly`
    # arithmetic on the rows gives them, which `_solvable` reads
    units, zero = r.units, (0,) * len(names)

    def monomial(a, b) -> tuple:
        if a is None:
            return zero if b is None else units[b]
        if b is None:
            return units[a]
        lo, hi = (a, b) if a < b else (b, a)
        return zero[:lo] + (1,) + zero[lo + 1 : hi] + (1,) + zero[hi + 1 :]

    table = alg.ad_table()
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            br: dict[int, dict] = {}
            for e, x in rows[i].items():
                for f, y in rows[j].items():
                    if table[e][f]:
                        xy = [(a, b, ca * cb) for a, ca in x for b, cb in y]
                        for k, c in table[e][f]:
                            part = br.setdefault(k, {})
                            for a, b, v in xy:
                                v = part.get((a, b), 0) + v * c
                                if v:
                                    part[a, b] = v
                                else:
                                    del part[a, b]
            gens += [Poly(r, {monomial(*ab): entry(v) for ab, v in br[k].items()}) for k in sorted(br) if br[k]]
    # the origin is the base point itself and must satisfy everything
    if any(zero in g for g in gens):
        raise IdealError("chart generators do not vanish at the base point")
    return ChartIdeal(alg, base, comp, tuple(duals), Ideal(r, tuple(gens)))


def _check_weight(chart: ChartIdeal, gamma: Weight) -> None:
    """Refuse, with `IdealError`, a weight whose length is not the
    torus dimension d: the pairing zips, so it would read a shorter or
    longer weight as some other weight."""
    if len(gamma.coords) != chart.d:
        raise IdealError(f"the weight must have length d = {chart.d}")


def u_function(chart: ChartIdeal, i: int, gamma: Weight) -> Poly:
    """The linear form sum_j z_{i,j} gamma(t_j) over the dual torus basis,
    as an element of the chart's ring."""
    if not (1 <= i <= chart.d):
        raise IdealError("row index out of range")
    _check_weight(chart, gamma)
    d, ring = chart.d, chart.ideal.ring
    terms = {}
    for j in range(d):
        val = gamma(chart.dual_basis[j])
        if val != 0:
            terms[ring.units[(i - 1) * d + j]] = entry(val)
    return Poly(ring, terms)


def i_gamma(chart: ChartIdeal, gamma: Weight) -> tuple[int, ...]:
    """Indices of the dual torus basis on which gamma does not vanish."""
    _check_weight(chart, gamma)
    return tuple(j for j in range(1, chart.d + 1) if gamma(chart.dual_basis[j - 1]) != 0)


def verify_chart_relation(chart: ChartIdeal) -> rep.VerificationReport:
    """The coupling relation between the last complement weight's u-forms
    and a-coordinates must lie in the chart ideal.  The relation of
    (i, j) is u_i a_j - u_j a_i: 0 for i = j and the negative of that of
    (j, i), so only the pairs i < j are checked."""
    out = rep.VerificationReport("chart-relation", chart.alg.fingerprint())
    if chart.m < 1:
        raise IdealError("chart has no complement weights")
    gm = chart.alg.weights[chart.complement[-1]]
    u = {i: u_function(chart, i, gm) for i in range(1, chart.d + 1)}
    ok = all(
        chart.ideal.contains(u[i] * chart.a(j, chart.m) - u[j] * chart.a(i, chart.m))
        for i, j in itertools.combinations(range(1, chart.d + 1), 2)
    )
    out.add(
        "chart-relation",
        rep.PROVEN if ok else rep.REFUTED,
        "u-forms couple antisymmetrically to the last complement coordinate inside the chart ideal",
    )
    return out


def nilcone_dimension(chart: ChartIdeal, subset=None) -> int:
    """Dimension of the locus in the tautological bundle over the chart
    where the selected torus coordinate forms vanish on the fiber."""
    d = chart.d
    if subset is None:
        subset = tuple(range(1, d + 1))
    subset = tuple(subset)
    s = PolyRing(chart.ideal.ring.variables + tuple(f"c{k}" for k in range(1, d + 1)))
    pad = (0,) * d  # exponent 0 on the c variables
    gens = [Poly(s, {m + pad: v for m, v in p.items()}) for p in chart.ideal.polys]
    # fiber point sum_k c_k w_k: its i-th dual-basis torus coordinate is
    # sum_k c_k z_{k,i}
    n = len(chart.ideal.ring.variables)
    for i in subset:
        _check_index("z", i, d)
        gens.append(Poly(s, {_times(s.units[n + k], s.units[k * d + i - 1]): 1 for k in range(d)}))
    return hilbert_dimension(Ideal.make(s, gens))


def chart_dimension(chart: ChartIdeal) -> int:
    return hilbert_dimension(chart.ideal)


def nilpotent_locus_dimension(chart: ChartIdeal) -> int:
    """Dimension of the set of chart points whose subspace sits entirely
    inside the nilpotent part (all torus coefficients zero)."""
    zs = [chart.z(i, j) for i in range(1, chart.d + 1) for j in range(1, chart.d + 1)]
    return hilbert_dimension(Ideal.make(chart.ideal.ring, chart.ideal.polys + tuple(zs)))
