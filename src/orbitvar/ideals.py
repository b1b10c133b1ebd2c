"""Exact commutative algebra: Gröbner bases, elimination, ideal
quotients, Krull dimension, and the determinantal and chart ideals the
verification suite needs.  The Gröbner kernel is `_groebner`, a
Buchberger loop with the Gebauer–Möller criteria on sympy's sparse
polynomial rings over QQ.

Every polynomial is an element of such a ring (`PolyRing.poly_ring`)
from where it is built to the kernel: the chart and determinantal
ideals are built by ring arithmetic, and `Ideal` stores ring elements.
sympy expressions appear only at the edges: strings and expressions
given to `Ideal.make`, `Ideal.normal_form`, `ideal_quotient` and
`regular_sequence_check` are parsed and expanded once, and
`Ideal.generators`, `u_function` and the report details render ring
elements with `as_expr()`.

No report prints a Gröbner basis, and the questions the reports ask
(membership, the unit ideal, the dimension, regularity) have the same
answer for every term order.  So an `Ideal` answers them from one basis
in the order where it is cheapest: weighted grevlex for a positive
integer grading in which every generator is homogeneous (`_grading`,
found exactly, all ones when the total degree is one).  For such an
ideal every S-polynomial and every remainder is homogeneous, and the
weighted order follows the ideal's own degrees; the A3 chart ideal at
base point (3,4,5), not homogeneous in the total degree, has a reduced
basis of 19 elements there against 57 in grevlex.  `Ideal.groebner`,
`basis` and `normal_form` give order-dependent output and stay in the
ring's own order, grevlex or lex; `eliminate` stays in lex.

A sequence element f, homogeneous of degree δ > 0 with the ideal J, is
regular on R/J exactly when the Hilbert-series numerators satisfy
N(J + f) = (1 - t^δ) N(J) (`_is_regular`, with the proof).  Each
numerator is read off the leading monomials of a basis already
computed (Bayer–Stillman, *Computation of Hilbert functions*, 1992;
Bigatti, *Computation of Hilbert–Poincaré series*, 1997), so no colon
ideal is computed; the colon of `ideal_quotient` is the fallback for
ideals with no positive grading."""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush

import sympy
from sympy.polys.orderings import MonomialOrder
from sympy.polys.polyutils import dict_from_expr
from sympy.polys.rings import PolyElement, ring as sparse_ring

from .liealg import Weight, WeightedLieAlgebra, weight_sort_key
from .linalg import Matrix, solve
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
    variables: tuple[str, ...]
    order: str = "grevlex"  # grevlex | lex

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise IdealError("variable names must be unique")
        if self.order not in ("grevlex", "lex"):
            raise IdealError(f"unsupported order {self.order}")

    @functools.cached_property
    def symbols(self) -> tuple:
        return sympy.symbols(self.variables)

    @functools.cached_property
    def poly_ring(self):
        """sympy's sparse ring over QQ in these variables and order."""
        return sparse_ring(self.symbols, sympy.QQ, self.order)[0]

    def parse(self, s: str):
        return sympy.sympify(s, dict(zip(self.variables, self.symbols)))


def _to_ring(ring, expr):
    """expr as an element of a sparse ring.  A symbol outside the ring
    ends up in a coefficient and fails there with CoercionFailed."""
    terms, _ = dict_from_expr(expr, gens=ring.symbols)
    return ring({m: sympy.QQ.from_sympy(c) for m, c in terms.items()})


# -- the Gröbner kernel ------------------------------------------------


def _degree(weights, m) -> int:
    return sum(map(operator.mul, weights, m))


class _WeightedGrevlex(MonomialOrder):
    """Graded reverse lexicographic order by the weighted degree
    `weights · m`: sympy's grevlex key with the weighted degree in place
    of the total degree.  A term order when every weight is positive."""

    alias = "wgrevlex"
    is_global = True

    def __init__(self, weights: tuple[int, ...]):
        self.weights = weights

    def __call__(self, m):
        return (_degree(self.weights, m), tuple(reversed([-e for e in m])))

    def __eq__(self, other):
        return isinstance(other, _WeightedGrevlex) and self.weights == other.weights

    def __hash__(self):
        return hash((_WeightedGrevlex, self.weights))


class _Supports(dict):
    """Memo of monomial -> its variables, as a bitmask."""

    def __missing__(self, m):
        s = self[m] = sum(1 << i for i, e in enumerate(m) if e)
        return s


class _Keys(dict):
    """Memo of monomial -> key for one kernel call, with a memo of
    supports beside it.  The key sorts monomials from the largest down,
    so that a min-heap pops the leading monomial first: the negation of
    sympy's lex, grevlex or weighted grevlex key."""

    _DESCENDING = {
        "lex": lambda m: tuple([-e for e in m]),
        "grevlex": lambda m: (-sum(m), m[::-1]),
    }

    def __init__(self, ring):
        super().__init__()
        self.supports = _Supports()
        order = ring.order
        if isinstance(order, _WeightedGrevlex):
            self.key = lambda m: (-_degree(order.weights, m), m[::-1])
        else:
            self.key = self._DESCENDING[order.alias]

    def __missing__(self, m):
        k = self[m] = self.key(m)
        return k


def _reduce(p, divisors, ring, keys: _Keys):
    """The remainder of p on division by divisors, a list of (leading
    monomial, monic element) pairs, as a dict, with its leading monomial
    (None when the remainder is 0).

    The dividend's monomials wait in a heap of their keys, so its
    leading term is the top of the heap and no step takes a max over
    all its terms.  A monomial that cancels stays in the heap and is
    skipped when popped; it cannot come back once popped, because every
    term a reduction step adds is smaller than the term it removes.  A
    leading monomial is tried as a divisor only when its support lies
    inside the popped monomial's, since most of them divide nothing."""
    mul, div, supports = ring.monomial_mul, ring.monomial_div, keys.supports
    divisors = [(supports[lm], lm, g) for lm, g in divisors]
    p = dict(p)
    heap = [(keys[m], m) for m in p]
    heapify(heap)
    rem, lead = {}, None
    while heap:
        m = heappop(heap)[1]
        c = p.pop(m, None)
        if c is None:
            continue
        outside = ~supports[m]
        for support, lm, g in divisors:
            if not support & outside:
                q = div(m, lm)
                if q is not None:
                    break
        else:
            rem[m] = c
            if lead is None:
                lead = m
            continue
        for mg, cg in g.items():
            if mg != lm:  # the leading term cancels the popped one
                mm = mul(mg, q)
                old = p.get(mm)
                if old is None:
                    p[mm] = -c * cg
                    heappush(heap, (keys[mm], mm))
                else:
                    new = old - c * cg
                    if new:
                        p[mm] = new
                    else:
                        del p[mm]
    return rem, lead


def _groebner(polys, ring) -> list:
    """The reduced Gröbner basis of the ideal generated by polys, elements
    of the sparse ring `ring` over QQ, as (leading monomial, monic
    element) pairs, largest leading monomial first: the basis and the
    order sympy's `groebner` returns.

    This is sympy's improved Buchberger algorithm (Becker–Weispfenning,
    *Gröbner Bases*, 1993, p. 232) with the pair criteria of Gebauer–
    Möller (*On an installation of Buchberger's algorithm*, 1988) and
    the normal selection strategy.  Each element's leading monomial is
    computed once and kept beside it; the critical pairs wait in a heap
    keyed once by the order key of their lcm, and a pair the update has
    dropped is skipped when popped; the division is `_reduce`.

    It returns the same list as sympy's `groebner` because the reduced
    Gröbner basis of an ideal for a term order is unique (Becker–
    Weispfenning, Thm. 5.43): when no pair is left, the kept elements
    form a Gröbner basis; interreducing them, dropping those that reduce
    to 0 and keeping the rest monic gives a reduced Gröbner basis, which
    is therefore that unique one.  Listing it by leading monomial,
    largest first, fixes the order.  When a remainder is a nonzero
    constant the ideal is the whole ring and its reduced basis is 1."""
    zero = ring.domain.zero
    mul, div, lcm = ring.monomial_mul, ring.monomial_div, ring.monomial_lcm
    order, const = ring.order, ring.zero_monom
    keys = _Keys(ring)
    unit = [(const, ring.one)]

    def monic(terms, lm):
        c = terms[lm]
        return ring.dtype(terms if c == 1 else {m: v / c for m, v in terms.items()})

    # the inputs, monic and interreduced as sympy does ([BW] p. 203)
    new = []
    for p in polys:
        if p:
            lm = min(p, key=keys.__getitem__)  # the smallest key is the largest monomial
            new.append((lm, monic(p, lm)))
    while True:
        f, new = new, []
        for i, (_, p) in enumerate(f):
            r, lm = _reduce(p, f[:i], ring, keys)
            if lm is not None:
                new.append((lm, monic(r, lm)))
        if new == f:
            break
    if any(lm == const for lm, _ in f):
        return unit

    lms, elems = [lm for lm, _ in f], [p for _, p in f]
    basis: set[int] = set()
    pairs: dict[tuple[int, int], tuple] = {}  # pending pair -> lcm
    queue: list = []  # (order key of the lcm, i, j), stale once out of pairs

    def update(ih):
        """Gebauer–Möller update of basis and pairs by the new element ih
        ([BW] p. 230)."""
        mh = lms[ih]
        lcms = {ig: lcm(mh, lms[ig]) for ig in basis}
        candidates = sorted(basis)
        kept = []
        while candidates:
            ig = candidates.pop()
            mhg = lcms[ig]
            if mul(mh, lms[ig]) == mhg or not any(
                div(mhg, lcms[ip]) is not None for ip in itertools.chain(candidates, kept)
            ):
                kept.append(ig)
        for pair, m12 in list(pairs.items()):
            if (
                div(m12, mh) is not None
                and lcm(lms[pair[0]], mh) != m12
                and lcm(lms[pair[1]], mh) != m12
            ):
                del pairs[pair]
        for ig in kept:
            mhg = lcms[ig]
            if mul(mh, lms[ig]) != mhg:
                pairs[ih, ig] = mhg
                heappush(queue, (order(mhg), ih, ig))
        basis.difference_update([ig for ig in basis if div(lms[ig], mh) is not None])
        basis.add(ih)

    for ih in sorted(range(len(f)), key=lambda i: keys[lms[i]], reverse=True):
        update(ih)

    divisors = None
    while queue:
        _, i, j = heappop(queue)
        m = pairs.pop((i, j), None)
        if m is None:
            continue
        # the S-polynomial; the leading terms cancel
        qi, qj = div(m, lms[i]), div(m, lms[j])
        s = {mul(mi, qi): c for mi, c in elems[i].items()}
        for mj, c in elems[j].items():
            mm = mul(mj, qj)
            v = s.get(mm, zero) - c
            if v:
                s[mm] = v
            else:
                del s[mm]
        if divisors is None:
            # smallest leading monomial first ([Cox] p. 111)
            divisors = [(lms[g], elems[g]) for g in sorted(basis, key=lambda g: keys[lms[g]], reverse=True)]
        r, lm = _reduce(s, divisors, ring, keys)
        if lm is not None:
            if lm == const:
                return unit
            lms.append(lm)
            elems.append(monic(r, lm))
            update(len(elems) - 1)
            divisors = None

    # interreduce; an input whose leading monomial another element's
    # divides reduces to 0 here and is dropped
    reduced = []
    for ig in basis:
        r, lm = _reduce(elems[ig], [(lms[g], elems[g]) for g in basis if g != ig], ring, keys)
        if lm is not None:
            reduced.append((lm, ring.dtype(r)))
    reduced.sort(key=lambda t: keys[t[0]])
    return reduced


# -- positive gradings and Hilbert series --------------------------------


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


def _parse(ring: PolyRing, g):
    """g as an element of `ring.poly_ring`.  A string or an expression is
    expanded and must use no variable outside the ring; an element of
    another sparse ring is moved into this one."""
    if isinstance(g, PolyElement):
        return g.set_ring(ring.poly_ring)
    e = sympy.expand(sympy.sympify(g))
    if not e.free_symbols <= set(ring.symbols):
        raise IdealError(f"generator {g} uses foreign variables")
    return _to_ring(ring.poly_ring, e)


@dataclass
class Ideal:
    """An ideal of `ring`, kept as its nonzero generators `polys`,
    elements of `ring.poly_ring`, in the order they were given."""

    ring: PolyRing
    polys: tuple
    _gb: tuple | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def make(ring: PolyRing, gens) -> "Ideal":
        """The ideal generated by gens: strings, sympy expressions or
        sparse-ring elements, with the zeros dropped."""
        polys = (_parse(ring, g) for g in gens)
        return Ideal(ring, tuple(p for p in polys if p))

    @functools.cached_property
    def generators(self) -> tuple:
        """`polys` as sympy expressions, for reports."""
        return tuple(p.as_expr() for p in self.polys)

    def groebner(self) -> tuple:
        """The reduced Gröbner basis for `ring.order`, computed once:
        (leading monomial, monic element of `ring.poly_ring`) pairs,
        largest leading monomial first, and empty for the zero ideal."""
        if self._gb is None:
            self._gb = tuple(_groebner(self.polys, self.ring.poly_ring))
        return self._gb

    def basis(self) -> tuple:
        return tuple(g.as_expr() for _, g in self.groebner())

    @functools.cached_property
    def grading(self) -> tuple[int, ...] | None:
        """A positive integer weight vector for which every generator is
        homogeneous, all ones when the total degree is one, and None when
        there is none (`_grading`)."""
        return _grading(self.polys, len(self.ring.variables))

    @functools.cached_property
    def order_free_basis(self) -> tuple:
        """A reduced Gröbner basis, as (leading monomial, element) pairs,
        for the questions whose answer is the same in every term order:
        membership, the unit ideal and the dimension.  The order is
        weighted grevlex by `grading`, and the elements belong to a ring
        in that order; without a grading, or in the standard one, the
        basis is `groebner()` itself and nothing is computed twice."""
        w = self.grading
        if w is None or all(e == 1 for e in w):
            return self.groebner()
        ring = sparse_ring(self.ring.symbols, sympy.QQ, _WeightedGrevlex(w))[0]
        return tuple(_groebner(self.polys, ring))

    def normal_form(self, f):
        """The remainder of the expression f on division by `groebner()`,
        as an expression."""
        f = sympy.expand(sympy.sympify(f))
        if not self.groebner():
            return f
        r = self.ring.poly_ring
        return r.dtype(_reduce(_to_ring(r, f), self.groebner(), r, _Keys(r))[0]).as_expr()

    def contains(self, f) -> bool:
        """Whether f, an expression or a ring element, lies in the ideal:
        its remainder on division by a Gröbner basis, for any order, is
        0."""
        if isinstance(f, PolyElement):
            p = f.set_ring(self.ring.poly_ring)
        else:
            f = sympy.expand(sympy.sympify(f))
            if not self.polys:  # unconverted, as `normal_form` leaves it
                return f == 0
            p = _to_ring(self.ring.poly_ring, f)
        gb = self.order_free_basis
        if not gb:
            return not p
        ring = gb[0][1].ring
        return not _reduce(p, gb, ring, _Keys(ring))[0]

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(p) for p in other.polys)

    def is_unit(self) -> bool:
        gb = self.order_free_basis
        return len(gb) == 1 and not any(gb[0][0])

    def to_json(self) -> dict:
        return {
            "ring": list(self.ring.variables),
            "order": self.ring.order,
            "generators": [str(g) for g in self.generators],
        }


def eliminate(ideal: Ideal, drop_vars) -> Ideal:
    """I intersected with the subring omitting drop_vars, via a lex basis
    with the dropped block ordered first.  In that order a basis element
    is free of the dropped variables exactly when its leading monomial
    is, since every term with one of them is larger than every term
    without."""
    drop = tuple(drop_vars)
    names = ideal.ring.variables
    keep = tuple(v for v in names if v not in drop)
    out = PolyRing(keep, ideal.ring.order)
    if not drop:
        return Ideal(out, ideal.polys)
    # exponent vectors permuted into the lex ring, the dropped block first
    r = PolyRing(drop + keep, "lex").poly_ring
    where = [names.index(v) if v in names else None for v in drop + keep]
    polys = [
        r.dtype({tuple(0 if i is None else m[i] for i in where): c for m, c in p.items()})
        for p in ideal.polys
    ]
    k, s = len(drop), out.poly_ring
    kept = (s.dtype({m[k:]: c for m, c in g.items()}) for lm, g in _groebner(polys, r) if not any(lm[:k]))
    return Ideal(out, tuple(kept))


# the two variables the homogeneous colon of `ideal_quotient` adds
_H, _Y = sympy.Dummy("h"), sympy.Dummy("y")


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
    Prop. 15.12).

    The basis of I is used rather than its generators: when
    `regular_sequence_check` falls back to a colon, I too has no
    positive grading as a rule, and then its `is_unit` has cached that
    basis already, so the Gröbner basis of J is the only one computed.
    It is also a better start for that Buchberger run (on the A3 chart
    at base point (3,4,5) it takes about half the time it takes from
    the generators).

    f may be a string, an expression or a ring element; the quotient's
    generators are ring elements."""
    f = _parse(ideal.ring, f)
    if not f:
        raise IdealError("quotient by zero")
    xs = ideal.ring.symbols
    r, n = ideal.ring.poly_ring, len(xs)
    # the basis of I and y - f, as exponent vectors in xs and y
    elems = [{m + (0,): c for m, c in g.items()} for _, g in ideal.groebner()]
    elems.append({(0,) * n + (1,): sympy.QQ.one, **{m + (0,): -c for m, c in f.items()}})
    s = sparse_ring(xs + (_H, _Y), sympy.QQ, "grevlex")[0]
    homogenized = []
    for e in elems:
        d = max(sum(m) for m in e)
        homogenized.append(s({m[:n] + (d - sum(m), m[n]): c for m, c in e.items()}))
    out, powers = [], [r.one]
    for _, p in _groebner(homogenized, s):
        shift = 1 if all(m[-1] > 0 for m in p) else 0
        # h -> 1, y -> f; p is homogeneous, so within one power of y the
        # x exponents fix the h exponent
        by_power: dict[int, dict] = {}
        for m, c in p.items():
            by_power.setdefault(m[-1] - shift, {})[m[:n]] = c
        g = r.zero
        for e, terms in by_power.items():
            while len(powers) <= e:
                powers.append(powers[-1] * f)
            g += r(terms) * powers[e]
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

    The leading monomials are read from `Ideal.order_free_basis`; any
    other object with a `ring` and a `groebner()` of (leading monomial,
    element) pairs is read from that basis."""
    gb = ideal.order_free_basis if hasattr(ideal, "order_free_basis") else ideal.groebner()
    nvars = len(ideal.ring.variables)
    if not gb:
        return nvars
    if len(gb) == 1 and not any(gb[0][0]):
        raise UnitIdealError("the ideal is the whole ring")
    supports = [frozenset(i for i, e in enumerate(lm) if e > 0) for lm, _ in gb]
    return nvars - _min_cover_size(supports)


def determinantal_P(s: int) -> tuple[Ideal, Ideal, Ideal]:
    """The 2x2-minor ideal P_s in Q[u_1..u_s, T_1..T_s], together with
    the one-column variant P'_s and the recursive variant P''_s."""
    if s < 1:
        raise IdealError("s must be at least 1")
    names = tuple(f"u{i}" for i in range(1, s + 1)) + tuple(f"T{i}" for i in range(1, s + 1))
    ring = PolyRing(names, "grevlex")
    u, t = ring.poly_ring.gens[:s], ring.poly_ring.gens[s:]
    p = Ideal.make(
        ring,
        [u[j] * t[k] - u[k] * t[j] for j in range(s) for k in range(j + 1, s)],
    )
    p_prime = Ideal.make(ring, [u[j] * t[0] - u[0] * t[j] for j in range(1, s)])
    rec = [u[j] * t[k] - u[k] * t[j] for j in range(s - 1) for k in range(j + 1, s - 1)]
    p_dbl = Ideal.make(ring, rec + ([u[s - 1] * t[0] - u[0] * t[s - 1]] if s >= 2 else []))
    return p, p_prime, p_dbl


def primality_crosscheck_P(s: int) -> rep.VerificationReport:
    """Certify P_s as the kernel of T_i -> lam*u_i by elimination, and
    check both inclusions explicitly."""
    out = rep.VerificationReport("ps-check", f"determinantal-P{s}")
    if s < 1 or s > 5:
        raise ScaleExceededError("s out of the certified range")
    p, _, _ = determinantal_P(s)
    if s == 1:
        out.add("kernel-equality", rep.PROVEN, "the one-variable case is the zero ideal")
        return out
    ring = PolyRing(("lam",) + p.ring.variables, "lex")
    lam, u, t = ring.poly_ring.gens[0], ring.poly_ring.gens[1 : s + 1], ring.poly_ring.gens[s + 1 :]
    graph = Ideal.make(ring, [t[i] - lam * u[i] for i in range(s)])
    kernel = Ideal.make(p.ring, eliminate(graph, ("lam",)).polys)
    inc1 = p.contains_ideal(kernel)
    inc2 = kernel.contains_ideal(p)
    ok = inc1 and inc2
    out.add(
        "kernel-equality",
        rep.PROVEN if ok else rep.REFUTED,
        "the minor ideal equals the kernel of the scaling parametrization, "
        "hence is prime as the kernel of a map into a domain",
        details={"kernel_in_P": inc1, "P_in_kernel": inc2},
    )
    return out


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
    (Bayer–Stillman, *Computation of Hilbert functions*, 1992).

    Without a positive grading the colon is computed: f is regular
    exactly when (J : f) ⊆ J, since J ⊆ (J : f) always holds."""
    w = extended.grading
    if w is None:
        return ideal.contains_ideal(ideal_quotient(ideal, f))
    delta = _degree(w, next(iter(f)))
    before = _hilbert_numerator([lm for lm, _ in ideal.order_free_basis], w)
    after = _hilbert_numerator([lm for lm, _ in extended.order_free_basis], w)
    return after == _times_one_minus(before, delta)


def regular_sequence_check(ideal: Ideal, seq) -> rep.VerificationReport:
    """Check each f_i is a non-zerodivisor and a non-unit modulo the
    ideal extended by its predecessors (`_is_regular`).  This is a
    global check on the chart, which implies the local statement.

    An f equal to 0 is a zerodivisor, since J is not the whole ring.
    The elements may be strings, expressions or ring elements; each is
    converted once."""
    out = rep.VerificationReport("regular-sequence", "ideal")
    current = ideal
    if current.is_unit():
        raise UnitIdealError("base ideal is the whole ring")
    for i, f in enumerate(seq, start=1):
        f = _parse(ideal.ring, f)
        details = {"index": i, "element": str(f.as_expr())}
        extended = Ideal.make(ideal.ring, current.polys + (f,))
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

    def z_sym(self, i: int, j: int):
        return sympy.Symbol(f"z{i}_{j}")

    def a_sym(self, i: int, j: int):
        return sympy.Symbol(f"a{i}_{j}")

    def z(self, i: int, j: int):
        """z_{i,j} as an element of the chart's ring, for i, j in 1..d."""
        _check_index("z", i, self.d)
        _check_index("z", j, self.d)
        return self.ideal.ring.poly_ring.gens[(i - 1) * self.d + j - 1]

    def a(self, i: int, j: int):
        """a_{i,j} as an element of the chart's ring, for i in 1..d and j
        in 1..m."""
        _check_index("a", i, self.d)
        _check_index("a", j, self.m)
        return self.ideal.ring.poly_ring.gens[self.d * self.d + (i - 1) * self.m + j - 1]


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
    from .orbit import group_fixed_points

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
    # dual torus basis to the base weights
    wmat = Matrix.from_rows([list(alg.weights[i].coords) for i in base])
    duals = []
    for j in range(d):
        e = [Fraction(1) if k == j else Fraction(0) for k in range(d)]
        sol = solve(wmat, e)
        if sol is None:
            raise NotGroupFixedError("base-point weights do not form a torus basis")
        duals.append(sol)
    names = tuple(f"z{i}_{j}" for i in range(1, d + 1) for j in range(1, d + 1)) + tuple(
        f"a{i}_{j}" for i in range(1, d + 1) for j in range(1, m + 1)
    )
    ring = PolyRing(names, "grevlex")
    r = ring.poly_ring
    # the graph basis: row i is the base weight vector plus
    # sum_j z_{i,j} (dual vector j) plus sum_j a_{i,j} (complement vector j),
    # as coordinate -> ring element
    rows = []
    for i in range(d):
        row = {d + base[i]: r.one}
        for k in range(d):
            row[k] = sum((r.gens[i * d + j] * duals[j][k] for j in range(d) if duals[j][k]), r.zero)
        for j in range(m):
            row[d + comp[j]] = r.gens[d * d + i * m + j]
        rows.append({k: v for k, v in row.items() if v})
    # the components of [row i, row j], i < j, from the adjoint table
    table = alg.ad_table()
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            br: dict[int, object] = {}
            for e, x in rows[i].items():
                for f, y in rows[j].items():
                    if table[e][f]:
                        xy = x * y
                        for k, c in table[e][f]:
                            br[k] = br.get(k, r.zero) + xy * c
            gens += [br[k] for k in sorted(br) if br[k]]
    # the origin is the base point itself and must satisfy everything
    if any(r.zero_monom in g for g in gens):
        raise IdealError("chart generators do not vanish at the base point")
    return ChartIdeal(alg, base, comp, tuple(tuple(dv) for dv in duals), Ideal(ring, tuple(gens)))


def _u_form(chart: ChartIdeal, i: int, gamma: Weight):
    """The linear form sum_j z_{i,j} gamma(t_j) over the dual torus basis,
    as an element of the chart's ring."""
    if not (1 <= i <= chart.d):
        raise IdealError("row index out of range")
    out = chart.ideal.ring.poly_ring.zero
    for j in range(1, chart.d + 1):
        val = gamma(chart.dual_basis[j - 1][: chart.alg.t_dim])
        if val != 0:
            out += chart.z(i, j) * val
    return out


def u_function(chart: ChartIdeal, i: int, gamma: Weight):
    """The linear form sum_j z_{i,j} gamma(t_j) over the dual torus basis."""
    return _u_form(chart, i, gamma).as_expr()


def i_gamma(chart: ChartIdeal, gamma: Weight) -> tuple[int, ...]:
    """Indices of the dual torus basis on which gamma does not vanish."""
    out = []
    for j in range(1, chart.d + 1):
        if gamma(chart.dual_basis[j - 1][: chart.alg.t_dim]) != 0:
            out.append(j)
    return tuple(out)


def verify_chart_relation(chart: ChartIdeal) -> rep.VerificationReport:
    """The coupling relation between the last complement weight's u-forms
    and a-coordinates must lie in the chart ideal."""
    out = rep.VerificationReport("chart-relation", chart.alg.fingerprint())
    if chart.m < 1:
        raise IdealError("chart has no complement weights")
    gm = chart.alg.weights[chart.complement[-1]]
    u = {i: _u_form(chart, i, gm) for i in range(1, chart.d + 1)}
    ok = True
    for i in range(1, chart.d + 1):
        for j in range(1, chart.d + 1):
            if not chart.ideal.contains(u[i] * chart.a(j, chart.m) - u[j] * chart.a(i, chart.m)):
                ok = False
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
    ring = PolyRing(chart.ideal.ring.variables + tuple(f"c{k}" for k in range(1, d + 1)), "grevlex")
    s = ring.poly_ring
    c = s.gens[-d:]

    def pad(p):  # p with exponent 0 on the c variables
        return s.dtype({m + (0,) * d: v for m, v in p.items()})

    gens = [pad(p) for p in chart.ideal.polys]
    # fiber point sum_k c_k w_k: its i-th dual-basis torus coordinate is
    # sum_k c_k z_{k,i}
    for i in subset:
        gens.append(sum((c[k - 1] * pad(chart.z(k, i)) for k in range(1, d + 1)), s.zero))
    return hilbert_dimension(Ideal.make(ring, gens))


def chart_dimension(chart: ChartIdeal) -> int:
    return hilbert_dimension(chart.ideal)


def nilpotent_locus_dimension(chart: ChartIdeal) -> int:
    """Dimension of the set of chart points whose subspace sits entirely
    inside the nilpotent part (all torus coefficients zero)."""
    zs = [chart.z(i, j) for i in range(1, chart.d + 1) for j in range(1, chart.d + 1)]
    return hilbert_dimension(Ideal.make(chart.ideal.ring, chart.ideal.polys + tuple(zs)))
