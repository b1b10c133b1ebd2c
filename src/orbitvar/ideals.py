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
elements with `as_expr()`."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush

import sympy
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


class _Keys(dict):
    """Memo of monomial -> key for one kernel call.  The key sorts
    monomials from the largest down, so that a min-heap pops the leading
    monomial first: the negation of sympy's lex or grevlex key."""

    _DESCENDING = {
        "lex": lambda m: tuple([-e for e in m]),
        "grevlex": lambda m: (-sum(m), m[::-1]),
    }

    def __init__(self, ring):
        super().__init__()
        self.key = self._DESCENDING[ring.order.alias]

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
    term a reduction step adds is smaller than the term it removes."""
    mul, div = ring.monomial_mul, ring.monomial_div
    p = dict(p)
    heap = [(keys[m], m) for m in p]
    heapify(heap)
    rem, lead = {}, None
    while heap:
        m = heappop(heap)[1]
        c = p.pop(m, None)
        if c is None:
            continue
        for lm, g in divisors:
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
        """The reduced Gröbner basis, computed once: (leading monomial,
        monic element of `ring.poly_ring`) pairs, largest leading
        monomial first, and empty for the zero ideal."""
        if self._gb is None:
            self._gb = tuple(_groebner(self.polys, self.ring.poly_ring))
        return self._gb

    def basis(self) -> tuple:
        return tuple(g.as_expr() for _, g in self.groebner())

    def _remainder(self, p) -> dict:
        """The remainder of the ring element p on division by the reduced
        basis, which is the same for every division order because the
        basis is a Gröbner basis."""
        r = self.ring.poly_ring
        return _reduce(p, self.groebner(), r, _Keys(r))[0]

    def normal_form(self, f):
        """The remainder of the expression f, as an expression."""
        f = sympy.expand(sympy.sympify(f))
        if not self.groebner():
            return f
        r = self.ring.poly_ring
        return r.dtype(self._remainder(_to_ring(r, f))).as_expr()

    def contains(self, f) -> bool:
        if isinstance(f, PolyElement):
            return not self._remainder(f.set_ring(self.ring.poly_ring))
        return self.normal_form(f) == 0

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(p) for p in other.polys)

    def is_unit(self) -> bool:
        gb = self.groebner()
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

    The basis of I is used rather than its generators: in
    `regular_sequence_check` it is cached already, so the Gröbner basis
    of J is the only one computed, and it is a better start for that
    Buchberger run (on the A3 chart at base point (3,4,5) it takes about
    half the time it takes from the generators).

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
    branch once it cannot beat the smallest cover found so far."""
    gb = ideal.groebner()
    nvars = len(ideal.ring.variables)
    if not gb:
        return nvars
    if ideal.is_unit():
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


def regular_sequence_check(ideal: Ideal, seq) -> rep.VerificationReport:
    """Check each f_i is a non-zerodivisor and a non-unit modulo the
    ideal extended by its predecessors, via (J : f) = J.  This is a
    global check on the chart, which implies the local statement.

    Only (J : f) ⊆ J is checked: J ⊆ (J : f) holds for every ideal J,
    since g in J gives g f in J, so it needs no Gröbner basis of the
    quotient.  An f equal to 0 is a zerodivisor, since J is not the
    whole ring.  The elements may be strings, expressions or ring
    elements; each is converted once."""
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
        if not f or not current.contains_ideal(ideal_quotient(current, f)):
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
        """z_{i,j} as an element of the chart's ring."""
        return self.ideal.ring.poly_ring.gens[(i - 1) * self.d + j - 1]

    def a(self, i: int, j: int):
        """a_{i,j} as an element of the chart's ring."""
        return self.ideal.ring.poly_ring.gens[self.d * self.d + (i - 1) * self.m + j - 1]


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
