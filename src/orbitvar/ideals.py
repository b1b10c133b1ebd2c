"""Exact commutative algebra: Gröbner bases, elimination, ideal
quotients, Krull dimension, and the determinantal and chart ideals the
verification suite needs.  sympy supplies the Gröbner kernel; the
constructions on top are local."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import sympy

from .liealg import Weight, WeightedLieAlgebra, weight_sort_key
from .linalg import Matrix, solve
from . import report as rep


class IdealError(Exception):
    pass


class UnitIdealError(IdealError):
    pass


class DivisionFailureError(IdealError):
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

    @property
    def symbols(self) -> tuple:
        return sympy.symbols(self.variables)

    def parse(self, s: str):
        return sympy.sympify(s, dict(zip(self.variables, self.symbols)))


@dataclass
class Ideal:
    ring: PolyRing
    generators: tuple
    _gb: object = field(default=None, repr=False, compare=False)

    @staticmethod
    def make(ring: PolyRing, gens) -> "Ideal":
        syms = set(ring.symbols)
        expanded = []
        for g in gens:
            e = sympy.expand(sympy.sympify(g))
            if not e.free_symbols <= syms:
                raise IdealError(f"generator {g} uses foreign variables")
            if e != 0:
                expanded.append(e)
        return Ideal(ring, tuple(expanded))

    def groebner(self):
        if self._gb is None:
            syms = self.ring.symbols
            gens = list(self.generators) or [sympy.Integer(0)]
            if all(g == 0 for g in gens):
                self._gb = None
                return None
            self._gb = sympy.groebner(gens, *syms, order=self.ring.order)
        return self._gb

    def basis(self) -> tuple:
        gb = self.groebner()
        if gb is None:
            return ()
        return tuple(gb.exprs)

    def normal_form(self, f):
        f = sympy.expand(sympy.sympify(f))
        gb = self.groebner()
        if gb is None:
            return f
        return sympy.expand(gb.reduce(f)[1])

    def contains(self, f) -> bool:
        return self.normal_form(f) == 0

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def is_unit(self) -> bool:
        gb = self.groebner()
        if gb is None:
            return False
        return list(gb.exprs) == [sympy.Integer(1)]

    def to_json(self) -> dict:
        return {
            "ring": list(self.ring.variables),
            "order": self.ring.order,
            "generators": [str(g) for g in self.generators],
        }


def eliminate(ideal: Ideal, drop_vars) -> Ideal:
    """I intersected with the subring omitting drop_vars, via a lex basis
    with the dropped block ordered first."""
    drop = tuple(drop_vars)
    keep = tuple(v for v in ideal.ring.variables if v not in drop)
    if not drop:
        return Ideal.make(PolyRing(keep, ideal.ring.order), ideal.generators)
    if not ideal.generators:
        return Ideal.make(PolyRing(keep, ideal.ring.order), ())
    ordered = sympy.symbols(drop + keep)
    gb = sympy.groebner(list(ideal.generators), *ordered, order="lex")
    drop_syms = set(sympy.symbols(drop))
    kept = [g for g in gb.exprs if not (g.free_symbols & drop_syms)]
    return Ideal.make(PolyRing(keep, ideal.ring.order), kept)


def ideal_quotient(ideal: Ideal, f) -> Ideal:
    """(I : f) via the tag-variable intersection I ∩ (f), then exact
    division of each intersection generator by f."""
    f = sympy.expand(sympy.sympify(f))
    if f == 0:
        raise IdealError("quotient by zero")
    tag = sympy.Symbol("_q")
    names = ("_q",) + ideal.ring.variables
    big = Ideal.make(
        PolyRing(names, "lex"),
        [tag * g for g in ideal.generators] + [(1 - tag) * f],
    )
    inter = eliminate(big, ("_q",))
    syms = ideal.ring.symbols
    out = []
    for g in inter.generators:
        q, r = sympy.div(g, f, *syms)
        if sympy.expand(r) != 0:
            raise DivisionFailureError("intersection generator not divisible")
        out.append(sympy.expand(q))
    return Ideal.make(ideal.ring, out)


def hilbert_dimension(ideal: Ideal) -> int:
    """Krull dimension of ring/I: the largest variable subset meeting no
    leading monomial of the Gröbner basis."""
    gb = ideal.groebner()
    syms = ideal.ring.symbols
    if gb is None:
        return len(syms)
    if ideal.is_unit():
        raise UnitIdealError("the ideal is the whole ring")
    supports = []
    for p in gb.polys:
        exps = p.monoms(order=ideal.ring.order)[0]
        supports.append(frozenset(syms[i] for i, e in enumerate(exps) if e > 0))
    nvars = len(syms)
    for size in range(nvars, -1, -1):
        for subset in itertools.combinations(syms, size):
            ss = set(subset)
            if all(not (sup <= ss) for sup in supports):
                return size
    return 0


def determinantal_P(s: int) -> tuple[Ideal, Ideal, Ideal]:
    """The 2x2-minor ideal P_s in Q[u_1..u_s, T_1..T_s], together with
    the one-column variant P'_s and the recursive variant P''_s."""
    if s < 1:
        raise IdealError("s must be at least 1")
    names = tuple(f"u{i}" for i in range(1, s + 1)) + tuple(f"T{i}" for i in range(1, s + 1))
    ring = PolyRing(names, "grevlex")
    u = sympy.symbols(names[:s])
    t = sympy.symbols(names[s:])
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
    names = ("lam",) + p.ring.variables
    ring = PolyRing(names, "lex")
    lam = sympy.Symbol("lam")
    u = sympy.symbols(p.ring.variables[:s])
    t = sympy.symbols(p.ring.variables[s:])
    graph = Ideal.make(ring, [t[i] - lam * u[i] for i in range(s)])
    kernel = eliminate(graph, ("lam",))
    kernel = Ideal.make(p.ring, kernel.generators)
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
    global check on the chart, which implies the local statement."""
    out = rep.VerificationReport("regular-sequence", "ideal")
    current = Ideal.make(ideal.ring, ideal.generators)
    if current.is_unit():
        raise UnitIdealError("base ideal is the whole ring")
    for i, f in enumerate(seq, start=1):
        f = sympy.expand(sympy.sympify(f))
        extended = Ideal.make(ideal.ring, list(current.generators) + [f])
        if extended.is_unit():
            out.add(
                f"step-{i}",
                rep.REFUTED,
                "sequence element is a unit modulo its predecessors",
                details={"index": i, "element": str(f)},
            )
            return out
        quot = ideal_quotient(current, f)
        if not (current.contains_ideal(quot) and quot.contains_ideal(current)):
            out.add(
                f"step-{i}",
                rep.REFUTED,
                "sequence element is a zerodivisor modulo its predecessors",
                details={"index": i, "element": str(f)},
            )
            return out
        out.add(
            f"step-{i}",
            rep.PROVEN,
            "non-unit with trivial quotient: regular at this step",
            details={"index": i, "element": str(f)},
        )
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
    zsym = {(i, j): sympy.Symbol(f"z{i}_{j}") for i in range(1, d + 1) for j in range(1, d + 1)}
    asym = {(i, j): sympy.Symbol(f"a{i}_{j}") for i in range(1, d + 1) for j in range(1, m + 1)}
    rows = []
    for i in range(1, d + 1):
        vec = [sympy.Integer(0)] * alg.dim
        vi = alg.weight_vector(base[i - 1])
        for k in range(alg.dim):
            vec[k] = vec[k] + vi[k]
        for j in range(1, d + 1):
            for k in range(d):
                vec[k] = vec[k] + zsym[(i, j)] * sympy.Rational(
                    duals[j - 1][k].numerator, duals[j - 1][k].denominator
                )
        for j in range(1, m + 1):
            col = alg.t_dim + comp[j - 1]
            vec[col] = vec[col] + asym[(i, j)]
        rows.append(vec)
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            br = alg.bracket(rows[i], rows[j])
            for comp_val in br:
                e = sympy.expand(comp_val)
                if e != 0:
                    gens.append(e)
    ideal = Ideal.make(ring, gens)
    chart = ChartIdeal(alg, base, comp, tuple(tuple(dv) for dv in duals), ideal)
    # the origin is the base point itself and must satisfy everything
    zero = {s: 0 for s in ring.symbols}
    if any(sympy.expand(g).subs(zero) != 0 for g in ideal.generators):
        raise IdealError("chart generators do not vanish at the base point")
    return chart


def u_function(chart: ChartIdeal, i: int, gamma: Weight):
    """The linear form sum_j z_{i,j} gamma(t_j) over the dual torus basis."""
    if not (1 <= i <= chart.d):
        raise IdealError("row index out of range")
    acc = sympy.Integer(0)
    for j in range(1, chart.d + 1):
        val = gamma(chart.dual_basis[j - 1][: chart.alg.t_dim])
        if val != 0:
            acc = acc + chart.z_sym(i, j) * sympy.Rational(val.numerator, val.denominator)
    return sympy.expand(acc)


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
    ok = True
    for i in range(1, chart.d + 1):
        for j in range(1, chart.d + 1):
            expr = u_function(chart, i, gm) * chart.a_sym(j, chart.m) - u_function(
                chart, j, gm
            ) * chart.a_sym(i, chart.m)
            if not chart.ideal.contains(expr):
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
    cnames = tuple(f"c{k}" for k in range(1, d + 1))
    names = chart.ideal.ring.variables + cnames
    ring = PolyRing(names, "grevlex")
    csym = sympy.symbols(cnames)
    gens = list(chart.ideal.generators)
    # fiber point sum_k c_k w_k: its i-th dual-basis torus coordinate is
    # sum_k c_k z_{k,i}
    for i in subset:
        gens.append(
            sympy.expand(sum(csym[k - 1] * chart.z_sym(k, i) for k in range(1, d + 1)))
        )
    return hilbert_dimension(Ideal.make(ring, gens))


def chart_dimension(chart: ChartIdeal) -> int:
    return hilbert_dimension(chart.ideal)


def nilpotent_locus_dimension(chart: ChartIdeal) -> int:
    """Dimension of the set of chart points whose subspace sits entirely
    inside the nilpotent part (all torus coefficients zero)."""
    gens = list(chart.ideal.generators)
    for i in range(1, chart.d + 1):
        for j in range(1, chart.d + 1):
            gens.append(chart.z_sym(i, j))
    return hilbert_dimension(Ideal.make(chart.ideal.ring, gens))
