"""`ideals` keeps every polynomial as an element of its own ring
(`PolyRing`, `Poly`) from where it is built to the Gröbner kernel.
These tests pin it to the expression-based constructors it replaced, kept here as references:
the same generators in the same order, byte-equal JSON, the same
u-forms, dimensions and regular-sequence reports; and they check that
the chart and nilcone commands no longer pass through sympy
expressions."""

import itertools
import json
import sys
from fractions import Fraction

import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chart_reference import determinantal_P
from linalg_reference import solve
from orbitvar import cli, ideals, models, orbit
from orbitvar import report as rep
from orbitvar.ideals import (
    ChartIdeal,
    Ideal,
    IdealError,
    PolyRing,
    UnitIdealError,
    _Basis,
    _lie_order_complement,
    chart_dimension,
    chart_ideal,
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
from orbitvar.liealg import WeightedLieAlgebra
from orbitvar.linalg import Matrix
from sympy_reference import from_sympy, generators, symbols, to_sympy
from test_orbit import run_without_sympy


# -- the expression-based references -------------------------------------


class ReferenceIdeal:
    """An ideal kept as expanded sympy expressions, converted to the
    ring each time a basis or a remainder is needed; its basis is in
    `order`: "grevlex", "lex", or a weight vector for weighted
    grevlex."""

    def __init__(self, ring: PolyRing, gens, order="grevlex"):
        syms = set(symbols(ring))
        expanded = []
        for g in gens:
            e = sympy.expand(sympy.sympify(g))
            if not e.free_symbols <= syms:
                raise IdealError(f"generator {g} uses foreign variables")
            if e != 0:
                expanded.append(e)
        self.ring, self.generators, self.order, self._gb = ring, tuple(expanded), order, None

    def _basis(self) -> _Basis:
        if self._gb is None:
            n = len(self.ring.variables)
            weights = {"lex": None, "grevlex": (1,) * n}.get(self.order, self.order)
            self._gb = _Basis(n, [from_sympy(self.ring, g) for g in self.generators], weights)
        return self._gb

    # the basis `hilbert_dimension` reads; every order gives the dimension
    _order_free = _basis

    def groebner(self) -> tuple:
        return tuple((lm, self.ring(g)) for lm, g in self._basis().monic)

    def normal_form(self, f):
        f = sympy.expand(sympy.sympify(f))
        if not self.groebner():
            return f
        return to_sympy(self._basis().reduce(from_sympy(self.ring, f)))

    def contains(self, f) -> bool:
        return self.normal_form(f) == 0

    def contains_ideal(self, other) -> bool:
        return all(self.contains(g) for g in other.generators)

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and not any(gb[0][0])



def reference_eliminate(ideal: ReferenceIdeal, drop) -> ReferenceIdeal:
    drop = tuple(drop)
    keep = tuple(v for v in ideal.ring.variables if v not in drop)
    r = PolyRing(drop + keep)
    gb = _Basis(len(r.variables), [from_sympy(r, g) for g in ideal.generators]).monic
    kept = [to_sympy(r(g)) for lm, g in gb if not any(lm[: len(drop)])]
    return ReferenceIdeal(PolyRing(keep), kept, ideal.order)


def reference_quotient(ideal: ReferenceIdeal, f, basis=None) -> ReferenceIdeal:
    """(I : f) by the homogeneous colon from `basis`, (leading monomial,
    ring element) pairs, by default the reference's own basis."""
    f = sympy.expand(sympy.sympify(f))
    if f == 0:
        raise IdealError("quotient by zero")
    xs = symbols(ideal.ring)
    if not f.free_symbols <= set(xs):
        raise IdealError(f"{f} uses foreign variables")
    r, n = ideal.ring, len(xs)
    f = from_sympy(r, f)
    elems = [{m + (0,): c for m, c in g.items()} for _, g in (ideal.groebner() if basis is None else basis)]
    elems.append({(0,) * n + (1,): Fraction(1), **{m + (0,): -c for m, c in f.items()}})
    homogenized = []
    for e in elems:
        d = max(sum(m) for m in e)
        homogenized.append({m[:n] + (d - sum(m), m[n]): c for m, c in e.items()})
    out, powers = [], [r.one]
    for _, p in _Basis(n + 2, homogenized, (1,) * (n + 2)).monic:
        shift = 1 if all(m[-1] > 0 for m in p) else 0
        by_power: dict[int, dict] = {}
        for m, c in p.items():
            by_power.setdefault(m[-1] - shift, {})[m[:n]] = c
        g = r.zero
        for e, terms in by_power.items():
            while len(powers) <= e:
                powers.append(powers[-1] * f)
            g += r(terms) * powers[e]
        out.append(to_sympy(g))
    return ReferenceIdeal(ideal.ring, out, ideal.order)


def reference_regular_sequence_check(ideal: ReferenceIdeal, seq) -> rep.VerificationReport:
    out = rep.VerificationReport("regular-sequence", "ideal")
    current = ideal
    if current.is_unit():
        raise UnitIdealError("base ideal is the whole ring")
    for i, f in enumerate(seq, start=1):
        f = sympy.expand(sympy.sympify(f))
        extended = ReferenceIdeal(ideal.ring, list(current.generators) + [f], ideal.order)
        if extended.is_unit():
            out.add(f"step-{i}", rep.REFUTED, "sequence element is a unit modulo its predecessors",
                    details={"index": i, "element": str(f)})
            return out
        if not current.contains_ideal(reference_quotient(current, f)):
            out.add(f"step-{i}", rep.REFUTED, "sequence element is a zerodivisor modulo its predecessors",
                    details={"index": i, "element": str(f)})
            return out
        out.add(f"step-{i}", rep.PROVEN, "non-unit with trivial quotient: regular at this step",
                details={"index": i, "element": str(f)})
        current = extended
    return out


def reference_chart(alg: WeightedLieAlgebra, v0) -> ChartIdeal:
    """The chart ideal from `alg.bracket` on rows of sympy expressions."""
    base = next(r for r in orbit.group_fixed_points(alg) if r.subspace == v0).r_v_set
    d = alg.t_dim
    comp = _lie_order_complement(alg, base)
    m = len(comp)
    wmat = Matrix.from_rows([list(alg.weights[i].coords) for i in base])
    duals = [solve(wmat, [Fraction(int(k == j)) for k in range(d)]) for j in range(d)]
    names = tuple(f"z{i}_{j}" for i in range(1, d + 1) for j in range(1, d + 1)) + tuple(
        f"a{i}_{j}" for i in range(1, d + 1) for j in range(1, m + 1)
    )
    rows = []
    for i in range(1, d + 1):
        vec = [sympy.Rational(c.numerator, c.denominator) for c in alg.weight_vector(base[i - 1])]
        for j in range(1, d + 1):
            for k in range(d):
                vec[k] += sympy.Symbol(f"z{i}_{j}") * sympy.Rational(duals[j - 1][k].numerator, duals[j - 1][k].denominator)
        for j in range(1, m + 1):
            vec[d + comp[j - 1]] += sympy.Symbol(f"a{i}_{j}")
        rows.append(vec)
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            gens += [e for e in map(sympy.expand, alg.bracket(rows[i], rows[j])) if e != 0]
    ideal = ReferenceIdeal(PolyRing(names), gens)
    zero = {s: 0 for s in symbols(ideal.ring)}
    assert all(g.subs(zero) == 0 for g in ideal.generators)
    return ChartIdeal(alg, base, comp, tuple(tuple(dv) for dv in duals), ideal)


def reference_u_function(chart: ChartIdeal, i: int, gamma):
    acc = sympy.Integer(0)
    for j in range(1, chart.d + 1):
        val = gamma(chart.dual_basis[j - 1][: chart.alg.t_dim])
        if val != 0:
            acc = acc + to_sympy(chart.z(i, j)) * sympy.Rational(val.numerator, val.denominator)
    return sympy.expand(acc)


def reference_chart_relation(chart: ChartIdeal) -> bool:
    gm = chart.alg.weights[chart.complement[-1]]
    u = [reference_u_function(chart, i, gm) for i in range(1, chart.d + 1)]
    return all(
        chart.ideal.contains(u[i - 1] * to_sympy(chart.a(j, chart.m)) - u[j - 1] * to_sympy(chart.a(i, chart.m)))
        for i in range(1, chart.d + 1)
        for j in range(1, chart.d + 1)
    )


def reference_nilcone_ideal(chart: ChartIdeal) -> ReferenceIdeal:
    d = chart.d
    cnames = tuple(f"c{k}" for k in range(1, d + 1))
    csym = sympy.symbols(cnames)
    gens = list(chart.ideal.generators)
    for i in range(1, d + 1):
        gens.append(sympy.expand(sum(csym[k - 1] * to_sympy(chart.z(k, i)) for k in range(1, d + 1))))
    return ReferenceIdeal(PolyRing(chart.ideal.ring.variables + cnames), gens)


def reference_nilpotent_locus_ideal(chart: ChartIdeal) -> ReferenceIdeal:
    zs = [to_sympy(chart.z(i, j)) for i in range(1, chart.d + 1) for j in range(1, chart.d + 1)]
    return ReferenceIdeal(chart.ideal.ring, list(chart.ideal.generators) + zs)


def reference_determinantal_P(s: int) -> tuple:
    names = tuple(f"u{i}" for i in range(1, s + 1)) + tuple(f"T{i}" for i in range(1, s + 1))
    ring = PolyRing(names)
    u, t = sympy.symbols(names[:s]), sympy.symbols(names[s:])
    p = ReferenceIdeal(ring, [u[j] * t[k] - u[k] * t[j] for j in range(s) for k in range(j + 1, s)])
    p_prime = ReferenceIdeal(ring, [u[j] * t[0] - u[0] * t[j] for j in range(1, s)])
    rec = [u[j] * t[k] - u[k] * t[j] for j in range(s - 1) for k in range(j + 1, s - 1)]
    p_dbl = ReferenceIdeal(ring, rec + ([u[s - 1] * t[0] - u[0] * t[s - 1]] if s >= 2 else []))
    return p, p_prime, p_dbl


def reference_primality_crosscheck_P(s: int) -> rep.VerificationReport:
    out = rep.VerificationReport("ps-check", f"determinantal-P{s}")
    p = reference_determinantal_P(s)[0]
    if s == 1:
        out.add("kernel-equality", rep.PROVEN, "the one-variable case is the zero ideal")
        return out
    lam = sympy.Symbol("lam")
    u, t = sympy.symbols(p.ring.variables[:s]), sympy.symbols(p.ring.variables[s:])
    graph = ReferenceIdeal(PolyRing(("lam",) + p.ring.variables), [t[i] - lam * u[i] for i in range(s)], "lex")
    kernel = ReferenceIdeal(p.ring, reference_eliminate(graph, ("lam",)).generators)
    inc1, inc2 = p.contains_ideal(kernel), kernel.contains_ideal(p)
    out.add(
        "kernel-equality",
        rep.PROVEN if inc1 and inc2 else rep.REFUTED,
        "the minor ideal equals the kernel of the scaling parametrization, "
        "hence is prime as the kernel of a map into a domain",
        details={"kernel_in_P": inc1, "P_in_kernel": inc2},
    )
    return out


def as_json(ring: PolyRing, gens) -> str:
    """The ideal as {"ring", "generators"} JSON, each generator printed."""
    return json.dumps({"ring": list(ring.variables), "generators": [str(g) for g in gens]}, sort_keys=True)


def assert_same_ideal(new: Ideal, ref: ReferenceIdeal):
    assert generators(new) == ref.generators
    assert as_json(new.ring, new.polys) == as_json(ref.ring, ref.generators)


# -- the chart ideals of the builtins -------------------------------------

BUILTINS = ("sl2-borel", "borel-nilradical-A2", "borel-nilradical-A3", "heisenberg-3", "abelian:2", "abelian:3")
ALGEBRAS = {name: models.builtin(name) for name in BUILTINS}


def base_points():
    for name, alg in ALGEBRAS.items():
        for recd in orbit.group_fixed_points(alg):
            yield pytest.param(name, recd, id=f"{name}-{'-'.join(map(str, recd.r_v_set))}")


@pytest.mark.parametrize("name, recd", base_points())
def test_chart_matches_expression_reference(name, recd):
    alg = ALGEBRAS[name]
    chart, ref = chart_ideal(alg, recd.subspace), reference_chart(alg, recd.subspace)
    assert (chart.fixed_weights, chart.complement, chart.dual_basis) == (ref.fixed_weights, ref.complement, ref.dual_basis)
    assert_same_ideal(chart.ideal, ref.ideal)
    for gamma in alg.weights:
        assert i_gamma(chart, gamma) == i_gamma(ref, gamma)
        for i in range(1, chart.d + 1):
            u, u_ref = u_function(chart, i, gamma), reference_u_function(ref, i, gamma)
            assert to_sympy(u) == u_ref and str(u) == str(u_ref)
    assert chart_dimension(chart) == hilbert_dimension(ref.ideal)
    if chart.m >= 1:
        relation = verify_chart_relation(chart)
        assert (relation.checks[0].verdict == rep.PROVEN) == reference_chart_relation(ref)


@pytest.mark.parametrize("name, recd", base_points())
def test_nilcone_ideals_match_expression_reference(name, recd, monkeypatch):
    """The ideals whose dimensions `nilcone_dimension` and
    `nilpotent_locus_dimension` take, generator for generator."""
    alg = ALGEBRAS[name]
    chart, ref = chart_ideal(alg, recd.subspace), reference_chart(alg, recd.subspace)
    taken = []
    monkeypatch.setattr(ideals, "hilbert_dimension", lambda ideal: taken.append(ideal) or len(taken))
    nilcone_dimension(chart)
    nilpotent_locus_dimension(chart)
    assert_same_ideal(taken[0], reference_nilcone_ideal(ref))
    assert_same_ideal(taken[1], reference_nilpotent_locus_ideal(ref))


@pytest.mark.parametrize("name", ("sl2-borel", "borel-nilradical-A2", "heisenberg-3", "abelian:2", "abelian:3"))
def test_nilcone_dimensions_match_expression_reference(name):
    alg = ALGEBRAS[name]
    for recd in orbit.group_fixed_points(alg):
        chart, ref = chart_ideal(alg, recd.subspace), reference_chart(alg, recd.subspace)
        assert nilcone_dimension(chart) == hilbert_dimension(reference_nilcone_ideal(ref))
        assert nilpotent_locus_dimension(chart) == hilbert_dimension(reference_nilpotent_locus_ideal(ref))


@pytest.mark.parametrize("s", (1, 2, 3, 4, 5))
def test_determinantal_ideals_and_crosscheck_match_expression_reference(s):
    for new, ref in zip(determinantal_P(s), reference_determinantal_P(s)):
        assert_same_ideal(new, ref)
    assert primality_crosscheck_P(s).render_json() == reference_primality_crosscheck_P(s).render_json()


# -- regular sequences and quotients on drawn ideals -----------------------

X = sympy.symbols("x y z")
RING_NAMES = ("x", "y", "z")
COEFFS = st.integers(-2, 2).filter(bool)


def polynomials(max_degree: int, min_degree: int = 0, max_terms: int = 3):
    monomial = st.sampled_from(
        [e for e in itertools.product(range(max_degree + 1), repeat=3) if min_degree <= sum(e) <= max_degree]
    )
    term = st.builds(lambda c, e: c * X[0] ** e[0] * X[1] ** e[1] * X[2] ** e[2], COEFFS, monomial)
    return st.lists(term, min_size=1, max_size=max_terms).map(sympy.Add.fromiter)


ELEMENTS = st.one_of(
    polynomials(1, min_degree=1),
    st.builds(lambda p, c: p + c, polynomials(1, min_degree=1), COEFFS),  # not homogeneous
    polynomials(2),
    st.builds(lambda p: p / 2, polynomials(1, min_degree=1)),
)
IDEAL_INPUTS = st.tuples(st.sampled_from(("grevlex", "lex")), st.lists(polynomials(2), min_size=1, max_size=3))


def both_checks(order, gens, seq):
    """The report of `regular_sequence_check` on the text of the
    expressions and on ring elements, and that of the reference with its
    bases in order, as JSON; None when the base ideal is the unit ideal
    (all three raise then)."""
    ring = PolyRing(RING_NAMES)
    new, ref = Ideal.make(ring, [str(g) for g in gens]), ReferenceIdeal(ring, gens, order)
    if ref.is_unit():
        for run in (lambda: regular_sequence_check(new, seq), lambda: reference_regular_sequence_check(ref, seq)):
            with pytest.raises(UnitIdealError):
                run()
        return None
    as_ring = [from_sympy(ring, f) for f in seq]
    return (
        regular_sequence_check(new, [str(f) for f in seq]).render_json(),
        regular_sequence_check(Ideal.make(ring, [from_sympy(ring, g) for g in gens]), as_ring).render_json(),
        reference_regular_sequence_check(ref, seq).render_json(),
    )


@settings(max_examples=150, deadline=None)
@given(IDEAL_INPUTS, st.lists(ELEMENTS, min_size=1, max_size=3))
def test_regular_sequence_reports_match_expression_reference(ideal_input, seq):
    order, gens = ideal_input
    assume(all(sympy.expand(f) != 0 for f in seq))  # the reference raises on 0
    out = both_checks(order, gens, seq)
    if out is not None:
        assert out[0] == out[1] == out[2]


@settings(max_examples=150, deadline=None)
@given(IDEAL_INPUTS, ELEMENTS)
def test_quotient_generators_match_expression_reference(ideal_input, f):
    """Generator for generator against the reference from the basis the
    ideal answers from (`Ideal.groebner`), and as an ideal against the
    reference from the basis in the drawn order."""
    order, gens = ideal_input
    assume(sympy.expand(f) != 0)
    ring = PolyRing(RING_NAMES)
    texts = [str(g) for g in gens]
    new = ideal_quotient(Ideal.make(ring, texts), str(f))
    ref = reference_quotient(ReferenceIdeal(ring, gens), f, Ideal.make(ring, texts).groebner())
    assert_same_ideal(new, ref)
    assert_same_ideal(ideal_quotient(Ideal.make(ring, texts), from_sympy(ring, f)), ref)
    in_order = reference_quotient(ReferenceIdeal(ring, gens, order), f)
    assert all(in_order.contains(to_sympy(g)) for g in new.polys)
    assert all(new.contains(str(g)) for g in in_order.generators)


x, y, z = X


@pytest.mark.parametrize(
    "gens, seq, verdicts",
    (
        ([x * y], [x], [rep.REFUTED]),  # a zerodivisor
        ([x * y], [x + y, x], [rep.PROVEN, rep.REFUTED]),  # x kills x once y = -x
        ([x**2], [x - 1], [rep.REFUTED]),  # a unit step
        ([x * y - 1], [x + y, x], [rep.PROVEN, rep.REFUTED]),  # not homogeneous; then x^2 + 1 and x
        ([x * y - z], [x - 1, y / 2 + z], [rep.PROVEN, rep.PROVEN]),
        ([x**2 - y], [z, x, y], [rep.PROVEN, rep.PROVEN, rep.REFUTED]),
    ),
    ids=("zerodivisor", "zerodivisor-second", "unit", "inhomogeneous-unit", "inhomogeneous", "nilpotent-third"),
)
@pytest.mark.parametrize("order", ("grevlex", "lex"))
def test_fixed_regular_sequences_match_expression_reference(gens, seq, verdicts, order):
    new, ring_elements, ref = both_checks(order, gens, seq)
    assert new == ring_elements == ref
    assert [c["verdict"] for c in json.loads(new)["checks"]] == verdicts


@pytest.mark.parametrize("gi", (3, 4, 5))
def test_a3_345_regular_sequences_match_expression_reference(gi):
    alg = ALGEBRAS["borel-nilradical-A3"]
    recd = next(r for r in orbit.group_fixed_points(alg) if r.r_v_set == (3, 4, 5))
    chart, ref = chart_ideal(alg, recd.subspace), reference_chart(alg, recd.subspace)
    gamma = alg.weights[gi]
    seq = [u_function(chart, i, gamma) for i in i_gamma(chart, gamma)]
    assert seq
    new = regular_sequence_check(chart.ideal, seq)
    assert not new.has_refutation()
    assert new.render_json() == reference_regular_sequence_check(ref.ideal, [to_sympy(u) for u in seq]).render_json()


# -- a zero element --------------------------------------------------------


@pytest.mark.parametrize("seq", (["0"], [0], ["x", "x - x"]), ids=("string", "int", "after-a-step"))
def test_zero_element_is_a_zerodivisor(seq):
    ideal = Ideal.make(PolyRing(RING_NAMES), ["x*y - z**2"])
    out = regular_sequence_check(ideal, seq)
    last = out.checks[-1]
    assert (last.name, last.verdict) == (f"step-{len(seq)}", rep.REFUTED)
    assert last.claim == "sequence element is a zerodivisor modulo its predecessors"
    assert last.details == {"index": len(seq), "element": "0"}
    assert [c.verdict for c in out.checks[:-1]] == [rep.PROVEN] * (len(seq) - 1)


def test_quotient_by_zero_still_raises():
    ideal = Ideal.make(PolyRing(RING_NAMES), ["x*y"])
    for f in ("0", 0, PolyRing(RING_NAMES).zero):
        with pytest.raises(IdealError, match="quotient by zero"):
            ideal_quotient(ideal, f)


# -- one representation: no sympy expressions between the bracket and the kernel


class Probe:
    """Counts, while installed: calls of `ideals._read`; calls of
    `WeightedLieAlgebra.bracket` made by `chart_ideal` itself; calls of
    `Expr.expand` made anywhere inside `Ideal.groebner` or `chart_ideal`."""

    def __init__(self, monkeypatch):
        self.read = self.bracket_from_chart = self.expand_inside = 0
        self.depth = 0
        chart_code = ideals.chart_ideal.__code__
        read, bracket, expand = ideals._read, WeightedLieAlgebra.bracket, sympy.Expr.expand

        def read_probe(ring, text):
            self.read += 1
            return read(ring, text)

        def guarded(fn):
            def wrapper(*args, **kwargs):
                self.depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.depth -= 1

            return wrapper

        def bracket_probe(alg, a, b):
            self.bracket_from_chart += sys._getframe(1).f_code is chart_code
            return bracket(alg, a, b)

        def expand_probe(e, *args, **kwargs):
            self.expand_inside += self.depth > 0
            return expand(e, *args, **kwargs)

        monkeypatch.setattr(ideals, "_read", read_probe)
        monkeypatch.setattr(ideals, "chart_ideal", guarded(ideals.chart_ideal))
        monkeypatch.setattr(Ideal, "groebner", guarded(Ideal.groebner))
        monkeypatch.setattr(WeightedLieAlgebra, "bracket", bracket_probe)
        monkeypatch.setattr(sympy.Expr, "expand", expand_probe)


def sequence_lengths(report) -> int:
    return sum(c.details["length"] for c in report.checks if c.name.startswith("regular-sequence-"))


def test_chart_and_nilcone_commands_stay_in_the_ring(monkeypatch):
    alg = models.builtin("borel-nilradical-A2")
    probe = Probe(monkeypatch)
    chart_report = cli.cmd_chart(alg, 0)
    nilcone_report = cli.cmd_nilcone(alg, 0)
    # the u-forms reach regular_sequence_check as ring elements, never converted
    assert probe.read == 0 < sequence_lengths(chart_report)
    assert probe.bracket_from_chart == 0
    assert probe.expand_inside == 0
    assert not chart_report.has_refutation() and not nilcone_report.has_refutation()


def test_a3_library_steps_stay_in_the_ring(monkeypatch):
    """The `chart` steps at the A3 base point (0,3,5), on a freshly loaded
    algebra, so that `chart_ideal` enumerates the fixed points too."""
    alg = models.builtin("borel-nilradical-A3")
    base = (0, 3, 5)
    v0 = orbit.Subspace.from_rows(alg, [alg.weight_vector(i) for i in base])
    probe = Probe(monkeypatch)
    chart = ideals.chart_ideal(alg, v0)
    assert chart_dimension(chart) == alg.n
    assert not verify_chart_relation(chart).has_refutation()
    elements = 0
    for gi in base:
        idx = i_gamma(chart, alg.weights[gi])
        if idx:
            seq = [u_function(chart, i, alg.weights[gi]) for i in idx]
            elements += len(seq)
            assert not regular_sequence_check(chart.ideal, seq).has_refutation()
    assert probe.read == 0 < elements
    assert probe.bracket_from_chart == 0
    assert probe.expand_inside == 0


def test_chart_commands_and_the_a3_library_route_never_import_sympy(tmp_path):
    """`chart`, `nilcone` and `ps-check` on A2 and `heisenberg-3`, and the
    benchmark's A3 library route at base point (0,3,5), in a fresh
    interpreter."""
    report = str(tmp_path / "report")
    run_without_sympy(
        f"""
from orbitvar import cli, ideals, models, orbit
for name in ("borel-nilradical-A2", "heisenberg-3"):
    for command in ("chart", "nilcone", "ps-check"):
        assert cli.main([command, "--builtin", name, "--output", {report!r}]) == 0
alg = models.builtin("borel-nilradical-A3")
base = (0, 3, 5)
chart = ideals.chart_ideal(alg, orbit.Subspace.from_rows(alg, [alg.weight_vector(i) for i in base]))
assert ideals.chart_dimension(chart) == alg.n
assert not ideals.verify_chart_relation(chart).has_refutation()
steps = 0
for gi in base:
    idx = ideals.i_gamma(chart, alg.weights[gi])
    if idx:
        seq = [ideals.u_function(chart, i, alg.weights[gi]) for i in idx]
        out = ideals.regular_sequence_check(chart.ideal, seq)
        assert not out.has_refutation()
        steps += len(out.checks)
assert steps > 0
"""
    )
