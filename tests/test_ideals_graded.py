"""Order-free questions about an `Ideal` (dimension, unit ideal,
membership) are answered from one basis in a weighted grevlex order for
a positive grading the ideal respects, and a sequence element is judged
regular by Hilbert-series numerators instead of a colon.  These tests
pin both routes to the ones they replaced: the grevlex basis, and the
colon (J : f) ⊆ J.  Each step of a sequence grows J's basis by f
(a `_Basis` with a seed) and reuses J's numerator; that route is
pinned to the bases and numerators computed from the generators."""

import itertools
import operator
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitvar import ideals, models, orbit
from orbitvar import report as rep
from orbitvar.ideals import (
    ChartIdeal,
    Ideal,
    IdealError,
    PolyRing,
    UnitIdealError,
    _Basis,
    _extended,
    _grading,
    _hilbert_numerator,
    _parse,
    _times_one_minus,
    chart_ideal,
    eliminate,
    hilbert_dimension,
    i_gamma,
    ideal_quotient,
    nilcone_dimension,
    regular_sequence_check,
    u_function,
)
from sympy_reference import to_sympy
from test_liealg_sparse import sampled_from

# -- the grevlex and colon routes, kept as references ----------------------


def grevlex(ideal: Ideal) -> _Basis:
    """The ideal's reduced basis in (unweighted) grevlex."""
    n = len(ideal.ring.variables)
    return _Basis(n, ideal.polys, (1,) * n)


def grevlex_view(ideal: Ideal):
    """The ideal as `hilbert_dimension` reads it, with its grevlex basis
    in place of `_order_free`'s."""
    basis = grevlex(ideal)
    return SimpleNamespace(ring=ideal.ring, _order_free=lambda: basis)


def is_unit(basis: _Basis) -> bool:
    return len(basis.lms) == 1 and not any(basis.lms[0])


def colon_verdicts(ideal: Ideal, seq) -> list:
    """The verdict of each step of `regular_sequence_check`, decided by
    grevlex bases and colons."""
    out, current, gb = [], ideal, grevlex(ideal)
    for f in seq:
        extended = Ideal.make(ideal.ring, current.polys + (f,))
        extended_gb = grevlex(extended)
        if is_unit(extended_gb):
            return out + ["unit"]
        if not f or any(gb.reduce(g) for g in ideal_quotient(current, f).polys):
            return out + ["zerodivisor"]
        out.append("regular")
        current, gb = extended, extended_gb
    return out


def verdicts(report: rep.VerificationReport) -> list:
    names = {
        "sequence element is a unit modulo its predecessors": "unit",
        "sequence element is a zerodivisor modulo its predecessors": "zerodivisor",
        "non-unit with trivial quotient: regular at this step": "regular",
    }
    return [names[c.claim] for c in report.checks]


def no_colon():
    return mock.patch.object(ideals, "ideal_quotient", side_effect=AssertionError("a colon was computed"))


def homogeneous(p, w) -> bool:
    return len({sum(map(operator.mul, w, m)) for m in p}) <= 1


# -- drawn weighted-homogeneous ideals --------------------------------------

COEFFS = st.sampled_from((-3, -2, -1, 1, 2, 3))


@st.composite
def graded_case(draw):
    """A ring in 2-4 variables with weights in 1..3, not all equal, the monomials of
    weighted degree 1..3 by degree, and 1-3 generators, each homogeneous
    of its own degree: the cost of every basis is bounded by the size of
    those degrees."""
    n = draw(st.integers(2, 4))
    w = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n).filter(lambda w: len(set(w)) > 1)))
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    by_degree: dict[int, list] = {}
    for m in itertools.product(range(4), repeat=n):
        d = sum(map(operator.mul, w, m))
        if 1 <= d <= 3:
            by_degree.setdefault(d, []).append(m)
    gens = [draw_homogeneous(draw, ring, by_degree) for _ in range(draw(st.integers(1, 3)))]
    return ring, w, by_degree, gens


def draw_homogeneous(draw, ring, by_degree, degree=None):
    d = draw(sampled_from(tuple(sorted(by_degree)))) if degree is None else degree
    pool = tuple(by_degree[d])
    monomials = draw(st.lists(sampled_from(pool), min_size=min(2, len(pool)), max_size=3, unique=True))
    return ring({m: draw(COEFFS) for m in monomials})


@settings(max_examples=150)
@given(graded_case(), st.data())
def test_weighted_route_matches_grevlex(case, data):
    ring, w, by_degree, gens = case
    ideal = Ideal.make(ring, gens)
    grading = ideal.grading
    # the drawn weights exist, so a grading is found, and it is one
    assert grading is not None and min(grading) >= 1
    assert all(homogeneous(p, grading) for p in ideal.polys)
    gb = grevlex(ideal)
    assert ideal.is_unit() == is_unit(gb)
    if ideal.is_unit():
        for view in (ideal, grevlex_view(ideal)):
            with pytest.raises(UnitIdealError):
                hilbert_dimension(view)
    else:
        assert hilbert_dimension(ideal) == hilbert_dimension(grevlex_view(ideal))
    # Macaulay: the initial ideals of both orders have one Hilbert series
    for weights in {w, grading}:
        assert _hilbert_numerator([lm for lm, _ in ideal.groebner()], weights) == _hilbert_numerator(gb.lms, weights)
    # an element of the ideal, the same plus a homogeneous polynomial,
    # and a homogeneous polynomial
    member = ring.zero
    for g in ideal.polys:
        member += draw_homogeneous(data.draw, ring, by_degree) * g
    other = draw_homogeneous(data.draw, ring, by_degree)
    assert ideal.contains(member)
    for p in (member, member + other, other):
        assert ideal.contains(p) == ideal.contains(str(to_sympy(p))) == (not gb.reduce(p))


@settings(max_examples=150)
@given(graded_case(), st.data())
def test_normal_form_and_contains_read_the_one_basis(case, data):
    """`groebner()` is `_order_free`'s basis of the image J', in the
    weighted order of the ideal's grading, lifted to the ring, after one
    element x - NF(φ(x)) per solved variable x; and `normal_form(f)` is
    0 exactly when `contains(f)`, for f a ring element, a sympy
    expression's text or the element's own text; the basis elements
    read back from their text."""
    ring, w, by_degree, gens = case
    ideal = Ideal.make(ring, gens)
    sub, basis = ideal._substitution(), ideal._order_free()
    solved = () if basis.is_unit() else tuple(sub.images)
    assert [lm for lm, _ in ideal.groebner()[: len(solved)]] == [next(iter(ring.gens[x])) for x in solved]
    assert ideal.groebner()[len(solved) :] == tuple((sub.lift(e), ideal._lift(g)) for e, g in basis.monic)
    assert tuple(_parse(ring, str(g)) for _, g in ideal.groebner()) == tuple(g for _, g in ideal.groebner())
    member = ring.zero
    for g in ideal.polys:
        member += draw_homogeneous(data.draw, ring, by_degree) * g
    other = draw_homogeneous(data.draw, ring, by_degree)
    assert ideal.contains(member)
    gb = grevlex(ideal)
    for p in (member, member + other, other):
        for f in (p, str(to_sympy(p)), str(p)):
            assert (ideal.normal_form(f) == 0) == ideal.contains(f) == (not gb.reduce(p))


@settings(max_examples=150)
@given(graded_case(), st.data())
def test_hilbert_series_verdicts_match_colons(case, data):
    """Sequences of homogeneous elements, zeros and units included, on a
    graded ideal: the same verdicts as the colon route, and no colon."""
    ring, w, by_degree, gens = case
    ideal = Ideal.make(ring, gens)
    kinds = data.draw(st.lists(st.sampled_from(("homogeneous",) * 4 + ("zero", "one")), min_size=1, max_size=3))
    r = ring
    seq = [draw_homogeneous(data.draw, ring, by_degree) if k == "homogeneous" else getattr(r, k) for k in kinds]
    if is_unit(grevlex(ideal)):
        with pytest.raises(UnitIdealError):
            regular_sequence_check(ideal, seq)
        return
    with no_colon():
        report = regular_sequence_check(ideal, seq)
    assert verdicts(report) == colon_verdicts(Ideal.make(ring, gens), seq)


def scratch_verdicts(ideal: Ideal, seq) -> list:
    """The verdict of each step of `regular_sequence_check`, with each
    J + (f) a new ideal whose basis is computed from its generators, and
    both numerators computed afresh."""
    out, current = [], Ideal.make(ideal.ring, ideal.polys)
    for f in seq:
        extended = Ideal.make(ideal.ring, current.polys + (f,))
        if extended.is_unit():
            return out + ["unit"]
        w = extended.grading
        if not f:
            regular = False
        elif w is None:
            regular = current.contains_ideal(ideal_quotient(current, f))
        else:
            before = _hilbert_numerator([lm for lm, _ in current.groebner()], w)
            after = _hilbert_numerator([lm for lm, _ in extended.groebner()], w)
            regular = after == _times_one_minus(before, sum(map(operator.mul, w, next(iter(f)))))
        if not regular:
            return out + ["zerodivisor"]
        out.append("regular")
        current = extended
    return out


def drawn_sequence(data, ring, by_degree) -> list:
    kinds = data.draw(st.lists(st.sampled_from(("homogeneous",) * 4 + ("zero", "one")), min_size=1, max_size=3))
    return [draw_homogeneous(data.draw, ring, by_degree) if k == "homogeneous" else getattr(ring, k) for k in kinds]


@settings(max_examples=150)
@given(graded_case(), st.data())
def test_seeded_kernel_matches_the_kernel_from_generators(case, data):
    """`_Basis(n, [f], seed=G)`, G the reduced basis of polys, has the
    elements of `_Basis(n, polys + [f])`, along a sequence of f's, in lex,
    in grevlex and in weighted grevlex by the drawn weights."""
    ring, w, by_degree, gens = case
    weights = data.draw(st.sampled_from((None, (1,) * len(w), w)))
    polys = list(gens)
    basis = _Basis(len(w), polys, weights)
    for f in drawn_sequence(data, ring, by_degree):
        polys.append(f)
        basis = _Basis(len(w), [f], seed=basis)
        assert basis.elems == _Basis(len(w), polys, weights).elems


@settings(max_examples=150)
@given(graded_case(), st.data())
def test_sequence_steps_match_the_route_from_generators(case, data):
    """The verdicts of `regular_sequence_check` are those of the route
    that computes every basis and numerator afresh; and each J + (f) of
    `_extended` keeps J's substitution, its basis is that of its image
    generators computed from them, and it has the numerators of the
    ideal built from its generators, which solves its own."""
    ring, w, by_degree, gens = case
    ideal = Ideal.make(ring, gens)
    seq = drawn_sequence(data, ring, by_degree)
    if ideal.is_unit():
        with pytest.raises(UnitIdealError):
            regular_sequence_check(ideal, seq)
        return
    assert verdicts(regular_sequence_check(Ideal.make(ring, gens), seq)) == scratch_verdicts(ideal, seq)
    current = ideal
    for f in seq:
        extended, fresh = _extended(current, f), Ideal.make(ring, current.polys + (f,))
        assert extended.polys == fresh.polys
        sub = extended._substitution()
        assert sub.images == current._substitution().images
        weights = tuple(extended._free_weights[i] for i in sub.kept)
        assert extended._order_free().elems == _Basis(len(sub.kept), sub.rest, weights).elems
        for weights in {w, fresh.grading or w}:
            assert extended._numerator(weights) == fresh._numerator(weights)
        if extended.is_unit():
            break
        current = extended


def kernel_runs(monkeypatch) -> list:
    """Record every run of the Gröbner kernel, as the length of its seed."""
    calls = []
    real = ideals._groebner
    monkeypatch.setattr(ideals, "_groebner", lambda polys, order, seed=(): calls.append(len(seed)) or real(polys, order, seed))
    return calls


def test_builtin_sequence_steps_grow_the_chart_basis(monkeypatch):
    """On the A3 charts every step of a u-form sequence grows the basis
    already held, and no extension is computed from its generators."""
    alg = ALGEBRAS["borel-nilradical-A3"]
    calls = kernel_runs(monkeypatch)
    for recd in orbit.group_fixed_points(alg):
        chart = chart_ideal(alg, recd.subspace)
        chart.ideal.is_unit()
        for gi in recd.r_v_set:
            seq = [u_function(chart, i, alg.weights[gi]) for i in i_gamma(chart, alg.weights[gi])]
            del calls[:]
            assert verdicts(regular_sequence_check(chart.ideal, seq)) == ["regular"] * len(seq)
            assert len(calls) == len(seq) and all(calls)


def test_one_kernel_run_per_ideal(monkeypatch):
    """An `Ideal` computes its one basis once, whatever it is asked, and
    `eliminate` and `ideal_quotient` (of an ideal whose basis is held)
    each run the kernel once; so does an ideal with a generator
    solved."""
    calls = kernel_runs(monkeypatch)
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens
    ideal = Ideal.make(ring, [x * y - z**2, x**2 - y * z])
    assert not ideal.is_unit()
    assert ideal.contains(x * (x * y - z**2)) and not ideal.contains(x)
    assert ideal.normal_form(x**3) == z**3
    assert len(ideal.groebner()) == 3
    assert hilbert_dimension(ideal) == 1
    assert ideal._numerator((1, 1, 1)) == {0: 1, 2: -2, 4: 1}
    assert ideal.contains_ideal(ideal) and not ideal.is_unit()
    assert len(calls) == 1
    del calls[:]
    assert [str(g) for g in eliminate(ideal, ("z",)).polys] == ["x**4 - x*y**3"]
    assert len(calls) == 1
    del calls[:]
    assert ideal_quotient(ideal, x).polys == (y**2 - x * z, y * z - x**2, z**2 - x * y)
    assert len(calls) == 1
    # with a generator solved first: one run, on the image in y and z
    del calls[:]
    solved = Ideal.make(ring, [x * y - z**2, x - y])
    assert not solved.is_unit() and solved.contains(y**2 - z**2) and not solved.contains(x)
    assert solved.normal_form(x**2) == z**2 and len(solved.groebner()) == 2
    assert hilbert_dimension(solved) == 1 and solved._numerator((1, 1, 1)) == {0: 1, 1: -1, 2: -1, 3: 1}
    assert len(calls) == 1


# -- the pure-Python renderer against sympy's printer ------------------------

RATIONAL_COEFFS = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@settings(max_examples=300)
@given(graded_case(), st.data())
def test_rendering_matches_sympy_on_drawn_polynomials(case, data):
    """`str` of a ring element, as reports print it, is sympy's `str`:
    on the drawn generators, and on sums of their monomials and the
    constant with rational coefficients, negated too."""
    ring, w, by_degree, gens = case
    monomials = [(0,) * len(w)] + [m for ms in by_degree.values() for m in ms]
    p = ring(data.draw(st.dictionaries(st.sampled_from(monomials), RATIONAL_COEFFS, max_size=4)))
    for f in (*gens, p, -p):
        assert str(f) == str(to_sympy(f))


@pytest.mark.parametrize(
    "text",
    (
        "0",
        "3/2",
        "-x",
        "-x**2 + y",  # a negative lead
        "3*x/2 - y/3 + 5*z**2/7",  # rational coefficients
        "2 - x",  # a positive constant with one negative term: the constant first
        "2 - x**3/5",
        "-x*y + 2",  # not when the term has two variables
        "-x + y + 2",  # nor with more terms
        "x - 2",
        "x*y**2*z - x**3 + z",
    ),
)
def test_rendering_matches_sympy_on_fixed_polynomials(text):
    ring = PolyRing(("x", "y", "z"))
    f = _parse(ring, text)
    assert str(f) == str(to_sympy(f)) == str(sympy.expand(sympy.sympify(text)))


@settings(max_examples=200)
@given(st.data())
def test_rendering_sorts_variables_by_name_as_sympy_does(data):
    """Names that sort differently as strings and as indices, upper case
    before lower case."""
    ring = PolyRing(("z1_2", "z1_10", "a2_1", "T1", "lam", "c1"))
    monomials = [m for m in itertools.product(range(3), repeat=6) if sum(m) <= 2]
    f = ring(data.draw(st.dictionaries(st.sampled_from(monomials), RATIONAL_COEFFS, max_size=5)))
    assert str(f) == str(to_sympy(f))


x, y, z = PolyRing(("x", "y", "z")).gens


@pytest.mark.parametrize(
    "gens, seq, expected, graded",
    (
        ([x * y], [x], ["zerodivisor"], True),
        ([x**2 - y], [z, x, y], ["regular", "regular", "zerodivisor"], True),  # weights (1, 2, 1)
        ([x**3 - y**2], [x, z], ["regular", "regular"], True),  # weights (2, 3, 1)
        ([x**3 - y**2], [x, y], ["regular", "zerodivisor"], True),  # y^2 in (x, x^3 - y^2)
        ([x**2 - y], [1], ["unit"], True),
        ([x**2 - y], [0], ["zerodivisor"], True),
        ([x * y - 1], [x + y, x], ["regular", "unit"], False),  # no positive grading
        ([x**2 - y, y - x], [z], ["regular"], False),  # x^2 - x forces w_x = 0
    ),
    ids=("zerodivisor", "nilpotent-third", "cusp", "cusp-zerodivisor", "unit", "zero", "no-grading", "no-grading-2"),
)
def test_fixed_sequences(gens, seq, expected, graded):
    ring = PolyRing(("x", "y", "z"))
    ideal = Ideal.make(ring, gens)
    assert (ideal.grading is not None) == graded
    calls = []
    real = ideal_quotient
    with mock.patch.object(ideals, "ideal_quotient", side_effect=lambda *a: calls.append(a) or real(*a)):
        report = regular_sequence_check(ideal, seq)
    assert verdicts(report) == expected == colon_verdicts(Ideal.make(ring, gens), [_parse(ring, f) for f in seq])
    # a colon only where the extended ideal has no positive grading
    assert bool(calls) != graded


def test_gradings():
    ring = PolyRing(("x", "y", "z"))

    def grading(gens):
        return _grading(Ideal.make(ring, gens).polys, 3)

    assert grading([x * y - z**2, x + y]) == (1, 1, 1)
    assert grading([x**2 - y]) == (1, 2, 1)
    assert grading([x**3 - y**2, z]) == (2, 3, 2)  # (1, 3/2, 1) scaled to integers
    assert grading([x * y - z**3]) is not None
    assert grading([x * y - 1]) is None
    assert grading([x - y, y - x**2]) is None
    assert grading([]) == (1, 1, 1)


def test_zero_ideal_membership():
    ring = PolyRing(("x", "y"))
    x_, y_ = ring.gens
    for gens in ([], ["0"]):
        zero = Ideal.make(ring, gens)
        assert zero.groebner() == ()
        assert zero.contains(ring(0)) and zero.contains("0")
        assert not zero.contains(x_ * y_) and not zero.contains("x*y")
        assert zero.contains_ideal(zero) and not zero.contains_ideal(Ideal.make(ring, [x_]))
        assert hilbert_dimension(zero) == 2


@pytest.mark.parametrize(
    "gens, weights, numerator",
    (
        ([], (1, 1), {0: 1}),
        ([(1, 0)], (1, 1), {0: 1, 1: -1}),
        ([(0, 0)], (1, 1), {}),  # the zero ring
        ([(2, 0), (1, 1), (0, 2)], (1, 1), {0: 1, 2: -3, 3: 2}),  # (x, y)^2
        ([(1, 1)], (2, 3), {0: 1, 5: -1}),
        ([(2, 0), (1, 1)], (1, 2), {0: 1, 2: -1, 3: -1, 4: 1}),  # x (x, y): (1 - t) + t (1 - t)(1 - t^2)
    ),
)
def test_hilbert_numerators(gens, weights, numerator):
    assert _hilbert_numerator(gens, weights) == numerator


# -- every builtin base point ------------------------------------------------

BUILTINS = ("sl2-borel", "borel-nilradical-A2", "borel-nilradical-A3", "heisenberg-3", "abelian:2", "abelian:3")
ALGEBRAS = {name: models.builtin(name) for name in BUILTINS}


def base_points():
    for name, alg in ALGEBRAS.items():
        for recd in orbit.group_fixed_points(alg):
            yield pytest.param(name, recd, id=f"{name}-{'-'.join(map(str, recd.r_v_set))}")


@pytest.mark.parametrize("name, recd", base_points())
def test_builtin_charts_match_grevlex_and_colons(name, recd, monkeypatch):
    alg = ALGEBRAS[name]
    chart = chart_ideal(alg, recd.subspace)
    ideal = chart.ideal
    assert hilbert_dimension(ideal) == hilbert_dimension(grevlex_view(ideal))
    for gamma in alg.weights:
        seq = [u_function(chart, i, gamma) for i in i_gamma(chart, gamma)]
        if seq:
            with no_colon():
                report = regular_sequence_check(ideal, seq)
            assert verdicts(report) == colon_verdicts(chart_ideal(alg, recd.subspace).ideal, seq)
    taken = []
    monkeypatch.setattr(ideals, "hilbert_dimension", lambda ideal: taken.append(ideal) or 0)
    nilcone_dimension(chart)
    monkeypatch.undo()
    nilcone = taken[0]
    assert nilcone.grading is not None
    assert hilbert_dimension(nilcone) == hilbert_dimension(grevlex_view(nilcone))


def test_a3_345_chart_takes_the_weighted_basis():
    """The image of the A3 chart ideal at (3,4,5), 7 of its 18
    generators solved, takes the weighted basis of the chart's grading
    on the 11 variables left."""
    alg = ALGEBRAS["borel-nilradical-A3"]
    recd = next(r for r in orbit.group_fixed_points(alg) if r.r_v_set == (3, 4, 5))
    ideal = chart_ideal(alg, recd.subspace).ideal
    # z1_*, z2_* -> 2, z3_* -> 3, a1_*, a2_* -> 1, a3_* -> 2
    assert ideal.grading == (2,) * 6 + (3,) * 3 + (1,) * 6 + (2,) * 3
    sub, basis = ideal._substitution(), ideal._order_free()
    assert (len(ideal.polys), len(sub.images), len(sub.kept)) == (18, 7, 11)
    assert basis.order.weights == tuple(ideal.grading[i] for i in sub.kept)
    n = len(sub.kept)
    assert len(basis.elems) == 11 and len(_Basis(n, sub.rest, (1,) * n).elems) == 38
    assert len(ideal.groebner()) == 7 + 11
    assert len(grevlex(ideal).elems) == 57
    assert hilbert_dimension(ideal) == hilbert_dimension(grevlex_view(ideal)) == 6


@pytest.mark.parametrize("name", ("sl2-borel", "borel-nilradical-A2", "heisenberg-3", "abelian:3"))
def test_standard_grading_reuses_the_grevlex_basis(name):
    """Where the grading is the total degree, the image basis is the
    grevlex basis of the image generators in the variables left."""
    alg = ALGEBRAS[name]
    for recd in orbit.group_fixed_points(alg):
        ideal = chart_ideal(alg, recd.subspace).ideal
        assert ideal.grading == (1,) * len(ideal.ring.variables)
        sub = ideal._substitution()
        n = len(sub.kept)
        assert ideal._order_free().order.weights == (1,) * n
        assert ideal._order_free().elems == _Basis(n, sub.rest, (1,) * n).elems


# -- chart indices ---------------------------------------------------------


def test_chart_indices_out_of_range_raise():
    alg = ALGEBRAS["borel-nilradical-A2"]
    chart: ChartIdeal = chart_ideal(alg, orbit.group_fixed_points(alg)[0].subspace)
    assert (chart.d, chart.m) == (2, 1)
    assert str(to_sympy(chart.z(2, 2))) == "z2_2" and str(to_sympy(chart.a(2, 1))) == "a2_1"
    for bad in ((1, 0), (0, 1), (3, 1), (1, 3), (-1, 1)):
        with pytest.raises(IdealError):
            chart.z(*bad)
    for bad in ((1, 0), (0, 1), (3, 1), (1, 2)):
        with pytest.raises(IdealError):
            chart.a(*bad)
    assert nilcone_dimension(chart) == 3
    for subset in ((0,), (3,), (1, 3)):
        with pytest.raises(IdealError):
            nilcone_dimension(chart, subset)
