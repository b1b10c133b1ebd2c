"""An `Ideal` solves its generators of the form c·x - q before the
Gröbner kernel and asks every question of the image J' in the
variables left (`ideals._solve`).  These tests pin that route to the
full-ring route it replaced (`full_ring_reference`): the dimension, the
unit ideal, membership, the Hilbert-series numerators, and the
regular-sequence verdicts by numerators and by colons, on drawn ideals
with linear generators and on every builtin chart base point.  They
check that `groebner()` and `normal_form` answer from the one basis in
the block order, that the kernel's refusals hold, that `ps-check`
builds each P_s once, and the A4 chart dimensions."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from full_ring_reference import FullRingIdeal, verdicts
from orbitvar import cli, ideals, models, orbit
from orbitvar.ideals import (
    Ideal,
    PolyRing,
    ScaleExceededError,
    UnitIdealError,
    chart_dimension,
    chart_ideal,
    hilbert_dimension,
    i_gamma,
    ideal_quotient,
    regular_sequence_check,
    u_function,
)
from test_ideals_graded import COEFFS, draw_homogeneous, drawn_sequence, graded_case
from test_ideals_graded import verdicts as report_verdicts
from test_property_p import borel_nilradical_a4

# -- drawn ideals with linear generators ------------------------------------


@st.composite
def solvable_case(draw):
    """`graded_case` with one or two generators c·x - q added, q
    homogeneous of x's degree and free of x, and the generators
    shuffled."""
    ring, w, by_degree, gens = draw(graded_case())
    n = len(w)
    for _ in range(draw(st.integers(1, 2))):
        x = draw(st.integers(0, n - 1))
        pool = [m for m in by_degree[w[x]] if not m[x]]
        q = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True)) if pool else []
        unit = tuple(int(i == x) for i in range(n))
        gens.append(ring({unit: draw(COEFFS), **{m: draw(COEFFS) for m in q}}))
    return ring, w, by_degree, draw(st.permutations(gens))


def assert_same_answers(ideal: Ideal, ref: FullRingIdeal, weights, elements):
    assert ideal.is_unit() == ref.is_unit()
    if ref.is_unit():
        with pytest.raises(UnitIdealError):
            hilbert_dimension(ideal)
    else:
        assert hilbert_dimension(ideal) == ref.dimension()
    for w in weights:
        assert ideal._numerator(w) == ref.numerator(w)
    for f in elements:
        assert ideal.contains(f) == ref.contains(f)


@settings(max_examples=150, deadline=None)
@given(solvable_case(), st.data())
def test_image_route_matches_the_full_ring_route(case, data):
    ring, w, by_degree, gens = case
    ideal = Ideal.make(ring, gens)
    ref = FullRingIdeal(ring, ideal.polys)
    assert ideal._substitution().images
    member = ring.zero
    for g in ideal.polys:
        member += draw_homogeneous(data.draw, ring, by_degree) * g
    other = draw_homogeneous(data.draw, ring, by_degree)
    assert ideal.contains(member)
    assert_same_answers(ideal, ref, {w, ideal.grading}, (member, member + other, other))
    seq = drawn_sequence(data, ring, by_degree)
    expected = verdicts(ref, seq, "numerator")
    assert verdicts(ref, seq, "colon") == expected
    if ref.is_unit():
        with pytest.raises(UnitIdealError):
            regular_sequence_check(ideal, seq)
    else:
        assert report_verdicts(regular_sequence_check(ideal, seq)) == expected


# -- drawn ideals with no positive grading: the colon on the image -----------

RING = PolyRing(("x", "y", "z"))
SMALL = [m for m in itertools.product(range(3), repeat=3) if sum(m) <= 2]


def small_polynomials(draw, pool=SMALL, min_size=1):
    monomials = draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=3, unique=True))
    return RING({m: draw(COEFFS) for m in monomials})


@st.composite
def ungraded_case(draw):
    """One or two polynomials of degree at most 2 in x, y, z and one
    c·x_i - q, q of degree at most 2 and free of x_i, shuffled; and a
    sequence of up to three polynomials of degree at most 2."""
    i = draw(st.integers(0, 2))
    unit = tuple(int(j == i) for j in range(3))
    q = small_polynomials(draw, [m for m in SMALL if not m[i]], min_size=0)
    gens = [small_polynomials(draw) for _ in range(draw(st.integers(1, 2)))] + [RING({unit: draw(COEFFS)}) - q]
    seq = [small_polynomials(draw) for _ in range(draw(st.integers(1, 3)))]
    return draw(st.permutations(gens)), seq


@settings(max_examples=150, deadline=None)
@given(ungraded_case())
def test_colon_on_the_image_matches_the_full_ring_colon(case):
    gens, seq = case
    ideal = Ideal.make(RING, gens)
    ref = FullRingIdeal(RING, ideal.polys)
    assert ideal._substitution().images
    assert_same_answers(ideal, ref, (), seq)
    if ref.is_unit():
        with pytest.raises(UnitIdealError):
            regular_sequence_check(ideal, seq)
        return
    assert report_verdicts(regular_sequence_check(ideal, seq)) == verdicts(ref, seq, "colon")
    # the public quotient, from the full-ring view of the one basis
    f = seq[0]
    quotient, colon = ideal_quotient(ideal, f), ref.colon(f)
    assert all(ref.contains(g * f) for g in quotient.polys)
    assert all(quotient.contains(g) for g in colon)


# -- groebner() and normal_form: the one basis, in the block order ------------


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


@settings(max_examples=150, deadline=None)
@given(solvable_case(), st.data())
def test_groebner_is_the_reduced_block_order_basis_and_normal_form_reads_it(case, data):
    """`groebner()` generates the ideal, is monic and reduced, lists the
    solved variables as leading monomials first, and `normal_form(f)`
    differs from f by an element of the ideal, has no term a leading
    monomial divides, and is 0 exactly when f is in the ideal."""
    ring, w, by_degree, gens = case
    ideal = Ideal.make(ring, gens)
    ref = FullRingIdeal(ring, ideal.polys)
    gb = ideal.groebner()
    view = FullRingIdeal(ring, [g for _, g in gb])
    assert all(ref.contains(g) for _, g in gb) and all(view.contains(g) for g in ideal.polys)
    lms = [lm for lm, _ in gb]
    for lm, g in gb:
        assert g[lm] == 1
        assert not any(divides(other, m) for m in g for other in lms if other != lm)
    if not ideal.is_unit():
        solved = sorted(ideal._substitution().images)
        assert lms[: len(solved)] == [tuple(int(i == x) for i in range(len(w))) for x in solved]
    f = draw_homogeneous(data.draw, ring, by_degree) * data.draw(st.sampled_from(gens)) + draw_homogeneous(
        data.draw, ring, by_degree
    )
    nf = ideal.normal_form(f)
    assert ref.contains(f - nf)
    assert not any(divides(lm, m) for m in nf for lm in lms)
    assert (nf == 0) == ideal.contains(f) == ref.contains(f)


# -- every builtin chart base point ---------------------------------------------

BUILTINS = ("sl2-borel", "borel-nilradical-A2", "borel-nilradical-A3", "heisenberg-3", "abelian:2", "abelian:3")
ALGEBRAS = {name: models.builtin(name) for name in BUILTINS}


def base_points():
    for name, alg in ALGEBRAS.items():
        for recd in orbit.group_fixed_points(alg):
            yield pytest.param(name, recd, id=f"{name}-{'-'.join(map(str, recd.r_v_set))}")


@pytest.mark.parametrize("name, recd", base_points())
def test_builtin_charts_match_the_full_ring_route(name, recd):
    alg = ALGEBRAS[name]
    chart = chart_ideal(alg, recd.subspace)
    ideal = chart.ideal
    ref = FullRingIdeal(ideal.ring, ideal.polys)
    u_forms = [u_function(chart, i, gamma) for gamma in alg.weights for i in i_gamma(chart, gamma)]
    products = [u * a for u, a in zip(u_forms, ideal.ring.gens[chart.d * chart.d :])]
    assert ideal.grading is not None
    assert_same_answers(ideal, ref, [ideal.grading], u_forms + products)
    for gamma in alg.weights:
        seq = [u_function(chart, i, gamma) for i in i_gamma(chart, gamma)]
        if seq:
            expected = verdicts(ref, seq, "numerator")
            assert report_verdicts(regular_sequence_check(ideal, seq)) == expected == verdicts(ref, seq, "colon")


# -- the kernel's refusals -------------------------------------------------------


def test_exponents_are_checked_before_the_substitution():
    """An exponent past the packed field is refused even where the
    substitution would remove it: in a generator, in a membership
    question and in a sequence element."""
    ring = PolyRing(("x", "y"))
    with pytest.raises(ScaleExceededError):
        Ideal.make(ring, ["x**40000 - y"]).is_unit()
    with pytest.raises(ScaleExceededError):
        Ideal.make(ring, ["y - x", "x**40000 - x**40000*y"]).is_unit()
    solved = Ideal.make(ring, ["x - 1"])
    assert solved._substitution().images and solved.contains("x**30000 - 1")
    for ask in (solved.contains, solved.normal_form, lambda f: regular_sequence_check(solved, [f])):
        with pytest.raises(ScaleExceededError):
            ask("x**40000 - 1")


def test_the_substitution_is_composed():
    """The values of the solved variables are composed into elements of
    R', so a linear form's image is the sum of the images of its
    variables."""
    alg = ALGEBRAS["borel-nilradical-A3"]
    recd = next(r for r in orbit.group_fixed_points(alg) if r.r_v_set == (0, 3, 5))
    chart = chart_ideal(alg, recd.subspace)
    sub = chart.ideal._substitution()
    assert len(sub.images) == 8 and len(sub.kept) == len(chart.ideal.ring.variables) - 8
    for gamma in alg.weights:
        for i in i_gamma(chart, gamma):
            u = u_function(chart, i, gamma)
            expected = sub.ring.zero
            for m, c in u.items():
                x = m.index(1)
                expected += (sub.images[x] if x in sub.images else sub.ring.gens[sub.kept.index(x)]) * c
            assert sub(u) == expected


# -- ps-check: one P_s and one basis of it per s, and no basis of the kernel -----


def test_ps_check_builds_each_minor_ideal_once(monkeypatch):
    """Counted on a cold section cache (`cli.ps_section`), which an
    earlier `ps-check` of the process would have filled; a second report,
    on another algebra, then builds and computes nothing."""
    cli.ps_section.cache_clear()
    built, runs = [], []
    minor_ideal, groebner = ideals.minor_ideal, ideals._groebner
    monkeypatch.setattr(ideals, "minor_ideal", lambda s: built.append(s) or minor_ideal(s))
    monkeypatch.setattr(ideals, "_groebner", lambda *a, **k: runs.append(a[1].nvars) or groebner(*a, **k))
    report = cli.cmd_ps_check(models.builtin("abelian:2"), 0)
    assert not report.has_refutation()
    assert built == [2, 3, 4]
    # per s: P_s and the lex basis of the graph ideal; P_s ⊆ kernel is
    # decided by substitution, with no basis of the kernel
    assert runs == [n for s in (2, 3, 4) for n in (2 * s, 2 * s + 1)]
    built.clear()
    runs.clear()
    again = cli.cmd_ps_check(models.builtin("heisenberg-3"), 0)
    assert built == [] and runs == []
    assert [(c.name, c.verdict, c.details) for c in again.checks] == [
        (c.name, c.verdict, c.details) for c in report.checks
    ]


# -- A4 -------------------------------------------------------------------------


def test_a4_chart_dimensions():
    """The four base points of the A4 Borel nilradical (variant 0): the
    two weighted ones took 16–33 s each on the full-ring route."""
    alg = borel_nilradical_a4(0)
    points = orbit.group_fixed_points(alg)
    assert sorted(r.r_v_set for r in points) == [(1, 4, 6, 9), (1, 4, 8, 9), (2, 4, 6, 7), (2, 4, 6, 9)]
    for recd in points:
        assert chart_dimension(chart_ideal(alg, recd.subspace)) == alg.n == 10
