"""The geometry path's answers read off weights and supports, against the
routes they replaced (`stabilizer_reference`): boundary orbit dimensions
as n minus a stabilizer count against the rank of the residue matrix,
`graded_subset` by a scan of the canonical rows against the bracket
loop, the property (P) precondition by the a-support against
`contains_subspace`, and the short curve text against `render_sum`.
Also the preconditions of the count, `is_valid` read from the memoised
`validate`, and the cap on the weight-subset enumerations."""

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilizer_reference import centralizer_of, contains_subspace, graded_subset_by_brackets, orbit_dim_by_rank
from test_geometry_path import CASES
from test_grown_echelons import ENTRIES, algebra_of, weight_sequences
from test_memo import FAITHFUL, SMALL
from test_memo_path import BodyCalls
from test_weight_walks import borel_nilradical

from orbitvar import liealg, models, orbit
from orbitvar.liealg import EnumerationCapError, WeightedLieAlgebra
from orbitvar.orbit import PreconditionFailedError

VALID = SMALL.filter(lambda spec: WeightedLieAlgebra.build(*spec).is_valid())


# -- orbit dimensions by a count ------------------------------------------------------


def assert_counts_match_rank(alg, subsets):
    """n - `_stabilizer_dim` of S is the residue rank at z_S + a_S."""
    for s in subsets:
        v = orbit._fixed_point_subspace(alg, s)
        assert alg.n - orbit._stabilizer_dim(alg, s) == orbit_dim_by_rank(alg, v), s


def assert_boundary_matches_rank(alg):
    comps = orbit.boundary_components(alg)
    assert [c.orbit_dim for c in comps] == [orbit_dim_by_rank(alg, c.base_point) for c in comps]
    for c in comps:
        assert c.base_point is orbit.witness_limit(alg, (c.weight_idx,))
    return comps


class TestStabilizerCount:
    @pytest.mark.parametrize("name", CASES)
    def test_named_algebras(self, name):
        alg = CASES[name]()
        if alg.center().rows == 0:
            assert_boundary_matches_rank(alg)
        assert_counts_match_rank(alg, [(i,) for i in range(alg.n)])
        assert_counts_match_rank(alg, [r.r_v_set for r in orbit.torus_fixed_points(alg)])

    def test_a5_boundary_and_fixed_points(self):
        alg = borel_nilradical(5)
        assert [c.orbit_dim for c in assert_boundary_matches_rank(alg)] == [14] * 15
        records = orbit.torus_fixed_points(alg)
        assert len(records) == 948
        assert_counts_match_rank(alg, [r.r_v_set for r in records])

    def test_a6_boundary(self):
        comps = assert_boundary_matches_rank(borel_nilradical(6))
        assert [c.orbit_dim for c in comps] == [20] * 21

    @settings(max_examples=40, deadline=None)
    @given(spec=FAITHFUL.filter(lambda spec: WeightedLieAlgebra.build(*spec).is_valid()))
    def test_generated_boundaries(self, spec):
        assert_boundary_matches_rank(WeightedLieAlgebra.build(*spec))

    @settings(max_examples=40, deadline=None)
    @given(spec=VALID)
    def test_generated_fixed_points_and_any_subset(self, spec):
        """Every torus-fixed point, and z_S + a_S for every S of up to
        three weights, independent and commuting or not."""
        alg = WeightedLieAlgebra.build(*spec)
        assert_counts_match_rank(alg, [r.r_v_set for r in orbit.torus_fixed_points(alg)])
        assert_counts_match_rank(alg, [s for k in range(4) for s in itertools.combinations(range(alg.n), k)])


class TestBoundaryPreconditions:
    def test_repeated_weight(self):
        alg = WeightedLieAlgebra.build(2, ["x", "y", "u"], {"x": [1, 0], "y": [1, 0], "u": [0, 1]})
        assert alg.center().rows == 0
        with pytest.raises(PreconditionFailedError, match="one-dimensional weight spaces"):
            orbit.boundary_components(alg)

    def test_off_grade_bracket(self):
        # [x, y] = u, though w_u = (2, 1) is not w_x + w_y = (1, 1)
        alg = WeightedLieAlgebra.build(2, ["x", "y", "u"], {"x": [1, 0], "y": [0, 1], "u": [2, 1]}, [("x", "y", {"u": 1})])
        assert alg.center().rows == 0 and alg._off_grade()
        with pytest.raises(PreconditionFailedError, match="graded brackets"):
            orbit.boundary_components(alg)

    def test_zero_weight(self):
        # the curve of a zero weight is t itself, not t + a^alpha
        alg = WeightedLieAlgebra.build(2, ["x", "y", "u"], {"x": [1, 0], "y": [0, 1], "u": [0, 0]})
        with pytest.raises(PreconditionFailedError, match="not t_alpha"):
            orbit.boundary_components(alg)

    def test_the_center_is_checked_first(self):
        alg = WeightedLieAlgebra.build(2, ["x", "y"], {"x": [1, 0], "y": [1, 0]})
        with pytest.raises(PreconditionFailedError, match="trivial center"):
            orbit.boundary_components(alg)


# -- graded_subset by a support scan ---------------------------------------------------


@st.composite
def graded_rows(draw, alg):
    """Rows each supported on one joint weight space (torus coordinates
    and zero weights together), so their span is torus-stable, with now
    and then one row that mixes two spaces."""
    grade = [None] * alg.t_dim + [w.coords if any(w.coords) else None for w in alg.weights]
    spaces = {}
    for j, g in enumerate(grade):
        spaces.setdefault(g, []).append(j)
    rows = []
    for _ in range(draw(st.integers(0, alg.dim))):
        cols = draw(st.sampled_from(sorted(spaces.values())))
        if draw(st.integers(0, 5)) == 0:
            cols = cols + draw(st.sampled_from(sorted(spaces.values())))
        row = [0] * alg.dim
        for j in cols:
            row[j] = draw(st.sampled_from(ENTRIES))
        rows.append(row)
    return rows


def assert_graded_subset_matches_brackets(alg, v):
    want = graded_subset_by_brackets(alg, v)
    assert orbit.graded_subset(alg, v) == want
    return want


class TestGradedSubset:
    @settings(max_examples=300, deadline=None)
    @given(spec=weight_sequences(), data=st.data())
    def test_zero_and_repeated_weights(self, spec, data):
        alg = algebra_of(*spec)
        assert_graded_subset_matches_brackets(alg, orbit.Subspace.from_rows(alg, data.draw(graded_rows(alg))))

    @settings(max_examples=200, deadline=None)
    @given(spec=SMALL, data=st.data())
    def test_drawn_subspaces(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        entry = st.sampled_from(ENTRIES)
        rows = data.draw(st.lists(st.lists(entry, min_size=alg.dim, max_size=alg.dim), max_size=alg.dim))
        assert_graded_subset_matches_brackets(alg, orbit.Subspace.from_rows(alg, rows))
        assert_graded_subset_matches_brackets(alg, orbit.Subspace.from_rows(alg, data.draw(graded_rows(alg))))
        coords = data.draw(st.sets(st.integers(0, alg.dim - 1)))
        assert_graded_subset_matches_brackets(alg, orbit.Subspace.from_rows(alg, [alg.basis_vector(j) for j in sorted(coords)]))

    @pytest.mark.parametrize("name", CASES)
    def test_named_points(self, name):
        """Fixed points, boundary base points and orbit points."""
        alg = CASES[name]()
        t = orbit.torus_subspace(alg)
        points = [r.subspace for r in orbit.torus_fixed_points(alg)] + [orbit.witness_limit(alg, (i,)) for i in range(alg.n)]
        points += [orbit.act(alg, [(i, Fraction(1, 2)), (j, 3)], t) for i in range(alg.n) for j in range(alg.n)]
        got = [assert_graded_subset_matches_brackets(alg, v) for v in points]
        assert None in got and () in got


# -- the property (P) precondition by the a-support -------------------------------------


def assert_precondition_matches_containment(alg, data, v):
    inside = contains_subspace(centralizer_of(alg, data.lam), v)
    try:
        orbit.property_P_checks(alg, data, v, orbit.graded_subset(alg, v))
    except PreconditionFailedError:
        assert not inside
    else:
        assert inside
    return inside


class TestSupportPrecondition:
    @pytest.mark.parametrize("name", CASES)
    def test_every_flat_and_record(self, name):
        alg = CASES[name]()
        seen = set()
        for lam in alg.complete_subsets():
            data = orbit.torus_element_data(alg, lam)
            for recd in orbit.torus_fixed_points(alg):
                seen.add(assert_precondition_matches_containment(alg, data, recd.subspace))
        assert seen == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(spec=SMALL, data=st.data())
    def test_drawn_subspaces(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        lam = data.draw(st.sampled_from(alg.complete_subsets()))
        element = orbit.torus_element_data(alg, lam)
        # rows on t + a_lam, and now and then one more coordinate
        cols = list(range(alg.t_dim)) + [alg.t_dim + i for i in lam]
        extra = data.draw(st.sets(st.integers(0, alg.dim - 1), max_size=1))
        rows = data.draw(st.lists(st.dictionaries(st.sampled_from(cols + sorted(extra)), st.sampled_from(ENTRIES)), max_size=alg.dim))
        v = orbit.Subspace.from_rows(alg, [[row.get(j, 0) for j in range(alg.dim)] for row in rows])
        assert_precondition_matches_containment(alg, element, v)


# -- the short curve text -----------------------------------------------------------------


def full_render(coeffs):
    """`_render_polynomial` before its short cases: every nonzero term through `render_sum`."""
    terms = reversed(tuple(enumerate(coeffs)))
    return orbit.render_sum([(("z" if k == 1 else f"z**{k}",) if k else (), c) for k, c in terms if c])


COEFFS = st.one_of(st.sampled_from([0, 0, 1, -1, 2]), st.fractions(min_value=-12, max_value=12, max_denominator=12))


class TestShortRender:
    @settings(max_examples=400)
    @given(st.lists(COEFFS, min_size=1, max_size=6))
    def test_matches_render_sum(self, coeffs):
        assert orbit._render_polynomial(tuple(coeffs)) == full_render(coeffs)

    @pytest.mark.parametrize(
        "coeffs,text",
        [((0,), "0"), ((0, 0, 0), "0"), ((Fraction(0), Fraction(0)), "0"), ((Fraction(-3, 4),), "-3/4"), ((5, 0), "5"), ((Fraction(6, 3),), "2")],
    )
    def test_short_cases(self, coeffs, text):
        assert orbit._render_polynomial(coeffs) == full_render(coeffs) == text


# -- validate once per instance --------------------------------------------------------


def test_a_second_is_valid_runs_no_validate():
    """`is_valid` reads the memoised `validate` table, so the body of
    `validate` runs once per instance, counted by its code object."""
    alg = models.borel_nilradical_a3()
    with BodyCalls() as calls:
        assert alg.is_valid() and alg.is_valid()
        assert alg.validate() is alg.validate()
    assert calls["validate", ()] == 1
    bad = WeightedLieAlgebra.build(1, ["x", "y"], {"x": [1], "y": [1]})
    with BodyCalls() as calls:
        assert not bad.is_valid() and not bad.is_valid()
    assert calls["validate", ()] == 1


# -- the enumeration cap ----------------------------------------------------------------


@pytest.mark.parametrize("cap,allowed", [(8, True), (7, False)])
def test_the_cap_counts_the_sets_kept(monkeypatch, cap, allowed):
    """abelian:3 has 8 fixed-point subsets and 8 flats: a cap of 8 lets
    both walks end, a cap of 7 refuses both."""
    for module in (liealg, orbit):
        monkeypatch.setattr(module, "ENUMERATION_CAP", cap)
    for walk in (lambda alg: orbit.torus_fixed_points(alg), lambda alg: alg.complete_subsets()):
        alg = models.abelian(3)
        if allowed:
            assert len(walk(alg)) == 8
        else:
            with pytest.raises(EnumerationCapError, match=f"more than {cap}"):
                walk(alg)


@pytest.mark.parametrize("command", ["fixed-points", "property-p"])
def test_abelian_14_is_refused_with_exit_2(tmp_path, command):
    """2^14 subsets, past the cap: refused in a fresh process within
    seconds, with `error:` and no report."""
    path = tmp_path / "abelian14.json"
    path.write_text(json.dumps(models.abelian(14).to_json()))
    report = tmp_path / "report.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(orbit.__file__)))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from orbitvar import cli; sys.exit(cli.main(sys.argv[1:]))",
         command, "--input", str(path), "--output", str(report)],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: more than 8192") and not report.exists()
    assert elapsed < 30

