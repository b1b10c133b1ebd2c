"""The geometry path's shortcuts against the slower constructions they
replaced: witness curves grown along the fixed-point tree against `act`
over all of their factors, fixed-point subspaces built from their
canonical rows against the row reduction of those rows, boundary orbit
dimensions, and the residue rank they are pinned to
(`stabilizer_reference`), against the normalizer intersected with a
(`test_orbit`), and the pure-Python curve text against
`str(sympy.Add(...))`."""

import itertools
from fractions import Fraction

import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from curve_powers_reference import from_powers
from stabilizer_reference import orbit_dim_by_rank
from test_memo import FAITHFUL, SMALL, Z
from test_orbit import a_subspace, full_space, intersect, normalizer, reference_orbit_dims
from test_property_p import BUILTINS, VARIANTS, borel_nilradical_a4, heisenberg_central_extension
from test_weight_walks import borel_nilradical

from orbitvar import models, orbit
from orbitvar.liealg import WeightedLieAlgebra
from orbitvar.linalg import Matrix

CASES = {
    **{name: lambda name=name: models.builtin(name) for name in BUILTINS},
    **{f"heisenberg-3-central-v{v}": lambda v=v: heisenberg_central_extension(v) for v in VARIANTS},
    **{f"borel-nilradical-A4-v{v}": lambda v=v: borel_nilradical_a4(v) for v in VARIANTS},
}


# -- witness curves along the tree ------------------------------------------


def assert_tree_curves_match_act(alg):
    """Every enumerated subset's curve, row for row, is `act` over all of
    its factors in `_ordered` order."""
    t = orbit.torus_subspace(alg)
    records = orbit.torus_fixed_points(alg)
    for recd in records:
        s = recd.r_v_set
        # act on the empty word returns the subspace t, not a curve
        want = orbit.act(alg, [(i, None) for i in alg.weight_order() if i in s], t) if s else from_powers(alg, [t.basis])
        assert recd.witness.rows == orbit.witness_curve(alg, s).rows == want.rows, s
    return records


class TestTreeCurvesMatchAct:
    @pytest.mark.parametrize("name", CASES)
    def test_named_algebras(self, name):
        assert_tree_curves_match_act(CASES[name]())

    @settings(max_examples=30)
    @given(spec=SMALL.filter(lambda spec: WeightedLieAlgebra.build(*spec).is_valid()))
    def test_generated_algebras(self, spec):
        assert_tree_curves_match_act(WeightedLieAlgebra.build(*spec))

    def test_a5_borel_nilradical(self):
        assert len(assert_tree_curves_match_act(borel_nilradical(5))) == 948


# -- fixed-point subspaces without a row reduction --------------------------


def assert_fixed_point_subspaces_match_from_rows(alg):
    """Every record's z_S + a_S is the `Subspace.from_rows` of the padded
    torus-kernel rows and the weight vectors of S, and its printed
    `z_v_dim` is the dimension of the span of those kernel rows."""
    records = orbit.torus_fixed_points(alg)
    for recd in records:
        s = recd.r_v_set
        z_rows = [list(row) + [0] * alg.n for row in alg.torus_kernel([alg.weights[i] for i in s]).entries]
        rows = z_rows + [alg.weight_vector(i) for i in s]
        assert recd.subspace == orbit.Subspace.from_rows(alg, rows), s
        assert recd.to_json("torus")["z_v_dim"] == orbit.Subspace.from_rows(alg, z_rows).dim == alg.kernel(s).rows, s
    return records


class TestFixedPointSubspacesMatchFromRows:
    @pytest.mark.parametrize("name", CASES)
    def test_named_algebras(self, name):
        assert_fixed_point_subspaces_match_from_rows(CASES[name]())

    def test_a5_borel_nilradical(self):
        assert len(assert_fixed_point_subspaces_match_from_rows(borel_nilradical(5))) == 948


# -- boundary orbit dimensions against the normalizer -----------------------


class TestBoundaryByRank:
    @pytest.mark.parametrize(
        "name", [name for name in CASES if CASES[name]().center().rows == 0]
    )
    def test_named_algebras(self, name):
        alg = CASES[name]()
        assert [c.orbit_dim for c in orbit.boundary_components(alg)] == reference_orbit_dims(alg)

    @settings(max_examples=40)
    @given(spec=FAITHFUL.filter(lambda spec: WeightedLieAlgebra.build(*spec).is_valid()))
    def test_generated_algebras(self, spec):
        alg = WeightedLieAlgebra.build(*spec)
        assert [c.orbit_dim for c in orbit.boundary_components(alg)] == reference_orbit_dims(alg)

    @settings(max_examples=60)
    @given(st.sampled_from(["borel-nilradical-A2", "heisenberg-3", "borel-nilradical-A3"]), st.data())
    def test_any_subspace(self, name, data):
        """The rank is n - dim(N(V) cap a) for every V, the zero space and
        all of r included."""
        alg = models.builtin(name)
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
        rows = data.draw(st.lists(st.lists(entry, min_size=alg.dim, max_size=alg.dim), max_size=alg.dim))
        for v in (orbit.Subspace.from_rows(alg, rows), full_space(alg), orbit.Subspace(alg, Matrix(0, alg.dim, ()))):
            assert orbit_dim_by_rank(alg, v) == alg.n - intersect(normalizer(alg, v), a_subspace(alg)).dim


# -- curve text without sympy -----------------------------------------------


def sympy_text(cs):
    return str(sympy.Add(*(c * Z**k for k, c in enumerate(cs))))


COEFFS = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
)

# a constant and one other term, of every sign and shape: sympy puts a
# positive constant first when the other term is negative
TWO_TERMS = [
    [c] + [Fraction(0)] * (k - 1) + [lead]
    for c, lead, k in itertools.product(
        [Fraction(3), Fraction(-3), Fraction(10), Fraction(3, 4), Fraction(-3, 4)],
        [Fraction(1), Fraction(-1), Fraction(5), Fraction(-5, 12), Fraction(1, 2), Fraction(-1, 2)],
        [1, 2, 7],
    )
]
SPECIAL = [[Fraction(0)], [Fraction(0)] * 4, [Fraction(7)], [Fraction(-2, 3)], [Fraction(0), Fraction(1)], [Fraction(0), Fraction(0), Fraction(-1)]]
SPECIAL += TWO_TERMS + [[Fraction(0), Fraction(2), Fraction(-1)], [Fraction(1), Fraction(0), Fraction(-1, 3), Fraction(1)]]


def curve_of(alg, polys):
    """The curve whose row i has the polynomial polys[i][j] in column j,
    given by its coefficients; absent columns and coefficients are 0."""
    top = max(len(p) for row in polys for p in row)
    padded = [[p + [Fraction(0)] * (top - len(p)) for p in row] + [[Fraction(0)] * top] * (alg.dim - len(row)) for row in polys]
    return from_powers(alg, [[[e[k] for e in row] for row in padded] for k in range(top)])


class TestCurveTextMatchesSympy:
    alg = models.builtin("borel-nilradical-A2")

    @pytest.mark.parametrize("cs", SPECIAL, ids=lambda cs: sympy_text(cs))
    def test_special_cases(self, cs):
        assert curve_of(self.alg, [[cs]]).to_json()["basis"] == [[sympy_text(cs)] + ["0"] * (self.alg.dim - 1)]

    @settings(max_examples=300)
    @given(st.lists(st.lists(st.lists(COEFFS, min_size=1, max_size=8), min_size=1, max_size=5), min_size=1, max_size=3))
    def test_to_json_entries(self, polys):
        got = curve_of(self.alg, polys).to_json()
        top = max(len(p) for row in polys for p in row)
        want = [[sympy_text(p + [Fraction(0)] * (top - len(p))) for p in row] + ["0"] * (self.alg.dim - len(row)) for row in polys]
        assert got == {"dim": len(polys), "basis": want}
