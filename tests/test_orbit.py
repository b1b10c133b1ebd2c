"""Orbit geometry in the Grassmannian: curves, limits, fixed points,
boundary components, membership certificates, property-(P)
consequences, biggest tori, and multipoint membership.  Also the
reference normalizer and intersection that boundary orbit dimensions
are checked against, and a fresh-interpreter check that the geometry
commands and the membership routes never import sympy."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from curve_powers_reference import powers
from linalg_reference import lambda_of
from stabilizer_reference import centralizer_of, is_ideal

import orbitvar
from orbitvar import models
from orbitvar.liealg import Weight, WeightedLieAlgebra
from orbitvar.linalg import nullspace, rank, reduce_mod_rowspace, rref, Matrix
from orbitvar import report as rep
from orbitvar.orbit import (
    BadSliceError,
    CurveSubspace,
    DimensionMismatchError,
    NonCanonicalBasisError,
    OrbitError,
    PreconditionFailedError,
    Subspace,
    act,
    biggest_torus,
    boundary_components,
    graded_subset,
    group_fixed_points,
    is_commutative_subalgebra,
    membership,
    multipoint_membership,
    property_P_checks,
    torus_fixed_points,
    torus_element_data,
    torus_subspace,
    verify_pair_relation,
    witness_curve,
    witness_limit,
)

A2 = models.borel_nilradical_a2()
A3 = models.borel_nilradical_a3()


def F(*cs):
    return tuple(Fraction(c) for c in cs)


def span(alg, rows):
    return Subspace.from_rows(alg, [[Fraction(c) for c in r] for r in rows])


# -- the reference boundary path ----------------------------------------


def full_space(alg):
    return Subspace.from_rows(alg, [alg.basis_vector(i) for i in range(alg.dim)])


def a_subspace(alg):
    return Subspace.from_rows(alg, [alg.weight_vector(i) for i in range(alg.n)])


def normalizer(alg, v):
    """{y : [y, V] included in V} by solving the linear residue system;
    residues are reduced against V's basis, which is already in rref."""
    piv = v.pivots
    nonpiv = [c for c in range(alg.dim) if c not in piv]
    cols = []
    for k in range(alg.dim):
        resid = []
        for row in v.basis.entries:
            red = reduce_mod_rowspace(alg.bracket(alg.basis_vector(k), row), v.basis, piv)
            resid.extend(red[c] for c in nonpiv)
        cols.append(resid)
    if not cols[0]:
        return full_space(alg)
    m = Matrix.from_rows([[cols[k][r] for k in range(alg.dim)] for r in range(len(cols[0]))])
    return Subspace(alg, nullspace(m))


def intersect(a, b):
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.alg, Matrix(0, a.basis.cols, ()))
    stacked = Matrix.from_rows(
        [
            [a.basis[i, c] for i in range(a.dim)] + [-b.basis[j, c] for j in range(b.dim)]
            for c in range(a.basis.cols)
        ]
    )
    ker = nullspace(stacked)
    rows = []
    for r in range(ker.rows):
        vec = [Fraction(0)] * a.basis.cols
        for f, row in zip(ker.row(r)[: a.dim], a.basis.entries):
            if f:
                for j, e in enumerate(row):
                    if e:
                        vec[j] += f * e
        rows.append(vec)
    return Subspace.from_rows(a.alg, rows)


def reference_orbit_dims(alg):
    """n - dim(N(V_alpha) cap a) for each weight, in `boundary_components` order."""
    return [alg.n - intersect(normalizer(alg, c.base_point), a_subspace(alg)).dim for c in boundary_components(alg)]


def run_without_sympy(code, blocked=False):
    """Run `code` in a fresh interpreter that imports this orbitvar, then
    check that sympy was never imported.  With blocked, sympy cannot be
    imported at all (`sys.modules["sympy"] = None`), as where it is not
    installed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(orbitvar.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    block = "import sys\nsys.modules['sympy'] = None\n" if blocked else ""
    check = "\nimport sys\nassert sys.modules.get('sympy') is None, sorted(m for m in sys.modules if 'sympy' in m)[:3]\n"
    done = subprocess.run([sys.executable, "-c", block + code + check], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def theta(alg, i, z=None):
    """exp(z ad x_i) t at a rational z, or its limit at infinity for None."""
    return witness_limit(alg, (i,)) if z is None else act(alg, [(i, Fraction(z))], torus_subspace(alg))


def property_p(alg, s, v):
    """The property (P) checks of V against the torus element s."""
    return property_P_checks(alg, torus_element_data(alg, lambda_of(alg, s)), v, graded_subset(alg, v))


ALPHA = Weight(F(1, 0))
BETA = Weight(F(0, 1))
AB = Weight(F(1, 1))


class TestActAndTheta:
    def test_empty_word_is_identity(self):
        t = torus_subspace(A2)
        assert act(A2, [], t) == t

    def test_word_inverse(self):
        t = torus_subspace(A2)
        word = [(0, Fraction(2)), (1, Fraction(-1)), (2, Fraction(3))]
        inverse = [(i, -c) for i, c in reversed(word)]
        assert act(A2, inverse, act(A2, word, t)) == t

    def test_theta_finite_value(self):
        # exp(z ad x_a) fixes ker(a) and moves h_a to h_a - z x_a
        got = theta(A2, 0, Fraction(2))
        assert got == span(A2, [[0, 1, 0, 0, 0], [1, 0, -2, 0, 0]])

    def test_theta_limit_is_graded(self):
        got = theta(A2, 0)
        assert got == span(A2, [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])

    def test_theta_limit_every_weight_both_builtins(self):
        for alg in (A2, A3):
            d = alg.t_dim
            for i, w in enumerate(alg.weights):
                v = theta(alg, i)
                ker = alg.torus_kernel([w])
                rows = [list(ker.row(r)) + [0] * alg.n for r in range(ker.rows)]
                rows.append(alg.weight_vector(i))
                assert v == span(alg, rows)

    def test_curve_specializes_consistently(self):
        c = witness_curve(A2, (1,))
        assert c == act(A2, [(1, None)], torus_subspace(A2))
        z = Fraction(5)
        coeffs = powers(c)
        point = sum((m.scale(z**k) for k, m in enumerate(coeffs) if k), coeffs[0])
        assert span(A2, point.entries) == theta(A2, 1, z)
        assert c.limit() == theta(A2, 1)

    def test_curve_of_two_factors(self):
        word = [(0, None), (2, None)]
        c = act(A2, word, torus_subspace(A2))
        assert isinstance(c, CurveSubspace)
        assert c.limit() == span(A2, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]])

    def test_curve_drops_a_top_coefficient_that_cancels(self):
        # on h = t1 + t2, where a(h) = b(h) = 1, the z^2 terms
        # [x_a, [x_b, h]] and [x_b, [x_a, h]] of exp(z ad x_a) exp(z ad x_b)
        # exp(z ad x_a) h cancel, so the curve has degree 1
        v = span(A2, [[1, 1, 0, 0, 0]])
        c = act(A2, [(0, None), (1, None), (0, None)], v)
        assert powers(c) == (v.basis, Matrix.from_rows([F(0, 0, -2, -1, 0)]))


class TestSubspacePredicates:
    def test_commutativity(self):
        assert is_commutative_subalgebra(A2, torus_subspace(A2))
        assert not is_commutative_subalgebra(
            A2, span(A2, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
        )

    def test_torus_stability(self):
        assert graded_subset(A2, theta(A2, 0)) is not None
        assert graded_subset(A2, theta(A2, 0, Fraction(1))) is None

    def test_ideal(self):
        assert is_ideal(A2, span(A2, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]))
        assert not is_ideal(A2, span(A2, [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]))

    def test_equality_compares_algebras_by_value(self):
        rows = [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]
        first = models.builtin("borel-nilradical-A2")
        second = models.builtin("borel-nilradical-A2")
        assert first is not second
        assert span(first, rows) == span(second, rows)
        assert span(first, rows) != span(models.heisenberg_3(), rows)


class TestSubspaceBasesAreRref:
    """`Subspace.contains` reads the pivots off the basis, so every way the
    package builds a Subspace must leave its basis in rref."""

    def test_every_construction(self):
        rng = random.Random(0)
        built = []
        for alg in (A2, A3, models.heisenberg_3()):
            for _ in range(5):
                rows = [[Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)] for _ in range(rng.randint(1, alg.dim))]
                built.append(Subspace.from_rows(alg, rows))
            v = theta(alg, 0)  # CurveSubspace.limit
            built += [v, normalizer(alg, v)]  # nullspace
            built.append(act(alg, [(0, Fraction(2))], torus_subspace(alg)))  # act on a scalar word
            for pt in (alg.basis_vector(0), tuple(Fraction(rng.randint(-3, 3)) for _ in range(alg.dim))):
                built.append(Subspace(alg, alg.centralizer(pt)))
            built.append(intersect(torus_subspace(alg), a_subspace(alg)))  # the zero space
            built += [r.subspace for r in torus_fixed_points(alg)]
        assert any(s.dim == 0 for s in built)
        for s in built:
            rr, piv = rref(s.basis)
            assert rr == s.basis and s.pivots == piv


class TestNonCanonicalBasisRefused:
    """A basis handed to `Subspace` directly must already be canonical;
    `Subspace.from_rows` is the way in for arbitrary rows."""

    def refused(self, rows):
        with pytest.raises(NonCanonicalBasisError):
            Subspace(A2, Matrix.from_rows(rows))
        return span(A2, rows)

    def test_pivots_out_of_order(self):
        v = self.refused([[0, 1, 0, 0, 0], [1, 1, 0, 0, 0]])
        assert v.contains(F(1, 0, 0, 0, 0))
        assert v == span(A2, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])

    def test_repeated_row(self):
        assert self.refused([[1, 0, 0, 0, 0], [1, 0, 0, 0, 0]]).dim == 1

    def test_zero_row(self):
        assert self.refused([[1, 0, 0, 0, 0], [0, 0, 0, 0, 0]]).dim == 1

    def test_pivot_other_than_one(self):
        assert self.refused([[2, 0, 0, 0, 0]]).basis.row(0) == F(1, 0, 0, 0, 0)

    def test_nonzero_above_a_pivot(self):
        v = self.refused([[1, 3, 0, 0, 0], [0, 1, 0, 0, 0]])
        assert v.pivots == (0, 1) and v.contains(F(1, 0, 0, 0, 0))

    def test_canonical_bases_pass(self):
        for rows in ([[1, 0, 2, 0, 0], [0, 1, 3, 0, 0]], [[0, 0, 1, 0, Fraction(1, 2)]]):
            assert Subspace(A2, Matrix.from_rows(rows)) == span(A2, rows)
        assert Subspace(A2, Matrix(0, A2.dim, ())).dim == 0


class TestSympyAtTheReportEdge:
    """Curves are exact coefficient matrices and `CurveSubspace.to_json`
    renders them itself, so sympy stays in `ideals` and the commands that
    use it."""

    def test_geometry_runs_without_sympy(self, tmp_path):
        run_without_sympy(
            f"""
from orbitvar import cli, models, orbit
for name in ("borel-nilradical-A3", "heisenberg-3"):
    for command in ("validate", "fixed-points", "boundary", "property-p"):
        assert cli.main([command, "--builtin", name, "--output", {str(tmp_path / "report")!r}]) == 0
alg = models.builtin("borel-nilradical-A3")
t = orbit.torus_subspace(alg)
assert orbit.membership(alg, t).kind == "orbit"
assert orbit.membership(alg, orbit.act(alg, [(0, 2)], t)).kind == "orbit"
assert orbit.membership(alg, orbit.witness_limit(alg, (0,))).kind == "limit"
assert orbit.membership(alg, orbit.witness_limit(alg, (0,))).witness.to_json()["basis"]
assert orbit.multipoint_membership(alg, [alg.weight_vector(0), alg.weight_vector(5)])[0] == "proven"
assert orbit.biggest_torus(alg, t) == ()
assert not orbit.verify_pair_relation(alg, alg.weights[0], samples=5).has_refutation()
"""
        )


def brute_force_torus_fixed(alg):
    """Independent enumeration: graded d-dimensional candidates z + a_S
    with S independent, pairwise commuting, and z the full common kernel."""
    out = []
    for size in range(alg.n + 1):
        for s in itertools.combinations(range(alg.n), size):
            wmat = Matrix.from_rows([list(alg.weights[i].coords) for i in s]) if s else None
            if s and rank(wmat) != len(s):
                continue
            if not alg.centralizer_in_a(s):
                continue
            ker = alg.torus_kernel([alg.weights[i] for i in s])
            if ker.rows + len(s) != alg.t_dim:
                continue
            rows = [list(ker.row(r)) + [0] * alg.n for r in range(ker.rows)]
            rows += [alg.weight_vector(i) for i in s]
            out.append(Subspace.from_rows(alg, rows))
    return out


class TestFixedPoints:
    def test_counts(self):
        assert len(torus_fixed_points(A2)) == 6
        assert len(group_fixed_points(A2)) == 2
        assert len(torus_fixed_points(A3)) == 25
        assert len(group_fixed_points(A3)) == 3

    def test_matches_brute_force_oracle(self):
        for alg in (A2, A3, models.abelian(2), models.heisenberg_3()):
            got = {r.subspace for r in torus_fixed_points(alg)}
            expect = set(brute_force_torus_fixed(alg))
            assert got == expect

    def test_records_are_torus_stable_commutative(self):
        for alg in (A2, A3):
            for r in torus_fixed_points(alg):
                assert graded_subset(alg, r.subspace) is not None
                assert is_commutative_subalgebra(alg, r.subspace)
                assert r.subspace.dim == alg.t_dim

    def test_witness_curves_verified(self):
        for r in torus_fixed_points(A2):
            assert r.witness.limit() == r.subspace

    def test_group_fixed_are_ideals_with_full_weight_sets(self):
        assert {r.r_v_set for r in group_fixed_points(A2)} == {(0, 2), (1, 2)}
        assert {r.r_v_set for r in group_fixed_points(A3)} == {
            (0, 3, 5),
            (2, 4, 5),
            (3, 4, 5),
        }
        for alg in (A2, A3):
            d_sharp = alg.t_dim - alg.center().rows
            for r in group_fixed_points(alg):
                assert is_ideal(alg, r.subspace)
                assert len(r.r_v_set) == d_sharp
                assert r.to_json("group")["z_v_dim"] == alg.kernel(r.r_v_set).rows == alg.center().rows


class TestNormalizer:
    def test_theta_limit_normalizer(self):
        v = theta(A2, 0)
        n = normalizer(A2, v)
        assert n == span(A2, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])

    def test_torus_self_normalizing(self):
        assert normalizer(A2, torus_subspace(A2)) == torus_subspace(A2)

    def test_whole_algebra(self):
        assert normalizer(A2, full_space(A2)) == full_space(A2)

    def test_intersect(self):
        n = normalizer(A2, theta(A2, 0))
        assert intersect(n, a_subspace(A2)) == span(A2, [[0, 0, 1, 0, 0]])


class TestBoundary:
    def test_a2_components(self):
        comps = boundary_components(A2)
        assert len(comps) == 3
        assert all(c.orbit_dim == 2 for c in comps)
        assert {c.weight_idx for c in comps} == {0, 1, 2}

    def test_a3_components(self):
        comps = boundary_components(A3)
        assert len(comps) == 6
        assert all(c.orbit_dim == 5 for c in comps)

    def test_base_points_are_theta_limits(self):
        for c in boundary_components(A2):
            assert c.base_point == theta(A2, c.weight_idx)

    def test_center_precondition(self):
        single = WeightedLieAlgebra.build(2, ["x"], {"x": [1, 1]}, [])
        with pytest.raises(PreconditionFailedError):
            boundary_components(single)


class TestMembership:
    def test_torus_itself(self):
        v = membership(A2, torus_subspace(A2))
        assert v.kind == "orbit" and v.params == ()

    def test_orbit_point_with_certificate(self):
        target = theta(A2, 0, Fraction(2))
        v = membership(A2, target)
        assert v.kind == "orbit"
        assert act(A2, list(v.params), torus_subspace(A2)) == target

    def test_generic_word_roundtrip(self):
        rng = random.Random(9)
        for alg in (A2, A3):
            for _ in range(5):
                word = [
                    (i, Fraction(rng.randint(-3, 3)))
                    for i in rng.sample(range(alg.n), k=min(3, alg.n))
                ]
                target = act(alg, word, torus_subspace(alg))
                v = membership(alg, target)
                assert v.kind == "orbit"
                assert act(alg, list(v.params), torus_subspace(alg)) == target

    def test_limit_point(self):
        v = membership(A2, theta(A2, 0))
        assert v.kind == "limit"
        assert v.witness is not None
        assert v.witness.limit() == theta(A2, 0)

    def test_noncommutative_refuted(self):
        v = membership(A2, span(A2, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]))
        assert v.kind == "refuted"

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            membership(A2, span(A2, [[1, 0, 0, 0, 0]]))

    @pytest.mark.parametrize("width", [4, 6])
    def test_wrong_width_subspace_refused(self, width):
        # a basis with other than dim columns is refused where it is built,
        # before membership or biggest_torus can read it
        rows = [[int(c == r) for c in range(width)] for r in range(2)]
        with pytest.raises(DimensionMismatchError):
            span(A2, rows)
        with pytest.raises(DimensionMismatchError):
            Subspace(A2, Matrix.from_rows(rows))

    def test_certified_flag(self):
        assert membership(A2, torus_subspace(A2)).certified
        assert not membership(
            A2, span(A2, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
        ).certified

    def test_abelian_closure_is_all_graded_points(self):
        # with trivial brackets every torus-fixed candidate is a limit
        alg = models.abelian(2)
        for r in torus_fixed_points(alg):
            v = membership(alg, r.subspace)
            assert v.kind in ("orbit", "limit")


class TestPropertyP:
    def test_graded_point_yields_witness(self):
        s = F(1, -1, 0, 0, 0)
        v = span(A2, [[1, -1, 0, 0, 0], [0, 0, 0, 0, 1]])
        verdicts = {c.name: c.verdict for c in property_p(A2, s, v)}
        assert verdicts["center-containment"] == rep.PROVEN
        assert verdicts["witness-curve"] == rep.PROVEN

    def test_precondition_requires_containment(self):
        s = F(1, -1, 0, 0, 0)
        v = theta(A2, 0)  # contains x_a, not centralized by s
        with pytest.raises(PreconditionFailedError):
            property_p(A2, s, v)

    def test_regular_s_forces_torus(self):
        s = F(1, 2, 0, 0, 0)
        assert all(c.verdict != rep.REFUTED for c in property_p(A2, s, torus_subspace(A2)))

    def test_center_containment_refuted(self):
        # V inside the centralizer of s but missing its center
        s = F(1, -1, 0, 0, 0)
        v = span(A2, [[1, 1, 0, 0, 0], [0, 0, 0, 0, 1]])
        assert any(c.verdict == rep.REFUTED for c in property_p(A2, s, v))


class TestBiggestTorus:
    def test_torus_itself(self):
        assert biggest_torus(A2, torus_subspace(A2)) == ()

    def test_theta_limit(self):
        assert biggest_torus(A2, theta(A2, 0)) == (0,)

    def test_fully_nilpotent_point(self):
        v = span(A2, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]])
        assert biggest_torus(A2, v) == (0, 1, 2)

    def test_conjugated_point_sees_through_conjugation(self):
        v = theta(A2, 0, Fraction(3))
        assert biggest_torus(A2, v) == ()


class TestMultipoint:
    def test_regular_point_decides(self):
        verdict, mp = multipoint_membership(A2, [F(1, 1, 0, 0, 0), F(1, -1, 0, 0, 0)])
        assert verdict == "proven"
        assert mp.witness is not None
        assert all(mp.witness.contains(p) for p in mp.points)

    def test_noncommuting_refuted(self):
        verdict, _ = multipoint_membership(A2, [F(0, 0, 1, 0, 0), F(0, 0, 0, 1, 0)])
        assert verdict == "refuted"

    def test_commuting_nonregular_undecided(self):
        # neither point is regular and the first is not graded, so no
        # torus-fixed subspace contains both: the procedure stays honest
        verdict, _ = multipoint_membership(A2, [F(1, -1, 1, 0, 0), F(0, 0, 0, 0, 1)])
        assert verdict == "unknown"

    def test_nilpotent_pair_through_fixed_point(self):
        verdict, mp = multipoint_membership(A2, [F(0, 0, 1, 0, 0), F(0, 0, 0, 0, 1)])
        assert verdict == "proven"
        assert all(mp.witness.contains(p) for p in mp.points)

    @pytest.mark.parametrize("bad", [F(1, 2, 0, 0), F(1, 2, 0, 0, 0, 7), F(0, 0, 1)])
    def test_wrong_width_point_refused(self, bad):
        for pts in ([bad], [F(1, 1, 0, 0, 0), bad], [bad, F(0, 0, 0, 0, 1)]):
            with pytest.raises(DimensionMismatchError):
                multipoint_membership(A2, pts)

    def test_permutation_invariance(self):
        pts = [F(1, 1, 0, 0, 0), F(0, 0, 0, 0, 1)]
        v1, _ = multipoint_membership(A2, pts)
        v2, _ = multipoint_membership(A2, list(reversed(pts)))
        assert v1 == v2


class TestPairRelation:
    def test_sampling_finds_no_counterexamples(self):
        out = verify_pair_relation(A2, ALPHA, samples=30, seed=0)
        check = out.checks[0]
        assert check.verdict == rep.SAMPLED
        assert check.details["counterexamples"] == []
        assert check.details["samples"] >= 30

    def test_bad_base_point_rejected(self):
        with pytest.raises(BadSliceError):
            verify_pair_relation(A2, ALPHA, samples=5, x0=F(1, 0, 0, 0, 0))

    @pytest.mark.parametrize("bad", [F(0, 1, 0, 0), F(0, 1, 0, 0, 0, 7)])
    def test_wrong_width_base_point_refused(self, bad):
        # (0, 1) is in the punctured kernel of alpha, so only the width is wrong
        with pytest.raises(DimensionMismatchError):
            verify_pair_relation(A2, ALPHA, samples=5, x0=bad)
        with pytest.raises(DimensionMismatchError):
            verify_pair_relation(A2, ALPHA, samples=5, y0=bad)

    @pytest.mark.parametrize("samples", (0, -3))
    def test_no_samples_refused_before_drawing(self, samples, monkeypatch):
        """Without a sample a `sampled` check would carry no evidence."""
        from orbitvar import orbit

        monkeypatch.setattr(orbit, "_t_alpha_prime_sample", lambda *a: pytest.fail("a point was drawn"))
        with pytest.raises(OrbitError, match="samples"):
            verify_pair_relation(A2, ALPHA, samples=samples)

    def test_seed_determinism(self):
        a = verify_pair_relation(A2, BETA, samples=10, seed=7)
        b = verify_pair_relation(A2, BETA, samples=10, seed=7)
        assert a.render_json() == b.render_json()


class TestCertifiedSubspacesAreCommutative:
    def test_all_certified_subspaces(self):
        # every subspace this module certifies as a closure point must be
        # a commutative subalgebra containing the center
        for alg in (A2, A3):
            certified = [r.subspace for r in torus_fixed_points(alg)]
            certified += [c.base_point for c in boundary_components(alg)]
            certified.append(torus_subspace(alg))
            center = alg.center()
            for v in certified:
                assert is_commutative_subalgebra(alg, v)
                for r in range(center.rows):
                    assert v.contains(list(center.row(r)) + [0] * alg.n)

    def test_center_containment_nontrivial_center(self):
        alg = WeightedLieAlgebra.build(2, ["x"], {"x": [1, 1]}, [])
        center = alg.center()
        assert center.rows == 1
        for r in torus_fixed_points(alg):
            assert r.subspace.contains(list(center.row(0)) + [0] * alg.n)


class TestCentralizerOfTorusElement:
    def test_regular(self):
        c = centralizer_of(A2, torus_element_data(A2, lambda_of(A2, F(1, 1, 0, 0, 0))).lam)
        assert c == torus_subspace(A2)

    def test_singular(self):
        c = centralizer_of(A2, torus_element_data(A2, lambda_of(A2, F(1, -1, 0, 0, 0))).lam)
        assert c == span(A2, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]])
