"""The weight-set walks against the loops over all 2^n weight subsets
kept here: `complete_subsets` (closing each flat with one more weight)
and the torus-fixed-point enumeration (extending each kept subset by a
larger index), on the builtins, central extensions of heisenberg-3, A4
in several presentations and, for the complete subsets, generated
algebras (`test_memo.TestFixedPoints` compares the fixed points of
generated algebras with a subset loop); and counts known independently
on the Borel nilradicals A2-A5: the complete subsets are the set
partitions of m + 1 points, so their number is a Bell number.

The routes that pick fixed points by weight set instead of scanning the
enumeration are pinned to the scans kept here: `group_fixed_points`
against the selection from every torus-fixed record, and the fallback
of `multipoint_membership` against the scan for the first record that
holds every point."""

import itertools
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_reference import weight_matrix
from test_liealg_sparse import ALGEBRAS
from test_memo import reference_group_fixed_points
from test_property_p import BUILTINS, VARIANTS, borel_nilradical_a4, heisenberg_central_extension

from orbitvar import models, orbit
from orbitvar.liealg import WeightedLieAlgebra
from orbitvar.linalg import rank
from orbitvar.orbit import DimensionMismatchError, MultiPoint, OrbitError, Subspace

CASES = {
    **{name: lambda name=name: models.builtin(name) for name in BUILTINS},
    **{f"heisenberg-3-central-v{v}": lambda v=v: heisenberg_central_extension(v) for v in VARIANTS},
    **{f"borel-nilradical-A4-v{v}": lambda v=v: borel_nilradical_a4(v) for v in VARIANTS},
}


def reference_complete_subsets(alg):
    """The closure of every weight subset, deduplicated, sorted."""
    seen = set()
    for size in range(alg.n + 1):
        for s in itertools.combinations(range(alg.n), size):
            ker = alg.torus_kernel([alg.weights[i] for i in s])
            closure = tuple(
                i
                for i, w in enumerate(alg.weights)
                if all(w(ker.row(r)) == 0 for r in range(ker.rows))
            )
            seen.add(closure)
    return sorted(seen)


def reference_torus_fixed_points(alg):
    """Every weight subset in (size, lexicographic) order, kept when its
    weights are independent and its weight vectors commute, with the
    records and the limit check of `orbit`."""
    out = []
    for size in range(alg.n + 1):
        for subset in itertools.combinations(range(alg.n), size):
            ws = [alg.weights[i] for i in subset]
            if ws and rank(weight_matrix(alg, ws)) != len(ws):
                continue
            if not alg.centralizer_in_a(subset):
                continue
            v = orbit._fixed_point_subspace(alg, subset)
            if orbit.witness_limit(alg, subset) != v:
                raise orbit.OrbitError("witness curve limit mismatch")
            out.append(orbit.FixedPointRecord(v, subset, orbit.witness_curve(alg, subset)))
    return tuple(out)


def borel_nilradical(m, variant=0):
    """Strictly upper triangular (m+1) x (m+1) matrices, [e_ij, e_jk] = e_ik,
    with the basis order shuffled by the variant."""
    roots = [(i, j) for i in range(1, m + 2) for j in range(i + 1, m + 2)]
    random.Random(variant).shuffle(roots)
    name = {r: f"e{r[0]}{r[1]}" for r in roots}
    weights = {name[(i, j)]: [1 if i <= k < j else 0 for k in range(1, m + 1)] for i, j in roots}
    brackets = [
        (name[(i, j)], name[(j, k)], {name[(i, k)]: 1})
        for (i, j), (jj, k) in itertools.product(roots, roots)
        if j == jj
    ]
    return WeightedLieAlgebra.build(m, [name[r] for r in roots], weights, brackets)


class TestCompleteSubsets:
    @pytest.mark.parametrize("name", CASES)
    def test_match_subset_loop(self, name):
        alg = CASES[name]()
        assert alg.complete_subsets() == reference_complete_subsets(alg)

    @settings(max_examples=60)
    @given(spec=ALGEBRAS)
    def test_generated_algebras_match_subset_loop(self, spec):
        alg = WeightedLieAlgebra.build(*spec)
        want = reference_complete_subsets(alg)
        assert alg.complete_subsets() == want
        assert all(alg.closure(lam) == lam and alg.is_complete(lam) for lam in want)

    @pytest.mark.parametrize("m, bell", [(2, 5), (3, 15), (4, 52), (5, 203)])
    def test_borel_nilradicals_have_bell_many(self, m, bell):
        assert len(borel_nilradical(m, m).complete_subsets()) == bell


class TestFixedPointWalk:
    @pytest.mark.parametrize("name", CASES)
    def test_match_subset_loop(self, name):
        alg = CASES[name]()
        # the reference reads the curves and limits the walk memoised
        got = orbit.torus_fixed_points(alg)
        assert got == reference_torus_fixed_points(alg)

    def test_a5_has_948_records(self):
        records = orbit.torus_fixed_points(borel_nilradical(5))
        subsets = [r.r_v_set for r in records]
        assert len(set(subsets)) == 948
        assert subsets == sorted(subsets, key=lambda s: (len(s), s))


class TestGroupFixedPoints:
    @pytest.mark.parametrize("name", [*CASES, "borel-nilradical-A5"])
    def test_match_selection_from_every_record(self, name):
        alg = borel_nilradical(5) if name == "borel-nilradical-A5" else CASES[name]()
        group = orbit.group_fixed_points(alg)
        # selected by weight set: a record was built for the group-fixed subsets only
        assert sum(isinstance(k, tuple) and k[0] == "fixed-point-record" for k in alg._memo) == len(group)
        assert group == reference_group_fixed_points(alg, reference_torus_fixed_points(alg))


def reference_multipoint_membership(alg, points):
    """`orbit.multipoint_membership` with its fallback scanning every
    torus-fixed record for the first that holds every point."""
    pts = tuple(tuple(Fraction(c) for c in p) for p in points)
    if not pts:
        raise OrbitError("need at least one point")
    if any(len(p) != alg.dim for p in pts):
        raise DimensionMismatchError(f"every point needs {alg.dim} coordinates")
    for a, b in itertools.combinations(pts, 2):
        if any(c != 0 for c in alg.bracket(a, b)):
            return "refuted", MultiPoint(pts, None)
    for p in pts:
        basis = alg.centralizer(p)
        if basis.rows == alg.t_dim:
            cent = Subspace(alg, basis)
            if all(cent.contains(q) for q in pts):
                return "proven", MultiPoint(pts, cent)
            return "refuted", MultiPoint(pts, None)
    for recd in orbit.torus_fixed_points(alg):
        if all(recd.subspace.contains(p) for p in pts):
            return "proven", MultiPoint(pts, recd.subspace)
    return "unknown", MultiPoint(pts, None)


MULTIPOINT_ALGEBRAS = {name: make() for name, make in CASES.items()}


@st.composite
def point_sets(draw):
    """1-3 points of one algebra: small integer combinations of the basis
    of one torus-fixed record, so that the fallback has a record to find,
    and points with up to three small nonzero coordinates anywhere."""
    name = draw(st.sampled_from(sorted(MULTIPOINT_ALGEBRAS)))
    alg = MULTIPOINT_ALGEBRAS[name]
    v = draw(st.sampled_from(orbit.torus_fixed_points(alg))).subspace
    small = st.integers(-2, 2)
    points = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)):
            coefs = draw(st.lists(small, min_size=v.dim, max_size=v.dim))
            points.append([sum((c * row[k] for c, row in zip(coefs, v.basis.entries)), Fraction(0)) for k in range(alg.dim)])
        else:
            support = draw(st.lists(st.integers(0, alg.dim - 1), max_size=3, unique=True))
            points.append([Fraction(draw(small.filter(bool))) if k in support else Fraction(0) for k in range(alg.dim)])
    return alg, points


class TestMultipointByWeightSet:
    @settings(max_examples=300)
    @given(case=point_sets())
    def test_match_scan_of_every_record(self, case):
        alg, points = case
        assert orbit.multipoint_membership(alg, points) == reference_multipoint_membership(alg, points)

    @pytest.mark.parametrize("name", CASES)
    def test_weight_vectors_of_each_record(self, name):
        """The weight vectors of a record's weights, which no regular point
        decides, get that record or an earlier one, as the scan does."""
        alg = MULTIPOINT_ALGEBRAS[name]
        for recd in orbit.torus_fixed_points(alg):
            points = [alg.weight_vector(i) for i in recd.r_v_set] or [alg.zero()]
            got = orbit.multipoint_membership(alg, points)
            assert got == reference_multipoint_membership(alg, points)
            assert got[0] == "proven"

    def test_fallback_enumerates_nothing(self, monkeypatch):
        alg = models.builtin("borel-nilradical-A3")

        def refuse(alg):
            raise AssertionError("the fixed points were enumerated")

        monkeypatch.setattr(orbit, "_fixed_point_subsets", refuse)
        points = [alg.weight_vector(0), alg.weight_vector(5)]
        verdict, mp = orbit.multipoint_membership(alg, points)
        assert "fixed-point-subsets" not in alg._memo
        monkeypatch.undo()
        assert (verdict, mp) == reference_multipoint_membership(models.builtin("borel-nilradical-A3"), points)
        assert verdict == "proven"
