"""The weight-set walks against the loops over all 2^n weight subsets
kept here: `complete_subsets` (closing each flat with one more weight)
and the torus-fixed-point enumeration (extending each kept subset by a
larger index), on the builtins, central extensions of heisenberg-3, A4
in several presentations and, for the complete subsets, generated
algebras (`test_memo.TestFixedPoints` compares the fixed points of
generated algebras with a subset loop); and counts known independently
on the Borel nilradicals A2-A5: the complete subsets are the set
partitions of m + 1 points, so their number is a Bell number."""

import itertools
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings

from test_liealg_sparse import ALGEBRAS
from test_property_p import BUILTINS, VARIANTS, borel_nilradical_a4, heisenberg_central_extension

from orbitvar import models, orbit
from orbitvar.liealg import WeightedLieAlgebra
from orbitvar.linalg import rank

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
            if ws and rank(alg.weight_matrix(ws)) != len(ws):
                continue
            if not alg.centralizer_in_a(subset):
                continue
            v, z_v = orbit._fixed_point_subspace(alg, subset)
            if orbit.witness_limit(alg, subset) != v:
                raise orbit.OrbitError("witness curve limit mismatch")
            out.append(orbit.FixedPointRecord(v, subset, z_v, "torus", orbit.witness_curve(alg, subset)))
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
