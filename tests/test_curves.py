"""Curves as coefficient matrices: `act`, `CurveSubspace.limit` and
`to_json` against sympy references (products of `exp(z ad x)` as
`sympy.Matrix`, limits through Plücker minors), on generated graded
algebras with random formal, scalar and mixed words, on the builtins, A4
and the central extensions of heisenberg-3 with their witness curves,
and on bases that move a fixed subspace."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from test_liealg_sparse import RATIONALS
from test_memo import SMALL, Z, fraction_rows, reference_act, sympy_curve
from test_property_p import BUILTINS, VARIANTS, borel_nilradical_a4, heisenberg_central_extension

from orbitvar import models, orbit
from orbitvar.liealg import WeightedLieAlgebra
from orbitvar.linalg import Matrix, PluckerVector, RankDeficientError, plucker_limit
from curve_powers_reference import from_powers
from plucker_reference import plucker_to_basis
from witness_reference import witness_limit


# the named algebras the sympy references also run on
CASES = {
    **{name: lambda name=name: models.builtin(name) for name in BUILTINS},
    **{f"heisenberg-3-central-v{v}": lambda v=v: heisenberg_central_extension(v) for v in VARIANTS},
    "borel-nilradical-A4": lambda: borel_nilradical_a4(0),
}


def words(alg):
    """Words of up to four factors; a factor's scalar is None (the formal
    parameter z) or a rational."""
    return st.lists(st.tuples(st.integers(0, alg.n - 1), st.one_of(st.none(), RATIONALS)), max_size=4)


def reference_limit(alg, m):
    """The limit as z -> infinity of the row space of the sympy matrix m:
    the top-degree coefficients of its maximal minors, made a basis again."""
    cols = itertools.combinations(range(m.cols), m.rows)
    minors = [m.extract(list(range(m.rows)), list(c)).det(method="berkowitz") for c in cols]
    p = plucker_limit(PluckerVector(m.cols, m.rows, tuple(minors)), Z)
    return orbit.Subspace(alg, plucker_to_basis(p))


@st.composite
def moving_bases(draw):
    """A constant subspace in a basis that moves with z: the rows of a
    full-rank integer matrix B, mixed by row operations row_i += c z^k row_j
    and each multiplied by a power of z.  At every z != 0 the span is that
    of B, and so is the limit."""
    alg = models.builtin("borel-nilradical-A2")
    d = draw(st.integers(1, 4))
    entries = st.lists(st.integers(-2, 2), min_size=alg.dim, max_size=alg.dim)
    b = draw(st.lists(entries, min_size=d, max_size=d).filter(lambda rows: sympy.Matrix(rows).rank() == d))
    m = sympy.Matrix(b)
    for _ in range(draw(st.integers(0, 6)) if d > 1 else 0):
        i, j = draw(st.permutations(range(d)))[:2]
        m[i, :] = m[i, :] + draw(RATIONALS.filter(bool)) * Z ** draw(st.integers(0, 3)) * m[j, :]
    for i in range(d):
        m[i, :] = Z ** draw(st.integers(0, 2)) * m[i, :]
    return alg, b, m.expand()


class TestCurvesMatchSympyReference:
    @settings(max_examples=40)
    @given(spec=moving_bases())
    def test_limit_of_a_moving_basis(self, spec):
        alg, b, m = spec
        got = sympy_curve(alg, m).limit()
        assert got == orbit.Subspace.from_rows(alg, b)
        assert got == reference_limit(alg, m)

    @settings(max_examples=25)
    @given(spec=SMALL, data=st.data())
    def test_act_at_and_to_json(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        word = data.draw(words(alg))
        got = orbit.act(alg, word, orbit.torus_subspace(alg))
        want = reference_act(alg, word)
        if all(z is not None for _, z in word):
            assert got == orbit.Subspace.from_rows(alg, fraction_rows(want))
            return
        assert isinstance(got, orbit.CurveSubspace)
        assert got == sympy_curve(alg, want)
        c = data.draw(RATIONALS)
        at_c = orbit.act(alg, [(i, c if z is None else z) for i, z in word], orbit.torus_subspace(alg))
        assert at_c == orbit.Subspace.from_rows(alg, fraction_rows(want.subs(Z, c)))
        assert got.to_json() == {
            "dim": want.rows,
            "basis": [[str(sympy.expand(e)) for e in want.row(r)] for r in range(want.rows)],
        }

    @settings(max_examples=15)
    @given(spec=SMALL, data=st.data())
    def test_limit(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        word = data.draw(words(alg).filter(lambda w: any(z is None for _, z in w)))
        got = orbit.act(alg, word, orbit.torus_subspace(alg))
        assert got.limit() == reference_limit(alg, reference_act(alg, word))


class TestNamedAlgebrasMatchSympyReference:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_act_and_limit(self, name):
        alg = CASES[name]()
        rng = random.Random(name)
        t = orbit.torus_subspace(alg)
        for _ in range(4):
            word = [
                (rng.randrange(alg.n), rng.choice([None, Fraction(rng.randint(-3, 3), rng.randint(1, 3))]))
                for _ in range(rng.randint(1, 3))
            ]
            got, want = orbit.act(alg, word, t), reference_act(alg, word)
            if all(z is not None for _, z in word):
                assert got == orbit.Subspace.from_rows(alg, fraction_rows(want))
                continue
            assert got == sympy_curve(alg, want)
            assert got.limit() == reference_limit(alg, want)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_witness_limits(self, name):
        alg = CASES[name]()
        subsets = [
            s
            for size in range(min(alg.n, 2) + 1)
            for s in itertools.combinations(range(alg.n), size)
            if alg.centralizer_in_a(s)
        ]
        # A4's Plücker minors are slow in sympy: a sample of its subsets
        for s in random.Random(name).sample(subsets, min(len(subsets), 8)):
            want = reference_act(alg, [(i, None) for i in alg.weight_order() if i in s])
            got = orbit.fixed_point_record(alg, s).subspace if orbit._independent_abelian(alg, s) else witness_limit(alg, s)
            assert got == reference_limit(alg, want)


def curve(alg, *coeffs):
    """A curve on the first columns of alg, zero-padded to its dimension."""
    pad = [Fraction(0)] * (alg.dim - len(coeffs[0][0]))
    return from_powers(alg, [[list(r) + pad for r in m] for m in coeffs])


class TestHandMadeCurves:
    alg = models.builtin("borel-nilradical-A2")

    def test_reduction_step_across_a_degree_gap(self):
        # rows e1 and e0 + z e2 + z^2 e1 share the leading row e1; the
        # second minus z^2 times the first is e0 + z e2, leading row e2
        c = curve(self.alg, [[0, 1, 0], [1, 0, 0]], [[0, 0, 0], [0, 0, 1]], [[0, 0, 0], [0, 1, 0]])
        assert c.limit() == orbit.Subspace.from_rows(self.alg, [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])

    def test_rank_deficient_curve_raises(self):
        # rows e0 and z e0 span a line at every z
        c = curve(self.alg, [[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]])
        with pytest.raises(RankDeficientError):
            c.limit()
