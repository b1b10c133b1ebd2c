"""Exact linear algebra: echelon forms, determinants, nilpotent
exponentials, and Plücker coordinates.  Row reduction and determinants
are cross-checked against sympy's independent implementations.  `apply`,
the matrix-vector product, is kept here for these tests and those of
`liealg` and the memo; the package itself applies no matrix.  The
Plücker coordinates of a basis and the reconstruction from them are the
test reference in `plucker_reference`; `normalize_plucker` and
`plucker_limit` are the package's."""

import random
from fractions import Fraction

import pytest
import sympy

from orbitvar.linalg import (
    LinAlgError,
    Matrix,
    NotNilpotentError,
    PluckerVector,
    RankDeficientError,
    det,
    exp_nilpotent,
    in_row_space,
    normalize_plucker,
    nullspace,
    plucker_limit,
    rank,
    row_space_basis,
    rref,
)
from linalg_reference import solve
from plucker_reference import NotDecomposableError, coord, index_subsets, plucker, plucker_eq, plucker_to_basis, subsets


def apply(m, v):
    """The matrix-vector product m v, over the nonzero coordinates of v."""
    if len(v) != m.cols:
        raise LinAlgError("shape mismatch")
    support = [(j, x) for j, x in enumerate(v) if x != 0]
    return tuple(sum((row[j] * x for j, x in support), Fraction(0)) for row in m.entries)


def frac_matrix(rows):
    return Matrix.from_rows([[Fraction(e) for e in r] for r in rows])


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return frac_matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def sympy_rref(m: Matrix):
    sm = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(str(m[i, j])))
    red, piv = sm.rref()
    return red, tuple(piv)


class TestRref:
    def test_worked_example(self):
        m = frac_matrix([[2, 4], [1, 2]])
        red, piv = rref(m)
        assert red == frac_matrix([[1, 2], [0, 0]])
        assert piv == (0,)

    def test_matches_sympy_oracle(self):
        rng = random.Random(1)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            red, piv = rref(m)
            ored, opiv = sympy_rref(m)
            assert piv == opiv
            for i in range(m.rows):
                for j in range(m.cols):
                    assert sympy.Rational(str(red[i, j])) == ored[i, j]

    def test_idempotent(self):
        rng = random.Random(2)
        m = random_matrix(rng, 4, 6)
        red, piv = rref(m)
        red2, piv2 = rref(red)
        assert red == red2 and piv == piv2

    def test_canonical_under_row_operations(self):
        m = frac_matrix([[1, 2, 3], [0, 1, 1]])
        shuffled = frac_matrix([[0, 2, 2], [1, 2, 3]])
        assert row_space_basis(m) == row_space_basis(shuffled)


class TestRankNullspaceSolve:
    def test_rank_nullity(self):
        rng = random.Random(3)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            ns = nullspace(m)
            assert rank(m) + ns.rows == m.cols
            for r in range(ns.rows):
                assert all(c == 0 for c in apply(m, ns.row(r)))

    def test_solve_roundtrip(self):
        rng = random.Random(4)
        for _ in range(25):
            a = random_matrix(rng, 4, 3)
            x = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            b = apply(a, x)
            sol = solve(a, b)
            assert sol is not None
            assert apply(a, sol) == b

    def test_solve_inconsistent(self):
        a = frac_matrix([[1, 0], [1, 0]])
        assert solve(a, [Fraction(1), Fraction(2)]) is None

    def test_in_row_space(self):
        m = frac_matrix([[1, 0, 1], [0, 1, 1]])
        red, piv = rref(m)
        assert in_row_space([Fraction(2), Fraction(3), Fraction(5)], red, piv)
        assert not in_row_space([Fraction(1), Fraction(0), Fraction(0)], red, piv)


class TestDet:
    def test_matches_sympy_oracle(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            sm = sympy.Matrix(n, n, lambda i, j: sympy.Rational(str(m[i, j])))
            assert sympy.Rational(str(det(m))) == sm.det(method="berkowitz")


class TestEntries:
    def test_integral_entries_become_ints(self):
        m = Matrix.from_rows([[1, Fraction(1, 2), Fraction(4, 2), Fraction(0)]])
        assert m.row(0) == (1, Fraction(1, 2), 2, 0)
        assert [type(e) for e in m.row(0)] == [int, Fraction, int, int]

    def test_float_entry_refused(self):
        with pytest.raises(TypeError):
            Matrix.from_rows([[1, 0.5]])

    def test_symbolic_entry_refused(self):
        with pytest.raises(TypeError):
            Matrix.from_rows([[sympy.Symbol("z")]])


class TestExpNilpotent:
    def test_worked_example(self):
        m = frac_matrix([[0, 1], [0, 0]])
        e = exp_nilpotent(m, Fraction(3))
        assert e == frac_matrix([[1, 3], [0, 1]])

    def test_one_parameter_group(self):
        m = frac_matrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
        a, b = Fraction(2), Fraction(-5)
        assert exp_nilpotent(m, a) @ exp_nilpotent(m, b) == exp_nilpotent(m, a + b)
        assert exp_nilpotent(m, a) @ exp_nilpotent(m, -a) == Matrix.identity(3)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            exp_nilpotent(Matrix.identity(2), Fraction(1))


class TestPlucker:
    def test_worked_example(self):
        m = frac_matrix([[1, 0, 2], [0, 1, 3]])
        p = plucker(m)
        assert p.coords == (Fraction(1), Fraction(3), Fraction(-2))
        assert subsets(p) == index_subsets(3, 2)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientError):
            plucker(frac_matrix([[1, 2, 3], [2, 4, 6]]))

    def test_scaling_by_det_of_row_operation(self):
        m = frac_matrix([[1, 0, 2], [0, 1, 3]])
        # swap rows: every coordinate flips sign
        swapped = frac_matrix([[0, 1, 3], [1, 0, 2]])
        assert plucker(swapped).coords == tuple(-c for c in plucker(m).coords)

    def test_grassmann_relation(self):
        # p01 p23 - p02 p13 + p03 p12 = 0 for any 2x4 matrix
        rng = random.Random(6)
        for _ in range(20):
            m = random_matrix(rng, 2, 4)
            if rank(m) < 2:
                continue
            p = plucker(m)
            c = dict(zip(subsets(p), p.coords))
            assert (
                c[(0, 1)] * c[(2, 3)] - c[(0, 2)] * c[(1, 3)] + c[(0, 3)] * c[(1, 2)]
                == 0
            )

    def test_antisymmetric_lookup(self):
        p = plucker(frac_matrix([[1, 0, 2], [0, 1, 3]]))
        assert coord(p, (1, 0)) == -coord(p, (0, 1))
        assert coord(p, (2, 2)) == 0

    def test_normalize(self):
        p = PluckerVector(3, 2, (Fraction(-2, 3), Fraction(-2), Fraction(4, 3)))
        q = normalize_plucker(p)
        assert q.coords == (Fraction(1), Fraction(3), Fraction(-2))
        scaled = PluckerVector(3, 2, tuple(Fraction(7, 5) * c for c in p.coords))
        assert normalize_plucker(scaled) == q
        with pytest.raises(LinAlgError):
            normalize_plucker(PluckerVector(3, 2, (Fraction(0),) * 3))

    def test_plucker_eq_is_projective(self):
        p = PluckerVector(3, 2, (Fraction(1), Fraction(3), Fraction(-2)))
        q = PluckerVector(3, 2, (Fraction(-2), Fraction(-6), Fraction(4)))
        assert plucker_eq(p, q)


class TestPluckerRoundtrip:
    def test_reconstruction_preserves_row_space(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 5)
            d = rng.randint(1, n - 1)
            m = random_matrix(rng, d, n)
            if rank(m) < d:
                continue
            basis = plucker_to_basis(plucker(m))
            assert row_space_basis(basis) == row_space_basis(m)

    def test_not_decomposable(self):
        # violates the Grassmann relation, so no subspace realizes it
        p = PluckerVector(4, 2, tuple(Fraction(c) for c in (1, 0, 0, 0, 0, 1)))
        with pytest.raises(NotDecomposableError):
            plucker_to_basis(p)


class TestPluckerLimit:
    def test_top_degree_extraction(self):
        z = sympy.Symbol("z")
        p = PluckerVector(3, 1, (sympy.Integer(1), z, z**2))
        lim = plucker_limit(p, z)
        assert lim.coords == (0, 0, 1)

    def test_constant_curve(self):
        z = sympy.Symbol("z")
        p = PluckerVector(3, 1, (sympy.Integer(2), sympy.Integer(4), sympy.Integer(0)))
        lim = plucker_limit(p, z)
        assert normalize_plucker(lim).coords == (1, 2, 0)

    def test_limit_is_normalized_integer_vector(self):
        z = sympy.Symbol("z")
        p = PluckerVector(
            3, 1, (sympy.Rational(1, 2) * z, sympy.Rational(3, 2) * z, sympy.Integer(1))
        )
        lim = plucker_limit(p, z)
        assert lim.coords == (1, 3, 0)
