"""Dense helpers that the package no longer needs, kept for the tests:
solving a linear system, the zero matrix, the transpose, the weight matrix of a list of
weights and the weights vanishing at a torus element.  The package reads
its matrices by rows and takes torus kernels by `_kernel_step`
(`WeightedLieAlgebra.kernel`, `torus_kernel`); the tests use these to
build their references and inputs."""

from typing import Sequence

from orbitvar.liealg import AlgebraError
from orbitvar.linalg import Matrix, rref


def solve(a: Matrix, b: Sequence) -> tuple | None:
    """One solution x of A x = b, or None if inconsistent."""
    aug = Matrix.from_rows([list(a.row(i)) + [b[i]] for i in range(a.rows)])
    rr, piv = rref(aug)
    if a.cols in piv:
        return None
    x = [0] * a.cols
    for r, p in enumerate(piv):
        x[p] = rr[r, a.cols]
    return tuple(x)


def zero(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, ((0,) * cols,) * rows)


def transpose(m: Matrix) -> Matrix:
    return Matrix.from_rows([tuple(row[j] for row in m.entries) for j in range(m.cols)])


def weight_matrix(alg, weights=None) -> Matrix:
    """The weights (all of `alg`'s by default) as the rows of a matrix
    with t_dim columns."""
    ws = alg.weights if weights is None else tuple(weights)
    if not ws:
        return Matrix(0, alg.t_dim, ())
    return Matrix.from_rows([list(w.coords) for w in ws])


def lambda_of(alg, s: Sequence) -> tuple[int, ...]:
    """Indices of the weights vanishing on the torus element s; an s with
    a nonzero a-part raises `AlgebraError`."""
    if any(alg.a_part(s)):
        raise AlgebraError("lambda_of expects a torus element")
    ts = alg.torus_part(s)
    return tuple(i for i, w in enumerate(alg.weights) if w(ts) == 0)
