"""Plücker coordinates and the reconstruction of a subspace from them,
kept here as the reference that curve limits (`CurveSubspace.limit`) are
checked against: the maximal minors of a basis, their antisymmetric
lookup and the rref basis rebuilt from a decomposable vector.  The
package itself works on bases; `linalg` keeps only `PluckerVector`,
`normalize_plucker` and `plucker_limit`."""

import itertools
from typing import Sequence

from orbitvar.linalg import (
    LinAlgError,
    Matrix,
    PluckerVector,
    RankDeficientError,
    det,
    normalize_plucker,
    row_space_basis,
)


class NotDecomposableError(LinAlgError):
    pass


def index_subsets(n: int, d: int) -> list[tuple[int, ...]]:
    """Plücker coordinate index order: size-d subsets of range(n), lex."""
    return list(itertools.combinations(range(n), d))


def subsets(p: PluckerVector) -> list[tuple[int, ...]]:
    """The index subsets of p's coordinates, in their order."""
    return index_subsets(p.ambient, p.dim)


def _perm_sign(t: Sequence[int]) -> int:
    sign = 1
    t = list(t)
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            if t[i] > t[j]:
                sign = -sign
    return sign


def coord(p: PluckerVector, subset: Sequence[int]):
    """Antisymmetric lookup: arbitrary index tuple, with sign."""
    t = tuple(subset)
    if len(set(t)) != len(t):
        return 0
    c = p.coords[subsets(p).index(tuple(sorted(t)))]
    return c if _perm_sign(t) == 1 else -c


def plucker(basis: Matrix) -> PluckerVector:
    """Plücker coordinates (maximal minors) of a d x n basis matrix."""
    d, n = basis.rows, basis.cols
    coords = []
    for cols in index_subsets(n, d):
        sub = Matrix.from_rows([[basis[i, c] for c in cols] for i in range(d)])
        coords.append(det(sub))
    if all(c == 0 for c in coords):
        raise RankDeficientError("basis matrix does not have full row rank")
    return PluckerVector(n, d, tuple(coords))


def plucker_eq(p: PluckerVector, q: PluckerVector) -> bool:
    return normalize_plucker(p) == normalize_plucker(q)


def plucker_to_basis(p: PluckerVector) -> Matrix:
    """Reconstruct a basis (rref rows) from a decomposable Plücker vector."""
    p = normalize_plucker(p)
    j0 = next(i for i, c in enumerate(p.coords) if c != 0)
    J = subsets(p)[j0]
    rows = []
    for pos in range(p.dim):
        row = []
        for k in range(p.ambient):
            t = list(J)
            t[pos] = k
            row.append(coord(p, t))
        rows.append(row)
    basis = row_space_basis(Matrix.from_rows(rows))
    if basis.rows != p.dim:
        raise NotDecomposableError("Plücker vector is not decomposable")
    if not plucker_eq(plucker(basis), p):
        raise NotDecomposableError("Plücker vector is not decomposable")
    return basis
