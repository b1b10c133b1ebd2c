"""`CurveSubspace.limit` as each pass took it before the incremental
echelon: the leading rows are made into a matrix, a dependency among
them is the first row of the `nullspace` of its transpose, the row of
highest degree in its support is replaced, and the limit is the
`row_space_basis` of the independent leading rows.  Kept as the
reference the limit is checked against (`tests/test_grown_echelons.py`)."""

from linalg_reference import transpose

from orbitvar.linalg import Matrix, RankDeficientError, nullspace, row_space_basis
from orbitvar.orbit import Subspace


def nullspace_limit(curve):
    rows = [list(row) for row in curve.rows]
    while True:
        for row in rows:
            while row and not any(row[-1]):
                row.pop()
        if not all(rows):
            raise RankDeficientError("the basis rows of the curve are dependent")
        lead = Matrix.from_rows([row[-1] for row in rows])
        deps = nullspace(transpose(lead))
        if not deps.rows:
            return Subspace(curve.alg, row_space_basis(lead))
        support = [i for i, c in enumerate(deps.row(0)) if c != 0]
        h = max(support, key=lambda i: len(rows[i]))
        new = [[0] * lead.cols for _ in rows[h]]
        for i in support:
            f = deps[0, i]
            for acc, coef in zip(new[len(new) - len(rows[i]) :], rows[i]):
                for j, y in enumerate(coef):
                    if y:
                        acc[j] += f * y
        rows[h] = new
