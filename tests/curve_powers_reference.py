"""A curve in z as one matrix per power of z, the layout `CurveSubspace`
once stored: `coeffs[k]` is the d x dim matrix of the z^k coefficients
of the d basis rows, shorter rows padded with zero vectors.
`CurveSubspace` now holds each basis row's own tuple of z^k coefficient
vectors, the last one nonzero.  Tests build and read curves in the
per-power layout through this module: `from_powers` makes a curve of it,
`powers` reads a curve back into it, and `padded_to_json` is
`CurveSubspace.to_json` as it rendered that layout, kept as the
reference the row rendering is checked against."""

from orbitvar.linalg import Matrix, entry
from orbitvar.orbit import CurveSubspace, _render_polynomial


def from_powers(alg, coeffs) -> CurveSubspace:
    """The curve whose basis row i is sum_k z^k coeffs[k][i]; each
    coeffs[k] is a `Matrix` or a list of rows.  Each row keeps its
    coefficient vectors up to its last nonzero one (a zero row keeps its
    constant vector, as `_exp_row` leaves one)."""
    mats = [m.entries if isinstance(m, Matrix) else m for m in coeffs]
    rows = []
    for vectors in zip(*mats):
        vectors = [tuple(map(entry, v)) for v in vectors]
        while len(vectors) > 1 and not any(vectors[-1]):
            vectors.pop()
        rows.append(tuple(vectors))
    return CurveSubspace(alg, tuple(rows))


def powers(curve: CurveSubspace) -> tuple[Matrix, ...]:
    """The per-power matrices of a curve, up to its highest degree."""
    top = max((len(row) for row in curve.rows), default=1)
    zero = curve.alg.zero()
    return tuple(
        Matrix(len(curve.rows), curve.alg.dim, tuple(row[k] if k < len(row) else zero for row in curve.rows))
        for k in range(top)
    )


def padded_to_json(curve: CurveSubspace) -> dict:
    """`to_json` over the padded per-power matrices: each basis row's
    coefficient rows, transposed back out of `powers`."""
    rows = zip(*(m.entries for m in powers(curve)))
    basis = [[_render_polynomial(cs) for cs in zip(*row)] for row in rows]
    return {"dim": len(basis), "basis": basis}
