"""Orbit-closure geometry in the Grassmannian Gr(r, d).

The group generated by the exponentials of ad a moves the torus t
around; this module computes that action exactly, keeps a curve in z as
its basis rows, each the tuple of its z^k coefficient vectors (the one
layout `_exp_row` builds, `limit` reduces and `to_json` renders), takes
curve limits by row reduction (one incremental echelon of the leading
rows per pass),
enumerates fixed points, and certifies (or refutes) membership of
subspaces and point tuples in the closure.  The fixed-point subspaces
read their torus kernels from the algebra's grown kernels
(`WeightedLieAlgebra.kernel`) and hand `Subspace` their canonical bases
directly; `Subspace` still checks each one.  A fixed-point record, the
one memoised value of its weight set S, holds S, its witness curve and
the curve's limit z_S + a_S, once verified; the report derives dim z_S
and the list's name from them, and the torus t is the limit of the
empty set's record.  The property (P) data of a weight set read their
center from the same kernels, render the weights once and build no
centralizer: the precondition reads V's a-support.  The group-fixed points
are the torus records, not copies, whose weight sets pass a size test
and a bracket-support test, which together hold exactly when z_S + a_S
is an ideal (`group_fixed_points`), so no bracket is summed to find
them.  Queries run at certificate cost: an orbit word is found and
verified in one forward pass from t, compared as rows (`_orbit_word`),
commutativity stops at the first nonzero bracket coordinate
(`WeightedLieAlgebra.commuting`), and the centralizer of a point
on which no weight vanishes is its conjugation's inverse word applied
to t (`multipoint_membership`).  Queries also answer from what their
input already certifies: a commutative torus graph on a table where it
must be a torus is its own semisimple span (`biggest_torus`), and points
that the torus-fixed point of their a-support holds are answered by that
record before any centralizer is built (`multipoint_membership`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .liealg import (
    ENUMERATION_CAP,
    EXP_AD_CHAIN,
    AlgebraError,
    EnumerationCapError,
    NotClosedUnderJordanError,
    Weight,
    WeightedLieAlgebra,
    memoised,
)
from .linalg import (
    Matrix,
    RankDeficientError,
    entry,
    exact_div,
    in_row_space,
    lowered,
    row_space_basis,
    rref,  # noqa: F401  perfbench/test_perfbench.py::test_tracer_restores_every_wrapped_function patches it
)
from .linalg import plucker_limit  # noqa: F401  perfbench/test_perfbench.py::test_tracer_restores_every_wrapped_function patches it
from . import report as rep


class OrbitError(Exception):
    pass


class DimensionMismatchError(OrbitError):
    pass


class PreconditionFailedError(OrbitError):
    pass


class BadSliceError(OrbitError):
    pass


class NonCanonicalBasisError(OrbitError):
    """A `Subspace` basis that is not the nonzero rows of an rref."""


@dataclass(frozen=True)
class Subspace:
    """A subspace of r, held as its canonical basis: the nonzero rows of
    its reduced row echelon form.  `contains`, `pivots`, `dim` and `==`
    read that basis directly, so it must already be canonical; a basis
    with a zero row, pivots that do not increase, a pivot entry other
    than 1 or another nonzero entry in a pivot column is refused with
    `NonCanonicalBasisError`.  The check keeps the pivot columns as
    `pivots`.  `Subspace.from_rows` builds one from arbitrary rows."""

    alg: WeightedLieAlgebra
    basis: Matrix  # canonical rref rows

    def __post_init__(self):
        """Check the basis and keep its pivot columns, each row's first
        nonzero entry, as `pivots`: one plain loop per row finds them."""
        if self.basis.cols != self.alg.dim:
            raise DimensionMismatchError(f"{self.basis.cols} columns != dim {self.alg.dim}")
        rows = self.basis.entries
        found = []
        for row in rows:
            for j, e in enumerate(row):
                if e:
                    found.append(j)
                    break
            else:
                raise NonCanonicalBasisError("a basis row is zero")
        piv = tuple(found)
        for a, b in zip(piv, piv[1:]):
            if a >= b:
                raise NonCanonicalBasisError(f"pivot columns {piv} do not increase")
        # a later row is zero before its own, later pivot, so only the
        # rows above can break a pivot column
        for i, p in enumerate(piv):
            if rows[i][p] != 1:
                raise NonCanonicalBasisError(f"pivot column {p} is not a unit column")
            for k in range(i):
                if rows[k][p]:
                    raise NonCanonicalBasisError(f"pivot column {p} is not a unit column")
        object.__setattr__(self, "pivots", piv)

    @staticmethod
    def from_rows(alg: WeightedLieAlgebra, rows: Sequence[Sequence]) -> "Subspace":
        return Subspace(alg, row_space_basis(Matrix.from_rows(rows)) if rows else Matrix(0, alg.dim, ()))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, v: Sequence[Fraction]) -> bool:
        return in_row_space(v, self.basis, self.pivots)

    def __eq__(self, other) -> bool:
        """Equal bases of one algebra; the algebras compare by identity
        first, since nearly every comparison is within one algebra
        object, and by value only when they are two objects."""
        return (
            isinstance(other, Subspace)
            and self.basis == other.basis
            and (self.alg is other.alg or self.alg == other.alg)
        )

    def __hash__(self):
        return hash(self.basis)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "basis": [[str(e) for e in row] for row in self.basis.entries],
        }


@dataclass(frozen=True)
class CurveSubspace:
    """The curve z -> span of the rows sum_k z^k rows[i][k]: rows[i] is
    basis row i's tuple of z^k coefficient vectors, from k = 0 to its
    degree, the last one nonzero, as `_exp_row` returns them."""

    alg: WeightedLieAlgebra
    rows: tuple[tuple[tuple, ...], ...]

    def limit(self) -> Subspace:
        """The limit as z -> infinity by row reduction (Wolovich's row-reduced
        form; Beckermann, Labahn and Villard, 2006).  While the leading rows
        (top coefficients) of the basis rows are dependent, the row h of
        highest degree D in a dependency sum_i a_i lead_i = 0 becomes
        sum_i a_i z^(D - deg_i) row_i.  As a_h is a nonzero constant, that
        is invertible at every z != 0, so the span there and the limit stay;
        the new row has degree below D, so the total degree drops and the
        loop ends.  Then row_i / z^deg_i tends to lead_i, and the span to
        theirs.  A row that vanishes shows the rows dependent.

        Each pass takes one incremental rref of the leading rows, in
        ascending degree (ties by index), and each echelon row keeps its
        combination of the leading rows.  The first leading row that
        reduces to 0 gives a dependency with coefficient 1 on that row and
        support on rows of no higher degree, so it is the row h replaced.
        When none does, the echelon rows, sorted by pivot, are the
        canonical basis of the span of the leading rows.  The limit is
        unique, so it does not depend on which dependency a pass uses."""
        rows = list(self.rows)
        while True:
            if not all(rows):
                raise RankDeficientError("the basis rows of the curve are dependent")
            echelon: list[tuple[int, list, dict]] = []  # (pivot, row, combination)
            for h in sorted(range(len(rows)), key=lambda i: len(rows[i])):
                v, comb = list(rows[h][-1]), {h: 1}
                for p, e, c in echelon:
                    f = v[p]
                    if f:
                        for j, b in enumerate(e):
                            if b:
                                v[j] -= f * b
                        for i, a in c.items():
                            comb[i] = comb.get(i, 0) - f * a
                p = next((j for j, x in enumerate(v) if x), None)
                if p is None:
                    break
                if v[p] != 1:
                    x = v[p]
                    v = [exact_div(y, x) if y else y for y in v]
                    comb = {i: exact_div(a, x) for i, a in comb.items()}
                support = [(j, y) for j, y in enumerate(v) if y]
                for _, e, c in echelon:
                    g = e[p]
                    if g:
                        for j, y in support:
                            e[j] -= g * y
                        for i, a in comb.items():
                            c[i] = c.get(i, 0) - g * a
                echelon.append((p, v, comb))
            else:
                basis = tuple(lowered(e) for _, e, _ in sorted(echelon, key=lambda t: t[0]))
                return Subspace(self.alg, Matrix(len(basis), self.alg.dim, basis))
            new = [[0] * self.alg.dim for _ in rows[h]]
            for i, f in comb.items():
                if f:
                    for acc, coef in zip(new[len(new) - len(rows[i]) :], rows[i]):
                        for j, y in enumerate(coef):
                            if y:
                                acc[j] += f * y
            while new and not any(new[-1]):
                new.pop()
            rows[h] = new

    def to_json(self) -> dict:
        basis = [[_render_polynomial(cs) for cs in zip(*row)] for row in self.rows]
        return {"dim": len(basis), "basis": basis}


def _render_polynomial(coeffs: Sequence[Fraction]) -> str:
    """sum_k coeffs[k] z^k as `str(sympy.Add(...))` prints it: terms by
    descending degree with the constant last (`render_sum`).  A
    polynomial with no nonzero term past the constant, as most curve
    coordinates are, prints as `str` of its constant (`0` for none),
    which is the text `render_sum` gives it, without building terms."""
    if not any(coeffs[1:]):
        return str(coeffs[0])
    terms = reversed(tuple(enumerate(coeffs)))
    return render_sum([(("z" if k == 1 else f"z**{k}",) if k else (), c) for k, c in terms if c])


def render_sum(terms: list) -> str:
    """A sum of terms as sympy's `str` prints it, from (factors, c) pairs
    with c a nonzero int or `Fraction` and factors the texts of the term's
    variable powers (none for the constant), both in sympy's order.  The
    terms come in that order too, except that a positive constant with
    one negative term of one variable comes first (`1 - z`,
    `10 - 5*z/12`, `2 - x**2`), as in sympy's `Expr.as_ordered_terms`.
    Each term prints as its numerator (when not 1), its factors joined
    by `*`, and `/` its denominator (when not 1); a sign between terms
    prints as ` + ` or ` - `."""
    if not terms:
        return "0"
    if len(terms) == 2 and not terms[1][0] and len(terms[0][0]) == 1 and terms[1][1] > 0 > terms[0][1]:
        terms = terms[::-1]
    text = ""
    for factors, c in terms:
        text += (" - " if c < 0 else " + ") if text else ("-" if c < 0 else "")
        a = abs(c)
        if not factors:
            text += str(a)
            continue
        power = "*".join(factors)
        text += power if a.numerator == 1 else f"{a.numerator}*{power}"
        if a.denominator != 1:
            text += f"/{a.denominator}"
    return text


@dataclass(frozen=True)
class FixedPointRecord:
    subspace: Subspace  # z_S + a_S, the verified limit of `witness`
    r_v_set: tuple[int, ...]  # S, weight indices
    witness: CurveSubspace

    def to_json(self, fixed_under: str) -> dict:
        """The record as printed in the list of points fixed under
        `fixed_under` ("torus" or "group").  z_S + a_S is a direct sum
        and a_S has one basis vector per index of S, so dim z_S is
        dim V - |S|."""
        alg = self.subspace.alg
        return {
            "subspace": self.subspace.to_json(),
            "weights": [alg.weights[i].as_strings() for i in self.r_v_set],
            "z_v_dim": self.subspace.dim - len(self.r_v_set),
            "fixed_under": fixed_under,
            "witness_curve": self.witness.to_json()["basis"],
        }


@dataclass(frozen=True)
class MultiPoint:
    points: tuple
    witness: Subspace | None


def torus_subspace(alg: WeightedLieAlgebra) -> Subspace:
    """t, spanned by the first t_dim basis vectors: the subspace of the
    record of (), whose curve is those basis vectors."""
    return fixed_point_record(alg, ()).subspace


def _own(alg: WeightedLieAlgebra, v: Subspace | TorusElementData) -> None:
    """Refuse, with `DimensionMismatchError`, a subspace or torus-element
    data of another algebra: its rows are coordinates in that algebra's
    basis.  One of an equal algebra (a fresh instance of the same value)
    is accepted; identity is tested first, so the shared instance costs
    one `is`."""
    if v.alg is not alg and v.alg != alg:
        raise DimensionMismatchError("the subspace belongs to another algebra")


def act(alg: WeightedLieAlgebra, word, v: Subspace):
    """Apply the product of exp(z_i ad x_{alpha_i}) left-to-right to V.
    Scalars are ints or Fractions, converted by `linalg.entry`, which
    refuses a float; None means the shared formal parameter z, and a word
    with one gives a CurveSubspace.  A scalar word maps V's basis rows by
    `WeightedLieAlgebra._word_rows`, the one route of a scalar word, since
    a scalar maps each row on its own.  Otherwise each row is kept as its
    z^k coefficient vectors: a formal factor is `_exp_row`, and a scalar
    factor maps each coefficient vector by `_word_rows`.

    [x_k, r] lies in a, so exp(z ad x_k) fixes the torus part of every
    row.  When V's pivots all lie on the torus, the rows of a scalar
    word's image keep V's pivot columns, with 1 at each row's own pivot
    and 0 at the others and before it: they are already the canonical
    basis, and no row reduction runs.  A weight index outside
    range(alg.n) raises `OrbitError` before any factor is applied, and
    a V of another algebra raises `DimensionMismatchError` (`_own`)."""
    _own(alg, v)
    n = alg.n
    checked = []
    for widx, scalar in word:
        if not 0 <= widx < n:
            raise OrbitError(f"weight index {widx} is outside range({n})")
        checked.append((widx, None if scalar is None else entry(scalar)))
    word = checked
    if all(scalar is not None for _, scalar in word):
        image = Matrix(v.dim, alg.dim, tuple(alg._word_rows(word, v.basis.entries)))
        return Subspace(alg, image if all(p < alg.t_dim for p in v.pivots) else row_space_basis(image))
    polys = [[row] for row in v.basis.entries]
    for widx, scalar in reversed(word):
        if scalar is None:
            polys = [_exp_row(alg, widx, p) for p in polys]
        else:
            polys = [alg._word_rows(((widx, scalar),), p) for p in polys]
    return CurveSubspace(alg, tuple(map(tuple, polys)))


def _exp_row(alg: WeightedLieAlgebra, widx: int, poly: list[tuple]) -> list[tuple]:
    """exp(z ad x_widx), z the formal parameter, applied to the row
    sum_b z^b poly[b], as sum_j poly[b][j] sum_m z^m chain(j)[m] over the
    nonzero entries j of each poly[b], where chain(j) is the memoised
    sparse chain (ad x_widx)^m e_j / m! (`exp_ad_chain`): term m of
    chain(j) adds to the z^(b+m) coefficient, its term 0 being e_j, so
    each poly[b] starts as itself, and trailing zero coefficients are
    dropped.  Only nonzero entries are multiplied or added, and the
    coefficients come back with their whole Fractions lowered to ints.
    A chain already built is read straight from the algebra's memo;
    `exp_ad_chain` runs only to build one.  A scalar z is
    `WeightedLieAlgebra._word_rows`."""
    memo = alg._memo
    out = [list(p) for p in poly]
    for b, p in enumerate(poly):
        for j, c in enumerate(p):
            if c:
                chain = memo.get((EXP_AD_CHAIN, widx, j)) or alg.exp_ad_chain(widx, j)
                for m, term in enumerate(chain[1:], b + 1):
                    if m == len(out):
                        out.append(list(alg.zero()))
                    acc = out[m]
                    for i, e in term:
                        acc[i] += c * e
    while len(out) > 1 and not any(out[-1]):
        out.pop()
    return [lowered(acc) for acc in out]


def weight_index(alg: WeightedLieAlgebra, alpha: Weight) -> int:
    for i, w in enumerate(alg.weights):
        if w == alpha:
            return i
    raise OrbitError("weight not in the algebra")


def is_commutative_subalgebra(alg: WeightedLieAlgebra, v: Subspace) -> bool:
    """Every two basis rows of V commute (`WeightedLieAlgebra.commuting`,
    which sums each bracket over the rows' nonzero entries only).  A V of
    another algebra raises `DimensionMismatchError` (`_own`)."""
    _own(alg, v)
    return alg.commuting(v.basis.entries)


def _fixed_point_subspace(alg: WeightedLieAlgebra, subset: tuple[int, ...]) -> Subspace:
    """z_S + a_S for a weight subset S, z_S = ker W_S padded with zeros
    on a.  Its rows are already canonical, so no row reduction is taken:
    the kernel rows (`WeightedLieAlgebra.kernel`, grown along the subset
    tree) are the nonzero rows of an rref, supported on the torus
    columns, and the weight vectors of sorted(S) follow them as unit
    rows on increasing a-columns, where every kernel row is 0.
    `Subspace` still checks that the basis is canonical."""
    pad = (0,) * alg.n
    rows = tuple(row + pad for row in alg.kernel(subset).entries)
    rows += tuple(alg.weight_vector(i) for i in sorted(subset))
    return Subspace(alg, Matrix(len(rows), alg.dim, rows))


def _independent_abelian(alg: WeightedLieAlgebra, subset: tuple[int, ...]) -> bool:
    """The weight vectors of `subset` pairwise commute and its weights are
    linearly independent: the subsets that index torus-fixed points.  The
    weights are independent exactly when each one, added in sorted order,
    cuts the kernel by a dimension, that is when dim ker W_S is
    t_dim - |S| (`WeightedLieAlgebra.kernel`)."""
    return alg.centralizer_in_a(subset) and alg.kernel(subset).rows == alg.t_dim - len(subset)


FIXED_POINT_RECORD = "fixed-point-record"  # memo key of `fixed_point_record`


@memoised(FIXED_POINT_RECORD, subset=True)
def fixed_point_record(alg: WeightedLieAlgebra, subset: tuple[int, ...]) -> FixedPointRecord:
    """The torus-fixed point z_S + a_S of an independent abelian subset S
    and its witness curve exp(z ad x_i) ... exp(z ad x_j) t, kept once the
    curve's limit is verified to be that point.  A limit that differs
    raises `OrbitError`; neither it nor one that raises is kept.

    The curve is that of the longest prefix of S whose record is kept
    (t's rows when none is) with exp(z ad x_k) applied row by row
    (`_exp_row`) for each index k past it; in the fixed-point walk that
    prefix is S less its largest index, so each curve costs one factor.
    Any factor order gives the same curve: by Jacobi ad is a map of Lie
    algebras, so [x_i, x_j] = 0 gives [ad x_i, ad x_j] = 0, and the
    exponentials of commuting nilpotent maps commute.  Precondition: the
    weight vectors of S pairwise commute and the algebra satisfies
    Jacobi (the CLI validates it first)."""
    memo = alg._memo
    rows, done = tuple((alg.basis_vector(i),) for i in range(alg.t_dim)), 0
    for size in range(len(subset) - 1, -1, -1):
        kept = memo.get((FIXED_POINT_RECORD, subset[:size]))
        if kept is not None:
            rows, done = kept.witness.rows, size
            break
    for k in subset[done:]:
        rows = tuple(tuple(_exp_row(alg, k, row)) for row in rows)
    curve = CurveSubspace(alg, rows)
    limit = curve.limit()
    if limit != _fixed_point_subspace(alg, subset):
        raise OrbitError("witness curve limit mismatch")
    return FixedPointRecord(limit, subset, curve)


def fixed_point_of(alg: WeightedLieAlgebra, v: Subspace, graded: tuple[int, ...] | None) -> FixedPointRecord | None:
    """The record of `torus_fixed_points` whose subspace is V, or None,
    with `graded = graded_subset(alg, v)`.  The record of S contains the
    weight vectors of exactly S, so S = graded is the only candidate: it
    is a record when it is independent and abelian, and V's record when
    z_S + a_S equals V.  This costs one record, not the enumeration."""
    _own(alg, v)
    if graded is None or not _independent_abelian(alg, graded):
        return None
    recd = fixed_point_record(alg, graded)
    return recd if recd.subspace == v else None


def torus_fixed_points(alg: WeightedLieAlgebra) -> tuple[FixedPointRecord, ...]:
    """All torus-fixed points of the closure: independent abelian weight
    subsets S, each giving z_V + a_S with a verified witness-curve limit.
    The subsets are walked once per algebra and each record is built
    once (`fixed_point_record`), so a repeat call reads them back."""
    return tuple(fixed_point_record(alg, subset) for subset in _fixed_point_subsets(alg))


@memoised("fixed-point-subsets")
def _fixed_point_subsets(alg: WeightedLieAlgebra) -> tuple[tuple[int, ...], ...]:
    """The independent abelian weight subsets, in (size, lexicographic)
    order; walked once per algebra.  Grows the subsets from () breadth
    first, extending each only by a larger index whose weight vector
    commutes with it and whose weight keeps it independent.  Both
    properties pass to subsets, so every such subset is reached from its
    prefix; the prefixes come in lexicographic order, so the subsets come
    in (size, lexicographic) order.  A walk that would keep more than
    `ENUMERATION_CAP` subsets raises `EnumerationCapError` instead."""
    subsets = [()]
    for subset in subsets:  # grows while it is walked
        for j in range(subset[-1] + 1 if subset else 0, alg.n):
            if _independent_abelian(alg, subset + (j,)):
                if len(subsets) == ENUMERATION_CAP:
                    raise EnumerationCapError(f"more than {ENUMERATION_CAP} torus-fixed points to enumerate")
                subsets.append(subset + (j,))
    return tuple(subsets)


@memoised("group-fixed-points")
def group_fixed_points(alg: WeightedLieAlgebra) -> tuple[FixedPointRecord, ...]:
    """Torus-fixed points that are ideals with central part equal to the
    center of the whole algebra, enumerated once per algebra: the
    records of `torus_fixed_points`, in its order, of the subsets S that
    pass two tests read off the weights and the bracket table, with a
    record built only for those:

    - |S| = t_dim - dim z(r);
    - every bracket-table entry (i, j, terms) with i or j in S has all
      of its terms in S.

    For an independent S the two tests hold exactly when V = z_S + a_S,
    z_S = ker W_S, is an ideal, on any bracket table, graded or not.  V
    is an ideal when the bracket of each basis vector of r with each
    spanning vector of V lies in V:

    - [t, z_S] = 0 and [t, x_s] = w_s(t) x_s, so [t, V] lies in V always;
    - [x_k, z] = -w_k(z) x_k for z in z_S.  S is independent, so z_S has
      dimension t_dim - |S|, and it contains z(r) = ker W_all; the size
      test holds exactly when z_S = z(r), that is when every weight
      vanishes on z_S, and then [a, z_S] = 0.  Conversely, in an ideal
      V an x_k with w_k nonzero on z_S lies in V, which meets a in a_S,
      so k is in S, where w_k vanishes on z_S by definition: every
      weight vanishes on z_S, and the size test holds;
    - [x_k, x_s], s in S, is the sum of one entry's terms, whose indices
      are distinct and whose coefficients are nonzero, and it lies in
      a, which V meets in a_S.  So it lies in V exactly when all of
      the entry's terms are in S, which is the support test.

    The records are the memoised ones `torus_fixed_points` returns, not
    copies, and each still has its witness limit verified
    (`fixed_point_record`)."""
    size = alg.t_dim - alg.center().rows
    out = []
    for subset in _fixed_point_subsets(alg):
        if len(subset) != size:
            continue
        inside = set(subset)
        if all(k in inside for i, j, terms in alg.brackets if i in inside or j in inside for k, _ in terms):
            out.append(fixed_point_record(alg, subset))
    return tuple(out)


@dataclass(frozen=True)
class BoundaryComponent:
    weight_idx: int
    base_point: Subspace
    orbit_dim: int

    def to_json(self, alg: WeightedLieAlgebra) -> dict:
        return {
            "weight": alg.weights[self.weight_idx].as_strings(),
            "base_point": self.base_point.to_json(),
            "orbit_dim": self.orbit_dim,
        }


def boundary_components(alg: WeightedLieAlgebra) -> list[BoundaryComponent]:
    """One component per weight: the closed group-orbit through
    V_alpha = t_alpha + a^alpha, with its orbit dimension n - dim(N(V_alpha)
    cap a), counted by `_stabilizer_dim`.  The base point is the limit
    z_S + a_S, S = {alpha}, of exp(z ad x_alpha) t, read from the record
    of S: exp(z ad x_i) t_p = t_p - z w_i(t_p) x_i, whose limit is z_S + a_S
    for every nonzero w_i.  A nonzero center, a repeated weight, a bracket
    off the grading or a zero weight (whose curve is t) raises
    `PreconditionFailedError`; `validate` refuses each of these but the
    first."""
    if alg.center().rows != 0:
        raise PreconditionFailedError("boundary components need a trivial center")
    if len(set(alg.weights)) != alg.n or alg._off_grade():
        raise PreconditionFailedError("boundary orbit dimensions need one-dimensional weight spaces and graded brackets")
    out = []
    for i in alg.weight_order():
        if alg.weights[i].is_zero():
            raise PreconditionFailedError(f"the limit of exp(z ad x_{i}) t is not t_alpha + a^alpha")
        v_alpha = fixed_point_record(alg, (i,)).subspace
        out.append(BoundaryComponent(i, v_alpha, alg.n - _stabilizer_dim(alg, (i,))))
    return out


def _stabilizer_dim(alg: WeightedLieAlgebra, subset: tuple[int, ...]) -> int:
    """dim(N(V) cap a), N(V) = {y : [y, V] in V}, for V = z_S + a_S on an
    algebra whose brackets respect the grading and whose weight spaces
    are one-dimensional: the number of x_k with k in S or w_k vanishing
    on ker W_S, and every [x_k, x_s], s in S, supported in S.

    The stabilizer in a is the kernel of y -> ([y, v] mod V) over the
    rows v of V: those of z_S and the x_s.  [x_k, t] = -w_k(t) x_k, and
    [x_k, x_s] is a multiple of the one x_m with w_m = w_k + w_s.  Both
    lie in a, which V meets in a_S, so each is its own residue unless it
    lies in a_S, and then the residue is 0.  The weights are distinct,
    so for each row v distinct x_k leave residues on distinct
    coordinates: the residue rows of the x_k have disjoint supports.
    The nonzero ones are independent, and the kernel is spanned by the
    x_k whose residue row is 0.  Against the rows of z_S that is k in S
    or w_k vanishing on ker W_S; against x_s it is [x_k, x_s] in a_S."""
    inside = set(subset)
    escapes = set()
    for i, j, terms in alg.brackets:
        if (i in inside or j in inside) and any(k not in inside for k, _ in terms):
            if j in inside:
                escapes.add(i)
            if i in inside:
                escapes.add(j)
    ker = alg.kernel(subset).entries
    return sum(
        1
        for k, w in enumerate(alg.weights)
        if k not in escapes and (k in inside or not any(w(row) for row in ker))
    )


# -- membership -------------------------------------------------------


@dataclass(frozen=True)
class MembershipVerdict:
    kind: str  # "orbit" | "limit" | "refuted" | "unknown"
    params: tuple = ()  # (weight index, scalar) pairs for orbit verdicts
    witness: CurveSubspace | None = None
    reason: str = ""

    @property
    def certified(self) -> bool:
        return self.kind in ("orbit", "limit")


def membership(alg: WeightedLieAlgebra, v: Subspace) -> MembershipVerdict:
    """Semi-decision for membership of V in the orbit closure X.

    Route order:
    1. a V that is not a commutative subalgebra is refuted;
    2. on a zero center, `check_jordan_preconditions` raises for an
       algebra that fails Jacobi or nilpotency, before any certificate;
    3. the certificate of V's shape.  A torus-graph V (pivots on the
       torus) gets an orbit word, found and verified in one forward pass
       from t (`_orbit_word`).  A torus-stable V is matched with the
       one fixed point it can be, z_S + a_S for S = `graded_subset(V)`
       (`fixed_point_of`), whose record verified its witness curve's
       limit to be V;
    4. only when no certificate verifies, the refutations (`_refutation`):
       V must contain the center, and on a zero center it must hold the
       semisimple part of each of its basis vectors.  Otherwise the
       answer is `unknown` with the reason of V's shape.

    Certifying first gives the verdict that refuting first gives: a
    verified certificate puts V in X, and both refutations test
    conditions that every point of X satisfies, so neither fires on a
    certified V.  So each kind, reason and witness is the refute-first
    one, and a certified V skips the Jordan decompositions.  The orbit
    word is the forward factorisation, lowest depth and height applied
    first.  On
    an algebra that fails `validate` with a nonzero center (no
    precondition is checked there), an exp(ad) chain that does not end
    raises `AlgebraError` in step 3 even for a V that misses the
    center, which refuting first would have refuted.  A V of another
    algebra raises `DimensionMismatchError` first (`_own`)."""
    _own(alg, v)
    if v.dim != alg.t_dim:
        raise DimensionMismatchError(f"dim {v.dim} != {alg.t_dim}")
    if not is_commutative_subalgebra(alg, v):
        return MembershipVerdict("refuted", reason="not a commutative subalgebra")
    if v.dim and alg.center().rows == 0:
        alg.check_jordan_preconditions()
    if v.pivots == tuple(range(alg.t_dim)):
        params = _orbit_word(alg, v)
        if params is not None:
            return MembershipVerdict("orbit", params=params)
        unknown = "torus-graph subspace without orbit certificate"
    else:
        graded = graded_subset(alg, v)
        recd = fixed_point_of(alg, v, graded)
        if recd is not None:
            return MembershipVerdict("limit", witness=recd.witness)
        unknown = "no certificate route applies" if graded is None else "graded but not of fixed-point shape"
    reason = _refutation(alg, v)
    return MembershipVerdict("refuted" if reason else "unknown", reason=reason or unknown)


def _refutation(alg: WeightedLieAlgebra, v: Subspace) -> str | None:
    """Why V fails a necessary condition for membership, or None.  Every
    point of X contains the center, which each exp(ad x) fixes; and on a
    zero center every point of X holds the semisimple parts of its
    elements."""
    z = alg.center()
    if z.rows:
        pad = (0,) * alg.n
        if not all(v.contains(row + pad) for row in z.entries):
            return "does not contain the center"
        return None
    for row in v.basis.entries:
        s, _ = alg.jordan_decompose(row)
        if not v.contains(s):
            return "semisimple part of a member escapes"
    return None


def _orbit_word(alg: WeightedLieAlgebra, v: Subspace) -> tuple | None:
    """A word with `act(word, t) == V` for a torus-graph V, whose
    canonical rows are e_i + phi(e_i), or None; found and verified in
    one forward pass.

    The pass starts from t's rows e_i and walks the weights in
    `factor_order`: by depth in the lower central series, then by
    height.  At weight k, the gap between V's rows and the image rows in
    column d + k must be -z w_k(e_i) in every row i, for one z: with f
    the first row where w_k(e_f) is nonzero, z = -g_f / w_k(e_f), and
    g_i = -z w_k(e_i) is g_i w_k(e_f) = g_f w_k(e_i), compared in
    integers through numerators and denominators, which also asks
    g_i = 0 where w_k(e_i) is 0.  Then exp(z ad a_k) is applied to the
    image rows (`WeightedLieAlgebra._word_rows`), which moves row i by
    -z w_k(e_i) a_k, since [a_k, e_i] = -w_k(e_i) a_k, plus brackets
    [a_k, a_j] of the row's a-part.  The factor keeps the torus part
    e_i of every row, so the weight values on the rows stay the
    weight's coordinates.

    Each factor adds only in its own column and in columns still ahead
    (unless the support series has not emptied; `factor_order`): the
    gap at weight k is closed by its own factor, and no later factor
    opens it.  The pass then ends with the image rows equal to V's rows
    exactly when V is u t for u in the unipotent group, whose one-parameter subgroups in an order that
    refines the lower central series parametrise it (Corwin and
    Greenleaf, *Representations of Nilpotent Lie Groups*, 1.2).  Where a
    later factor can move a column already passed (a table whose a is
    not nilpotent), the last step catches it: the image rows are
    compared with V's canonical rows.  They keep t's torus pivots, so
    they are the canonical basis of word t, and the comparison is the
    equality of canonical bases that `act(word, t) == V` tests, without
    a `Matrix` or a `Subspace` built.  The gap test comes before each
    factor, so a factor whose exp(ad) chain would not end is applied
    only where V's column asks for it.

    `act` applies a word's last factor first, so the word lists the
    factors from the last of `factor_order` down."""
    d = alg.t_dim
    target = v.basis.entries
    rows = torus_subspace(alg).basis.entries
    weights = alg.weights
    word = []
    for k in alg.factor_order():
        col = d + k
        wf = 0  # w_k(e_f), once the first such row f is seen
        for want, row, wv in zip(target, rows, weights[k].coords):
            g, r = want[col], row[col]
            if r:
                g -= r
            if not wv:
                if g:
                    return None
            elif not wf:
                wf, gf = wv, g
                fn, fd = g.numerator, g.denominator * wv
            elif g.numerator * fd != fn * wv * g.denominator:
                return None
        if wf and gf:
            z = exact_div(-gf, wf)
            rows = alg._word_rows(((k, z),), rows)
            word.append((k, z))
    if tuple(rows) != target:
        return None
    return tuple(reversed(word))


# -- property (P) consequences ----------------------------------------


@dataclass(frozen=True)
class TorusElementData:
    """What property (P) reads off a torus element s: `lam`, the weights
    vanishing on s, and `lam_strings`, each of them as `Weight.as_strings`
    renders it; `alg`, the algebra of s; and `center`, the center t_lam
    of its centralizer t + a_lam as vectors of r."""

    lam: tuple[int, ...]
    lam_strings: tuple[tuple[str, ...], ...]
    alg: WeightedLieAlgebra
    center: tuple[tuple, ...]


def torus_element_data(alg: WeightedLieAlgebra, lam: tuple[int, ...]) -> TorusElementData:
    """The data of any torus element s vanishing on exactly the weights
    `lam`.  For a complete lam such an s exists over Q: the other weights
    are nonzero forms on t_lam, and finitely many hyperplanes do not
    cover it.  The center is the memoised kernel of lam, padded with
    zeros on a.  A lam that is not
    complete (`WeightedLieAlgebra.is_complete`) is refused with
    `AlgebraError`: every s vanishing on it also vanishes on the rest of
    its closure, so no s vanishes on exactly lam."""
    if not alg.is_complete(lam):
        raise AlgebraError(f"weights {tuple(lam)} are not complete: no torus element vanishes on exactly them")
    pad = (0,) * alg.n
    center = tuple(row + pad for row in alg.kernel(lam).entries)
    strings = tuple(tuple(alg.weights[i].as_strings()) for i in lam)
    return TorusElementData(lam, strings, alg, center)


def graded_subset(alg: WeightedLieAlgebra, v: Subspace) -> tuple[int, ...] | None:
    """The weights whose vectors a torus-stable V contains; None when V is
    not torus-stable.  Both are read off V's canonical rows, with no
    bracket.

    The joint weight spaces of ad t are coordinate subspaces: one per
    distinct weight, spanned by its x_k, and the weight-0 space, spanned
    by the torus coordinates and any x_k of weight 0.  V is torus-stable
    exactly when it is the sum of its meets with them.  The canonical
    bases of those meets, together and sorted by pivot, are in rref,
    since each row is 0 off its own space and so in every other space's
    pivot columns; so they are V's canonical basis.  Hence V is
    torus-stable exactly when each canonical row lies in one joint
    weight space.  And e_(d+i) is in V exactly when V's row with pivot
    d+i is that unit vector: in rref, a vector's coefficient on a row is
    its entry in that row's pivot column.  A V of another algebra
    raises `DimensionMismatchError` (`_own`)."""
    _own(alg, v)
    d = alg.t_dim
    weights = alg.weights
    zero = (0,) * d
    out = []
    for row, p in zip(v.basis.entries, v.pivots):
        grade = weights[p - d].coords if p >= d else zero
        unit = True
        for j in range(p + 1, len(row)):
            if row[j]:
                if (weights[j - d].coords if j >= d else zero) != grade:
                    return None
                unit = False
        if unit and p >= d:
            out.append(p - d)
    return tuple(out)


def property_P_checks(
    alg: WeightedLieAlgebra, data: TorusElementData, v: Subspace, graded: tuple[int, ...] | None
) -> list[rep.Check]:
    """What membership in the closure of the s-centralizer orbit of t
    implies for V, against the data of s (`torus_element_data`) and with
    `graded = graded_subset(alg, v)`, which is the `r_v_set` of a
    torus-fixed record: center containment, and a witness curve through
    the centralizer when V is graded.

    A graded V is witnessed by the curve of its torus-fixed record
    (`fixed_point_of`), whose limit the record verified to be V; the
    record holds the weight vectors of S, which V's a-support, and so
    lam, then holds.  A proven witness-curve check carries that
    `CurveSubspace` as the witness, not rendered.  A V or data of
    another algebra raises `DimensionMismatchError`.

    The precondition V inside the centralizer t + a_lam, which the
    torus basis vectors and the weight vectors of lam span, is read off
    V's a-support: V lies in t + a_lam exactly when no row of V has a
    nonzero a-coordinate outside lam.  A V that does not raises
    `PreconditionFailedError`."""
    _own(alg, v)
    _own(alg, data)
    lam = set(data.lam)
    d = alg.t_dim
    if any(c and k not in lam for row in v.basis.entries for k, c in enumerate(row[d:])):
        raise PreconditionFailedError("V is not inside the centralizer of s")
    ok = all(v.contains(r) for r in data.center)
    checks = [
        rep.Check(
            "center-containment",
            rep.PROVEN if ok else rep.REFUTED,
            "the center of the centralizer of s lies inside V",
            details={"lambda": [list(w) for w in data.lam_strings]},
        )
    ]
    if not ok:
        return checks
    recd = fixed_point_of(alg, v, graded)
    if recd is not None:
        checks.append(
            rep.Check(
                "witness-curve",
                rep.PROVEN,
                "a curve inside the centralizer of s degenerates to V",
                witness=recd.witness,
            )
        )
    else:
        checks.append(
            rep.Check(
                "witness-curve",
                rep.CONSEQUENCE_CHECKED,
                "no constructive witness; necessary conditions hold",
            )
        )
    return checks


# -- biggest torus, multipoints, pair relation -------------------------


def biggest_torus(alg: WeightedLieAlgebra, v: Subspace) -> tuple[int, ...]:
    """Weight subset L with torus kernel t_L conjugate to the largest
    torus inside V, found from the semisimple parts of a basis of V.  L
    is the set of weights vanishing on the torus part of every one of
    those parts; the torus parts span the projection of their span to t,
    so no row reduction is needed to find L.  The dimension of their
    span, which the torus kernel of L must have, takes one row reduction,
    or none when the parts are V's own canonical rows.

    A V of dimension d = t_dim with torus pivots whose rows commute is a
    torus, on a table that passes `check_jordan_preconditions`, has no
    zero weight and has one term in every bracket entry; its semisimple
    parts are then its rows, whose span has dimension d.  V projects onto
    t, so it holds an x whose torus part x_t lies on no weight's
    hyperplane.  `torus_conjugation` settles on such a table, whose
    support series empties (`factor_order`), and gives g x = x_t,
    nothing being left on a; g is an automorphism by Jacobi, so the
    centralizer of x is g^-1 t, of dimension d.  V is commutative and
    holds x, so it lies in that centralizer, and dimensions give
    V = g^-1 t, every element of which is semisimple: the Jordan
    decomposition of each row is (row, 0), unique since the center is
    zero, and `jordan_decompose` would return exactly that.  Every
    other V takes `jordan_decompose` row by row, including a V on a
    multi-term table, where the conjugation can fail to settle and raise
    `AlgebraError`, which this route must not turn into an answer."""
    _own(alg, v)
    if alg.center().rows != 0:
        raise PreconditionFailedError("biggest torus needs a trivial center")
    if not v.dim:
        return tuple(range(alg.n))
    alg.check_jordan_preconditions()
    if (
        v.pivots == tuple(range(alg.t_dim))
        and not any(w.is_zero() for w in alg.weights)
        and all(len(terms) == 1 for _, _, terms in alg.brackets)
        and alg.commuting(v.basis.entries)
    ):
        s_parts, rank = v.basis.entries, v.dim
    else:
        s_parts = []
        for r in range(v.dim):
            s, _ = alg.jordan_decompose(v.basis.row(r))
            if not v.contains(s):
                raise NotClosedUnderJordanError(
                    "semisimple part of a basis element escapes V"
                )
            s_parts.append(s)
        rank = row_space_basis(Matrix.from_rows(s_parts)).rows
    torus_parts = [s[: alg.t_dim] for s in s_parts]
    lam = tuple(i for i, w in enumerate(alg.weights) if not any(w(t) for t in torus_parts))
    if alg.kernel(lam).rows != rank:
        raise OrbitError("semisimple span does not match a torus kernel dimension")
    return lam


def multipoint_membership(alg: WeightedLieAlgebra, points: Sequence[Sequence]) -> tuple[str, MultiPoint]:
    """Do the given points lie in a common element of the closure?  Their
    coordinates are converted by `linalg.entry`, which refuses a float.

    Route order:
    1. points that do not pairwise commute are refuted
       (`WeightedLieAlgebra.commuting`);
    2. when the first point has a vanishing weight and every weight of
       the union U of the points' a-supports vanishes on every point's
       torus part, U's torus-fixed point answers `proven` if U is
       independent and abelian and its record holds every point;
    3. the first regular point, if any, answers `proven` with its
       centralizer;
    4. otherwise U's record answers `proven` if it holds every point,
       and the answer is `unknown` if not.

    Step 3 cannot answer anything else: the points pairwise commute, and
    the bracket table is antisymmetric, so each of them lies in ker ad p
    for every p among them.  The containment is still checked, and a
    centralizer that misses a point raises `OrbitError`, since that is
    a fault of the program and not a verdict.

    Step 2 gives the answer of steps 3 and 4 without a centralizer.  A
    point lies in z_U + a_U exactly when its a-support lies in U and the
    weights of U vanish on its torus part, which is what the step tests
    before it builds the record.  z_U + a_U is commutative (the weights
    of U vanish on z_U and U is abelian) and has dimension d = t_dim (U
    is independent).  So when some point p is regular, its centralizer,
    of dimension d, contains z_U + a_U, which holds p, and equals it;
    when none is, step 4 answers with that same record.  The step reads
    the first point's weight values, which step 3 reads anyway, and a
    first point on which no weight vanishes skips it: step 3 decides
    such a point by its own centralizer, which is regular, at the cost
    of a conjugation on an algebra that passes Jacobi and nilpotency.

    In step 3, a point p on which no weight vanishes, on an algebra
    whose `validate` table passes Jacobi and nilpotency, is regular, and
    its centralizer comes from its own conjugation: `torus_conjugation`
    gives the word of g^-1, for g p = p_t (no weight vanishes at p_t, so
    nothing is left on a), and the centralizer of p_t is t, so that of p
    is g^-1 t, that word applied to t's basis rows (`_word_rows`).
    Those rows keep t's torus pivots, so they are the canonical basis:
    no `ad` matrix and no `nullspace`.  Every other
    point takes `centralizer` and is regular when that has t_dim rows.
    `Subspace` checks either basis.

    In step 4, the answer is the first record of `torus_fixed_points`,
    in its (size, lexicographic) order, that holds every point, and it
    is found without the enumeration.  Every record S that holds them
    all contains U; U is then a record too, as subsets of independent
    abelian sets are, and it holds them all, since its weights are among
    those of S.  Being the smallest, U comes first.  When U is no
    record, or its record misses a point, no record holds them all.  The
    record of U is checked to contain every point before `proven` is
    answered.  Step 2 has always settled this by the time step 4 is
    reached, so step 4 answers `unknown` with no work of its own.  When
    step 2 ran, it asked the same question of the same points
    (`_record_holding`).  When it did not, no weight vanishes on the
    first point's torus part, so U's record can hold that point only for
    an empty U, whose record is t; the point then lies in t, its
    centralizer is t, and step 3 has already answered with it."""
    pts = tuple(tuple(map(entry, p)) for p in points)
    if not pts:
        raise OrbitError("need at least one point")
    if any(len(p) != alg.dim for p in pts):
        raise DimensionMismatchError(f"every point needs {alg.dim} coordinates")
    if not alg.commuting(pts):
        return "refuted", MultiPoint(pts, None)
    d, weights = alg.t_dim, alg.weights
    automorphic = None  # read from the `validate` table once a point needs it
    for k, p in enumerate(pts):
        cent = None
        pt = p[:d]
        lam = [w(pt) for w in weights] if any(pt) else None  # every weight vanishes at 0
        if lam is not None and all(lam):
            if automorphic is None:
                automorphic = all(ok for name, ok, _ in alg.validate() if name in ("jacobi", "nilpotency"))
            if automorphic:
                cent = _conjugated_centralizer(alg, p, lam)
        elif not k:  # step 2, which settles step 4 too
            v = _record_holding(alg, pts, lam)
            if v is not None:
                return "proven", MultiPoint(pts, v)
        if cent is None:
            basis = alg.centralizer(p)
            if basis.rows == d:  # p is regular
                cent = Subspace(alg, basis)
        if cent is not None:
            if not all(cent.contains(q) for q in pts):
                raise OrbitError("the centralizer of a regular point misses a point that commutes with it")
            return "proven", MultiPoint(pts, cent)
    return "unknown", MultiPoint(pts, None)  # step 4


def _record_holding(alg: WeightedLieAlgebra, pts: Sequence[tuple], lam: list | None) -> Subspace | None:
    """The torus-fixed point z_U + a_U of the union U of the points'
    a-supports when U is independent and abelian and z_U + a_U holds
    every point, else None.  `lam` holds the weight values at the first
    point's torus part, None when that is 0.  A point lies in z_U + a_U
    exactly when the weights of U vanish on its torus part, its
    a-support lying in U; that is tested first, from `lam` for the first
    point, and the record is built and checked only when it passes."""
    d, weights = alg.t_dim, alg.weights
    union = tuple(sorted({i for p in pts for i, c in enumerate(alg.a_part(p)) if c}))
    if lam is not None and any(lam[i] for i in union):
        return None
    if any(weights[i](q[:d]) for q in pts[1:] for i in union):
        return None
    if _independent_abelian(alg, union):
        v = fixed_point_record(alg, union).subspace
        if all(v.contains(p) for p in pts):
            return v
    return None


def _conjugated_centralizer(alg: WeightedLieAlgebra, p: tuple, lam: list) -> Subspace | None:
    """The centralizer g^-1 t of a point p with g p = p_t, on an algebra
    that passes Jacobi and nilpotency, for weight values `lam` at p_t
    none of which is 0 (see `multipoint_membership`): the word of g^-1
    from `torus_conjugation` applied to t's basis rows, already the
    canonical basis.  None when the conjugation does not settle."""
    inverse = alg.torus_conjugation(p, lam)
    if inverse is None:
        return None
    rows = alg._word_rows(inverse, torus_subspace(alg).basis.entries)
    return Subspace(alg, Matrix(alg.t_dim, alg.dim, tuple(rows)))


def _t_alpha_prime_sample(alg: WeightedLieAlgebra, aidx: int, rng: random.Random):
    """Small-integer element of the kernel of alpha on which every other
    weight is nonzero."""
    ker = alg.kernel((aidx,))
    for _ in range(1000):
        coefs = [rng.randint(-6, 6) for _ in range(ker.rows)]
        t = [
            entry(sum(a * ker[r, c] for r, a in enumerate(coefs) if a and ker[r, c]))
            for c in range(alg.t_dim)
        ]
        if all(
            alg.weights[j](t) != 0 for j in range(alg.n) if j != aidx
        ):
            return tuple(t) + (0,) * alg.n
    raise BadSliceError("could not sample the punctured kernel slice")


def verify_pair_relation(
    alg: WeightedLieAlgebra,
    alpha: Weight,
    samples: int = 100,
    seed: int = 0,
    x0=None,
    y0=None,
) -> rep.VerificationReport:
    """Sample pairs on the two affine slices attached to alpha and check
    that common-subspace membership is equivalent to the vanishing of
    the 2x2 coupling determinant between the alpha- and torus-components.
    No samples would be no evidence, so samples < 1 is refused.  A zero
    alpha has no slice direction h with alpha(h) = 1, so it is refused
    with `BadSliceError` before any base point is sampled.  Given base
    points are converted by `linalg.entry`, which refuses a float."""
    if samples < 1:
        raise OrbitError(f"samples must be at least 1, not {samples}")
    out = rep.VerificationReport("pair-relation", alg.fingerprint(), seed=seed)
    aidx = weight_index(alg, alpha)
    alpha = alg.weights[aidx]  # equal, and holds the algebra's entries
    # base + s h + c x_alpha with alpha(h) = 1: h has one nonzero entry,
    # 1 / alpha[pivot] at the first coordinate where alpha is nonzero, and
    # x_alpha has a 1 at its own basis index, so only those two entries
    # move
    pivot = next((i for i, c in enumerate(alpha.coords) if c != 0), None)
    if pivot is None:
        raise BadSliceError("the weight is zero, so its slices have no direction")
    rng = random.Random(seed)
    d = alg.t_dim

    def base_point(pt):
        if pt is None:
            return _t_alpha_prime_sample(alg, aidx, rng)
        pt = tuple(map(entry, pt))
        if len(pt) != alg.dim:
            raise DimensionMismatchError(f"base point has {len(pt)} coordinates, not {alg.dim}")
        tpart = alg.torus_part(pt)
        if alpha(tpart) != 0 or any(
            alg.weights[j](tpart) == 0 for j in range(alg.n) if j != aidx
        ):
            raise BadSliceError("base point is not in the punctured kernel of alpha")
        return pt

    x0, y0 = base_point(x0), base_point(y0)
    h_pivot = exact_div(1, alpha.coords[pivot])
    col = d + aidx

    def slice_point(base, s, c):
        pt = list(base)
        if s:
            pt[pivot] += s * h_pivot
        pt[col] += c
        return tuple(pt)

    decided = 0
    skipped = 0
    bad = []
    while decided < samples:
        s1, s2 = rng.randint(-4, 4), rng.randint(-4, 4)
        c1, c2 = rng.randint(1, 4), rng.randint(1, 4)
        if rng.random() < 0.5:
            c1 = -c1
        if rng.random() < 0.5:
            c2 = -c2
        x = slice_point(x0, s1, c1)
        y = slice_point(y0, s2, c2)
        # x_{-a}(y) a(x) - x_{-a}(x) a(y); c1 and c2 are nonzero, s1 and s2 may be 0
        expr = (c2 * s1 if s1 else s1) - (c1 * s2 if s2 else s2)
        verdict, _ = multipoint_membership(alg, [x, y])
        if verdict == "unknown":
            skipped += 1
            if skipped > 50 * samples:
                break
            continue
        decided += 1
        expected = "proven" if expr == 0 else "refuted"
        if verdict != expected:
            bad.append({"x": [str(v) for v in x], "y": [str(v) for v in y], "expr": str(expr)})
    verdict = rep.REFUTED if bad else (rep.SAMPLED if decided >= samples else rep.UNKNOWN)
    out.add(
        "pair-relation",
        verdict,
        "two slice points share a subspace in the closure exactly when the coupling determinant vanishes",
        details={
            "weight": alpha.as_strings(),
            "samples": decided,
            "skipped": skipped,
            "counterexamples": bad,
        },
    )
    return out
