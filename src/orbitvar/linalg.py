"""Exact linear algebra over the rationals.  An entry is an `int` when it
is integral and a `fractions.Fraction` only when its denominator is not
1: `entry` converts a value at the library edge and refuses anything
else (a float, a symbol) with `TypeError`, `exact_div` is the one
division, so no float can arise, and `lowered` turns the whole
`Fraction`s that sums and products of entries leave back into ints;
`bounded_fraction` reads a number from outside with a bound on its
size, checked before a decimal exponent is expanded.
Since `str`, `==` and `hash` agree across the two types, the split
shows in no verdict or report.  `orbit` keeps a curve in z as its
basis rows, each a tuple of its z^k coefficient vectors.
The package reads a `Matrix` only by its rows, applies none to a vector
and solves no system with one:
`liealg` sums brackets and exp(ad) chains from its sparse adjoint table.
`det`, `PluckerVector`, `normalize_plucker` and `plucker_limit` (the
limit of a curve of polynomial Plücker coordinates) stay as API, and
the reconstruction of a subspace from its Plücker vector, the reference
that tests check curve limits against, is `tests/plucker_reference.py`.
`exp_nilpotent` and `nilpotent_terms` likewise stay only as API and as
the dense reference for the memoised exp(ad) chains of `liealg`;
nothing else in the package calls them.  The row-reduction kernels
(`rref`, `reduce_mod_rowspace`) do arithmetic only on nonzero entries:
rows are sparse, and a zero is skipped by a truth test instead of being
multiplied or added."""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class LinAlgError(Exception):
    pass


class NotNilpotentError(LinAlgError):
    pass


class RankDeficientError(LinAlgError):
    pass


def entry(e):
    """An exact rational as the package holds it: an int when it is
    integral, else a Fraction.  Only ints and Fractions are entries; a
    float or a symbol raises `TypeError`."""
    if type(e) is int:
        return e
    if isinstance(e, Fraction):
        return e.numerator if e.denominator == 1 else e
    if isinstance(e, int):
        return int(e)
    raise TypeError(f"entries are Fractions or ints, not {type(e).__name__}")


# Fraction's decimal syntax with an exponent: sign, whole digits,
# fractional digits, exponent
_DECIMAL_EXPONENT = re.compile(r"\s*[-+]?(?=\d|\.\d)(\d+(?:_\d+)*)?(?:\.(\d+(?:_\d+)*)?)?[eE]([-+]?\d+(?:_\d+)*)\s*")


def bounded_fraction(value, below: int) -> Fraction | None:
    """Fraction(value) for an int or a string `Fraction` reads, or None
    when the absolute value of its numerator or its denominator is not
    below `below`.  A decimal exponent is checked before the number is
    formed, so "1e9999999" is refused at once rather than built in
    seconds.  With m the digits of the mantissa (D of them, leading
    zeros dropped) and e the exponent less the count of fractional
    digits, the value is m * 10**e.  For e >= 0 its numerator is at
    least 10**e, and for e = -k its reduced denominator is at least
    10**k / m > 10**(k - D); and 10**x >= 2**(3x) > below once 3x
    reaches the bit length of below.  Otherwise |e| is below a third of
    that bit length plus D, so the number formed is small, and it is
    compared exactly."""
    if isinstance(value, str) and (match := _DECIMAL_EXPONENT.fullmatch(value)):
        whole, part, exp = (g.replace("_", "") if g else "" for g in match.groups())
        digits = (whole + part).lstrip("0")
        if not digits:
            value = 0  # a zero whatever its exponent, which is not formed
        else:
            try:
                shift = int(exp) - len(part)
            except ValueError:  # an exponent past Python's digit limit
                return None
            if 3 * max(shift, -shift - len(digits)) >= below.bit_length():
                return None
    number = Fraction(value)
    return number if abs(number.numerator) < below and number.denominator < below else None


def exact_div(a, b):
    """a / b for entries a and b, as an entry: the one division of the
    package, so an int quotient never becomes a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return entry(Fraction(a, b))


def lowered(v) -> tuple:
    """v as a tuple, each whole Fraction lowered to its int.  Sums and
    products of entries are entries except that they may be whole
    Fractions; any other value (a polynomial entry of `bracket`, say)
    passes unchanged."""
    if Fraction not in map(type, v):
        return tuple(v)
    return tuple(e.numerator if type(e) is Fraction and e.denominator == 1 else e for e in v)


@dataclass(frozen=True)
class Matrix:
    """Row-major entries, each an `entry`.  `from_rows` converts its
    input; the constructor takes entries already converted."""

    rows: int
    cols: int
    entries: tuple  # row-major tuple of tuples

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        """A matrix of the given rows, each value converted by `entry`:
        ints and Fractions, whole ones as ints; anything else raises
        `TypeError`."""
        data = tuple(tuple(map(entry, row)) for row in rows)
        r = len(data)
        c = len(data[0]) if r else 0
        if any(len(row) != c for row in data):
            raise LinAlgError("ragged rows")
        return Matrix(r, c, data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch")
        return Matrix.from_rows(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def scale(self, c) -> "Matrix":
        return Matrix.from_rows(
            [[c * self.entries[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinAlgError("shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.entries[i][0] * other.entries[0][j]
                for k in range(1, self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return Matrix.from_rows(out)

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form over the rationals.  Returns (rref, pivot
    columns).  The pivot row is divided by its pivot (`exact_div`) only
    when the pivot is not 1, and it is subtracted from another row only
    over its own nonzero columns, all at the pivot column or later.  A
    subtraction in ints leaves ints; one with a Fraction multiplier or
    pivot row is followed by `lowered`.  So on a matrix of entries every
    entry returned is an int or a Fraction with a denominator above 1.
    A matrix built directly with values other than ints and Fractions
    is converted by `Matrix.from_rows` first, which refuses a float."""
    if not {int, Fraction}.issuperset(map(type, itertools.chain.from_iterable(m.entries))):
        m = Matrix.from_rows(m.entries)
    rows = list(map(list, m.entries))
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        for pr in range(r, nr):
            if rows[pr][c]:
                break
        else:
            continue
        prow = rows[pr]
        rows[r], rows[pr] = prow, rows[r]
        p = prow[c]
        if p != 1:
            for j in range(c, nc):
                if prow[j]:
                    prow[j] = exact_div(prow[j], p)
        support = [(j, b) for j, b in enumerate(prow) if b]  # none before column c
        whole = Fraction not in map(type, prow)
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for j, b in support:
                    row[j] -= f * b
                if not whole or type(f) is not int:
                    rows[i] = list(lowered(row))
        pivots.append(c)
        r += 1
    return Matrix(nr, nc, tuple(map(tuple, rows))), tuple(pivots)


def row_space_basis(m: Matrix) -> Matrix:
    """Canonical basis (nonzero rref rows) of the row space."""
    rr, piv = rref(m)
    return Matrix(len(piv), m.cols, rr.entries[: len(piv)])


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> Matrix:
    """Canonical basis of the right kernel (rows of the result): its
    reduced row echelon basis, from one `rref` R of m with its columns
    reversed.  Index R by the columns of m: then each row r of R is 0 to
    the right of its pivot p_r, where R had the columns before it.

    Each column f of m with no pivot gives the kernel vector
    e_f - sum_r R[r][f] e_(p_r), and R[r][f] is 0 unless f < p_r.  So
    the vector has its 1 at f, its other entries only at pivot columns
    p > f, and a 0 at every other free column.  Sorted by f, the vectors
    have their leading 1s in increasing columns and nothing else in those
    columns.  They are therefore in reduced row echelon form, and a row
    space has only one such basis, so they are the canonical basis a
    second `rref` of any kernel basis would give."""
    n = m.cols
    rr, piv = rref(Matrix(m.rows, n, tuple(row[::-1] for row in m.entries)))
    pivots = set(piv)
    basis = []
    for f in reversed(range(n)):  # column n - 1 - f of m, in increasing order
        if f not in pivots:
            v = [0] * n
            v[n - 1 - f] = 1
            for row, p in zip(rr.entries, piv):
                if row[f]:
                    v[n - 1 - p] = -row[f]
            basis.append(tuple(v))
    return Matrix(len(basis), n, tuple(basis))


def reduce_mod_rowspace(v: Sequence, basis: Matrix, pivots: tuple[int, ...]) -> tuple:
    """Residue of v after clearing pivot coordinates against an rref basis;
    each basis row is subtracted over its nonzero entries, which start at
    its pivot."""
    w = list(v)
    for row, p in zip(basis.entries, pivots):
        f = w[p]
        if f:
            for j in range(p, len(w)):
                if row[j]:
                    w[j] -= f * row[j]
    return lowered(w)


def in_row_space(v: Sequence, basis: Matrix, pivots: tuple[int, ...]) -> bool:
    return not any(reduce_mod_rowspace(v, basis, pivots))


def det(m: Matrix):
    """Determinant by expansion over column subsets, memoised on the
    columns left at each row."""
    if m.rows != m.cols:
        raise LinAlgError("not square")
    n = m.rows
    if n == 0:
        return 1
    # memo[(i, cols)] = det of rows i.. on the given column tuple
    memo: dict = {}

    def go(i: int, cols: tuple[int, ...]):
        if i == n:
            return 1
        key = cols
        if key in memo:
            return memo[key]
        acc = 0
        for k, c in enumerate(cols):
            e = m[i, c]
            if e == 0:
                continue
            sub = go(i + 1, cols[:k] + cols[k + 1 :])
            acc += e * sub if k % 2 == 0 else -e * sub
        memo[key] = acc = entry(acc)
        return acc

    return go(0, tuple(range(n)))


def nilpotent_terms(m: Matrix) -> tuple[Matrix, ...]:
    """The terms m^k / k! of exp(m) for nilpotent m, from k = 0 up to the
    last nonzero power."""
    n = m.rows
    if m.cols != n:
        raise LinAlgError("not square")
    terms = [Matrix.identity(n)]
    power = Matrix.identity(n)
    for k in range(1, n + 1):
        power = power @ m
        if power.is_zero():
            return tuple(terms)
        terms.append(power.scale(Fraction(1, math.factorial(k))))
    raise NotNilpotentError("matrix is not nilpotent")


def exp_nilpotent(m: Matrix, z, terms: tuple[Matrix, ...] | None = None) -> Matrix:
    """exp(z*m) for nilpotent m; z an int or a Fraction.  `terms`, when given, must
    be `nilpotent_terms(m)`, kept by a caller that exponentiates the same
    m again."""
    if terms is None:
        terms = nilpotent_terms(m)
    acc = terms[0]
    zk = 1
    for k in range(1, len(terms)):
        zk = zk * z
        acc = acc + terms[k].scale(zk)
    return acc


@dataclass(frozen=True)
class PluckerVector:
    ambient: int
    dim: int
    coords: tuple  # indexed by the size-dim subsets of range(ambient), in lex order

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def normalize_plucker(p: PluckerVector) -> PluckerVector:
    """Scale so entries are coprime integers and the first nonzero is positive."""
    if p.is_zero():
        raise LinAlgError("zero Plücker vector")
    fracs = [Fraction(c) for c in p.coords]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [f * den for f in fracs]
    g = math.gcd(*(abs(int(v)) for v in ints))
    ints = [int(v) // g for v in ints]
    first = next(v for v in ints if v != 0)
    if first < 0:
        ints = [-v for v in ints]
    return PluckerVector(p.ambient, p.dim, tuple(ints))


def plucker_limit(p: PluckerVector, z) -> PluckerVector:
    """Limit point in the Grassmannian as z -> infinity: top-degree
    coefficients of the polynomial coordinate vector, normalized.  The
    coordinates are sympy expressions in the sympy Symbol z."""
    import sympy

    polys = [sympy.Poly(sympy.expand(c), z) for c in p.coords]
    if all(pp.is_zero for pp in polys):
        raise LinAlgError("zero curve")
    top = max(pp.degree() for pp in polys if not pp.is_zero)
    coeffs = []
    for pp in polys:
        if pp.is_zero or pp.degree() < top:
            coeffs.append(0)
        else:
            c = pp.LC()
            coeffs.append(entry(Fraction(int(sympy.numer(c)), int(sympy.denom(c)))))
    return normalize_plucker(PluckerVector(p.ambient, p.dim, tuple(coeffs)))
