"""Weight-graded nilpotent Lie algebras with a torus action.

An algebra here is r = t + a: a torus t of dimension d acting on a
nilpotent part a graded by a multiplicity-one set of weights.  Elements
of r are coordinate tuples over the rationals, ordered torus coordinates
first, then the a-basis in declared order.  Weights, structure constants
and every vector computed here hold the entries of `linalg`: an int when
integral, a Fraction otherwise.  `build` converts its input with
`linalg.entry` (refusing a float or a symbol), sums start from 0, the
divisions of `exp_ad_chain` and `torus_conjugation` go through
`linalg.exact_div`, and whole Fractions in a result are lowered to ints
(`linalg.lowered`).  A scalar word exp(z_1 ad a_k1) ... acts on rows
by one route, `_word_rows`, summed from the memoised single-weight
chains; the Jordan conjugation is such a word.  The torus kernel of
each weight subset is kept as its canonical basis and grown from the
kernel of the subset less its largest index by one elimination
(`kernel`, `_kernel_step`), so the walks over weight subsets take no
`rref`; the center is the kernel of all the weights, kept as that
canonical basis (`center`).  The Jacobi
and nilpotency verdicts are computed only inside the memoised
`validate` table, which `jordan_decompose`'s precondition check reads.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import (
    Matrix,
    bounded_fraction,
    entry,
    exact_div,
    lowered,
    nullspace,
    rank,
    row_space_basis,
)


class AlgebraError(Exception):
    pass


class CenterNotTrivialError(AlgebraError):
    """Raised when an operation needs a faithful adjoint (zero center)."""


class NotClosedUnderJordanError(AlgebraError):
    pass


class EnumerationCapError(AlgebraError):
    """A weight-subset enumeration would pass `ENUMERATION_CAP` sets."""


@dataclass(frozen=True, order=True)
class Weight:
    """A weight of the torus, as a covector in the dual torus basis."""

    coords: tuple  # entries (linalg.entry)

    def __call__(self, t_coords: Sequence):
        """The pairing with a torus element, summed from 0 over the terms
        where both coordinates are nonzero; a weight coordinate 1 adds
        the torus coordinate itself, which is that product exactly."""
        total = 0
        for a, b in zip(self.coords, t_coords):
            if a and b:
                total += b if a == 1 else a * b
        return total

    def height(self):
        return sum(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def proportional_to(self, other: "Weight") -> bool:
        n = len(self.coords)
        return all(
            self.coords[i] * other.coords[j] == self.coords[j] * other.coords[i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def as_strings(self) -> list[str]:
        return [str(c) for c in self.coords]


def weight_sort_key(w: Weight):
    return (w.height(), w.coords)


# `from_json` refuses an algebra with t_dim + n past this: building it
# allocates (t_dim + n)^2 adjoint columns and the Jacobi check walks
# C(n, 3) triples.  `validate` at t_dim 2, n 126 takes about 0.4 s.
JSON_DIM_MAX = 128

# `complete_subsets` and `orbit`'s fixed-point walk raise
# `EnumerationCapError` once they find more sets than this.  Both can
# grow as 2^n (`abelian:d` has 2^d of each); the A6 Borel nilradical,
# the largest algebra the tests walk, has 8,020 fixed points and 877
# flats.
ENUMERATION_CAP = 2**13

EXP_AD_CHAIN = "exp-ad-chain"  # memo key prefix of `exp_ad_chain`

_MEMO_KEYS: dict[str, str] = {}  # memo key -> the function that keeps values under it


def memoised(key: str, subset: bool = False, grown: bool = False):
    """Decorate a function of an algebra and hashable arguments whose
    value depends only on them and is immutable.  The first call keeps
    the value in the algebra's memo, under `key`, or `(key, *args)` when
    there are arguments; every later call is one lookup.  A call that
    raises keeps nothing.  A key that another function uses is refused.

    With `subset` the argument is a weight subset: the memo and the
    function get its sorted tuple, and on a miss a repeated index or one
    outside range(n) raises `AlgebraError`.  With `grown` the value of S
    reads that of S less its largest index: a miss first fills the
    missing prefixes of S, shortest first, so that read is a hit and no
    call recurses along the prefixes."""

    def decorate(compute):
        owner = f"{compute.__module__}.{compute.__qualname__}"
        if _MEMO_KEYS.setdefault(key, owner) != owner:
            raise ValueError(f"memo key {key!r} is already used by {_MEMO_KEYS[key]}")
        if compute.__code__.co_argcount == 1:
            # defaults, not closure cells: a hit costs what a plain method's `in` test did
            def value(alg, _key=key, _compute=compute):
                try:
                    return alg._memo[_key]
                except KeyError:
                    return alg._memo.setdefault(_key, _compute(alg))
        elif subset or grown:
            def value(alg, indices):
                sub = tuple(sorted(indices))
                try:
                    return alg._memo[key, sub]
                except KeyError:
                    return fill(alg, sub)
        else:
            def value(alg, *args):
                try:
                    return alg._memo[(key, *args)]
                except KeyError:
                    return alg._memo.setdefault((key, *args), compute(alg, *args))

        def fill(alg, sub):
            if sub and (sub[0] < 0 or sub[-1] >= len(alg.weights)) or len(set(sub)) < len(sub):
                raise AlgebraError(f"weight subset {sub} must hold distinct indices in range({alg.n})")
            memo = alg._memo
            if grown and sub and (key, sub[:-1]) not in memo:
                last = len(sub) - 2  # the longest prefix kept, or -1
                while last >= 0 and (key, sub[:last]) not in memo:
                    last -= 1
                for size in range(last + 1, len(sub)):
                    memo[key, sub[:size]] = compute(alg, sub[:size])
            return memo.setdefault((key, sub), compute(alg, sub))

        return functools.wraps(compute)(value)

    return decorate


@dataclass(frozen=True)
class WeightedLieAlgebra:
    """r = t + a with structure constants on the a-basis.

    `brackets` is the sparse structure-constant table: a tuple of entries
    `(i, j, ((k, c), ...))`, each meaning `[a_i, a_j] = sum of c * a_k`.
    Entries have `i < j` and are sorted by `(i, j)`; their terms are
    sorted by `k` and have `c != 0`; a pair whose bracket is zero has no
    entry.  `[a_j, a_i]` is read off by antisymmetry.  `ad_table` turns
    the weights and this table into sparse adjoint columns once:
    `bracket`, `ad`, `exp_ad_chain`, the Jacobi check and the row-space
    nilpotency check all sum from it.  `commuting` sums from the same
    structure constants grouped by the coordinate they land on
    (`bracket_coordinates`), so a pair stops at its first nonzero
    coordinate.  The nilpotency check of a table whose entries have one
    term each reads only the table's support (`_nilpotent`).

    `_memo` holds data derived from the fields, each computed once per
    instance by a function decorated with `memoised`: the fingerprint,
    the center's basis, the torus kernel of each weight subset, the
    sparse adjoint table (`ad_table`), the structure constants by
    output coordinate (`bracket_coordinates`), the `validate` table, whose
    Jacobi and nilpotency verdicts `jordan_decompose` also reads, a
    passed Jordan precondition check, the exp(ad) chain of each basis
    vector under each weight vector (`exp_ad_chain`, built when a row
    first needs it), the weight order (`weight_order`), and `orbit`'s
    fixed-point subsets, group-fixed points and per-subset fixed-point
    records, witness curves and limits.  The fields are immutable and
    every memoised value is immutable, so a memoised value never goes
    stale; the memo takes no part in `==`, `hash`, `repr`, `to_json` or
    `fingerprint`.
    """

    t_dim: int
    a_basis: tuple[str, ...]
    weights: tuple[Weight, ...]  # aligned with a_basis
    brackets: tuple[tuple[int, int, tuple[tuple[int, Fraction], ...]], ...]
    _memo: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    # -- construction -------------------------------------------------

    @staticmethod
    def build(
        t_dim: int,
        a_basis: Sequence[str],
        weights: dict[str, Sequence],
        brackets: Iterable[tuple[str, str, dict[str, Fraction]]] = (),
    ) -> "WeightedLieAlgebra":
        """Brackets may name a pair in either order; when a pair is given
        more than once the last value wins."""
        names = tuple(a_basis)
        if t_dim < 0:
            raise AlgebraError(f"t_dim must be nonnegative, not {t_dim}")
        if len(set(names)) != len(names):
            raise AlgebraError("a_basis names must be distinct")
        idx = {nm: i for i, nm in enumerate(names)}
        ws = tuple(Weight(tuple(map(entry, weights[nm]))) for nm in names)
        table: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        for left, right, val in brackets:
            if not {left, right, *val} <= idx.keys():
                raise AlgebraError(f"bracket [{left}, {right}] names an element outside the a-basis")
            i, j = idx[left], idx[right]
            if i == j:
                raise AlgebraError("bracket of a basis vector with itself")
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            terms = ((idx[nm], sign * entry(c)) for nm, c in val.items())
            table[(i, j)] = tuple(sorted((k, c) for k, c in terms if c != 0))
        entries = tuple((i, j, terms) for (i, j), terms in sorted(table.items()) if terms)
        return WeightedLieAlgebra(t_dim, names, ws, entries)

    @staticmethod
    def from_json(data: dict) -> "WeightedLieAlgebra":
        """The algebra `to_json` describes.  A number whose numerator or
        denominator has more digits than Python converts to a string
        (`sys.get_int_max_str_digits()`) could not be printed in a
        report, so it raises `AlgebraError` before it is formed, and so
        does an algebra with t_dim + n past `JSON_DIM_MAX`, before any
        entry is converted."""
        digits = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before Python 3.10.7
        below = 10**digits if digits else None

        def exact(v) -> Fraction:  # a JSON float was rounded to binary before it got here
            if isinstance(v, (float, bool)):
                raise ValueError(f"{v!r} is a JSON {type(v).__name__}; give rationals as strings or integers")
            if below is None:
                return Fraction(v)
            number = bounded_fraction(v, below)
            if number is None:
                raise AlgebraError(f"a number has a numerator or denominator of more than {digits} digits")
            return number

        try:
            # Python would read true as 1 and split a string into its
            # characters, so the JSON types are checked before conversion
            if not isinstance(data, dict):
                raise AlgebraError("the algebra description must be a JSON object")
            t_dim, a_basis, weights = data["t_dim"], data["a_basis"], data["weights"]
            if not isinstance(t_dim, int) or isinstance(t_dim, bool):
                raise AlgebraError(f"t_dim must be an integer, not {t_dim!r}")
            if not isinstance(a_basis, list) or not all(isinstance(nm, str) for nm in a_basis):
                raise AlgebraError("a_basis must be a list of strings")
            if not isinstance(weights, dict) or not all(isinstance(v, list) for v in weights.values()):
                raise AlgebraError("weights must map each name to a list")
            if t_dim + len(a_basis) > JSON_DIM_MAX:
                raise AlgebraError(f"t_dim + n is {t_dim + len(a_basis)}, past the cap of {JSON_DIM_MAX}")
            weights = {k: [exact(s) for s in v] for k, v in weights.items()}
            brackets = data.get("brackets", [])
            if not isinstance(brackets, list) or not all(isinstance(b, dict) for b in brackets):
                raise AlgebraError("brackets must be a list of objects")
            for b in brackets:
                if not isinstance(b["value"], list) or not all(isinstance(t, dict) for t in b["value"]):
                    raise AlgebraError("each bracket value must be a list of objects")
            brackets = [
                (
                    b["left"],
                    b["right"],
                    {term["basis"]: exact(term["coeff"]) for term in b["value"]},
                )
                for b in brackets
            ]
            if set(weights) != set(a_basis):
                raise AlgebraError("weights must be given for exactly the a-basis")
            if any(len(v) != t_dim for v in weights.values()):
                raise AlgebraError("weight length must equal t_dim")
            return WeightedLieAlgebra.build(t_dim, a_basis, weights, brackets)
        except (KeyError, TypeError, ValueError) as e:
            raise AlgebraError(f"malformed algebra description: {e}") from e

    def to_json(self) -> dict:
        names = self.a_basis
        br = [
            {
                "left": names[i],
                "right": names[j],
                "value": [{"basis": names[k], "coeff": str(c)} for k, c in terms],
            }
            for i, j, terms in self.brackets
        ]
        return {
            "t_dim": self.t_dim,
            "a_basis": list(self.a_basis),
            "weights": {nm: w.as_strings() for nm, w in zip(self.a_basis, self.weights)},
            "brackets": br,
        }

    @memoised("fingerprint")
    def fingerprint(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- basic structure ----------------------------------------------

    @property
    def n(self) -> int:
        return len(self.a_basis)

    @property
    def dim(self) -> int:
        return self.t_dim + self.n

    def basis_names(self) -> list[str]:
        return [f"t{i+1}" for i in range(self.t_dim)] + list(self.a_basis)

    def zero(self) -> tuple:
        return (0,) * self.dim

    def basis_vector(self, k: int) -> tuple:
        v = [0] * self.dim
        v[k] = 1
        return tuple(v)

    def torus_part(self, x: Sequence[Fraction]) -> tuple:
        return tuple(x[: self.t_dim])

    def a_part(self, x: Sequence[Fraction]) -> tuple:
        return tuple(x[self.t_dim :])

    def weight_vector(self, i: int) -> tuple:
        """The basis vector of the weight space a^{weights[i]}."""
        return self.basis_vector(self.t_dim + i)

    def pair_bracket(self, i: int, j: int) -> tuple[Fraction, ...]:
        """[a_i, a_j] as a coefficient vector on the a-basis."""
        return self.a_part(self.bracket(self.weight_vector(i), self.weight_vector(j)))

    def _length_error(self, v: Sequence) -> AlgebraError:
        """The error for a vector whose length is not dim: its coordinates
        would be read against the wrong basis vectors."""
        return AlgebraError(f"a vector of r has {self.dim} coordinates, not {len(v)}")

    def bracket(self, x: Sequence, y: Sequence):
        """Lie bracket of two elements of r = t + a, summed from `ad_table`
        over the nonzero coordinates of x and y.  It is bilinear in the
        entries of any commutative ring that multiplies with ints and
        Fractions (polynomials, say); the package passes rational ones.
        A vector whose length is not dim raises `AlgebraError`."""
        table = self.ad_table()
        for v in (x, y):
            if len(v) != len(table):
                raise self._length_error(v)
        out = [0] * len(table)
        support = [(j, c) for j, c in enumerate(y) if c]
        for xe, op in zip(x, table):
            if xe:
                for j, c in support:
                    for k, a in op[j]:
                        out[k] += a * xe * c
        return lowered(out)

    def commuting(self, vectors: Sequence[Sequence]) -> bool:
        """True when every two of the vectors commute.  Each bracket
        [x, y] is summed one output coordinate at a time from the
        structure constants that land there (`bracket_coordinates`), and
        the first nonzero coordinate refutes the pair, so a pair that
        does not commute stops there.  Coordinate d + k of [x, y] is
        y_k w_k(x_t) - x_k w_k(y_t), from the torus, plus
        c (x_i y_j - x_j y_i) for each table term c a_k of [a_i, a_j];
        each product is taken only where both its entries are nonzero,
        and no bracket is lowered or returned.  A vector whose length is
        not dim raises `AlgebraError` before any pair is summed."""
        dim = self.dim
        for v in vectors:
            if len(v) != dim:
                raise self._length_error(v)
        table = self.bracket_coordinates()
        for a, x in enumerate(vectors):
            for y in vectors[a + 1 :]:
                for col, weight, terms in table:
                    s = 0
                    c = y[col]
                    if c:
                        for p, w in weight:
                            e = x[p]
                            if e:
                                s += w * e * c
                    c = x[col]
                    if c:
                        for p, w in weight:
                            e = y[p]
                            if e:
                                s -= w * e * c
                    for i, j, f in terms:
                        e = x[i]
                        if e:
                            c = y[j]
                            if c:
                                s += f * e * c
                        e = x[j]
                        if e:
                            c = y[i]
                            if c:
                                s -= f * e * c
                    if s:
                        return False
        return True

    @memoised("bracket-coordinates")
    def bracket_coordinates(self) -> tuple:
        """The structure constants by the coordinate of r they land on,
        built once: for each weight index k, in order, the triple
        (d + k, the pairs (p, w_k[p]) with w_k[p] != 0, the triples
        (d + i, d + j, c) of the table terms c a_k of [a_i, a_j], i < j).
        [t_p, a_k] = w_k[p] a_k, and no bracket lands on the torus, so
        these are all the nonzero structure constants of r, each pair of
        basis vectors once; `commuting` sums from them."""
        d = self.t_dim
        terms: list[list] = [[] for _ in range(self.n)]
        for i, j, entry_terms in self.brackets:
            for k, c in entry_terms:
                terms[k].append((d + i, d + j, c))
        return tuple(
            (d + k, tuple((p, c) for p, c in enumerate(w.coords) if c), tuple(terms[k]))
            for k, w in enumerate(self.weights)
        )

    @memoised("ad-table")
    def ad_table(self) -> tuple:
        """ad e for every basis vector e of r, as sparse columns, built once:
        `ad_table()[e][j]` is the tuple of pairs (k, c), c != 0, with
        [e, e_j] = sum of c * e_k.  For a torus vector t_p the pairs are
        a_k -> w_k[p] a_k; for a_i they are t_p -> -w_i[p] a_i and the
        table entries, read with antisymmetry."""
        d = self.t_dim
        cols: list[list[list]] = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for k, w in enumerate(self.weights):
            for p, c in enumerate(w.coords):
                if c != 0:
                    cols[p][d + k].append((d + k, c))
                    cols[d + k][p].append((d + k, -c))
        for i, j, terms in self.brackets:
            cols[d + i][d + j] += [(d + k, c) for k, c in terms]
            cols[d + j][d + i] += [(d + k, -c) for k, c in terms]
        return tuple(tuple(tuple(col) for col in op) for op in cols)

    @memoised(EXP_AD_CHAIN)
    def exp_ad_chain(self, k: int, j: int) -> tuple[tuple[tuple[int, object], ...], ...]:
        """The terms (ad a_k)^m e_j / m! of exp(ad a_k) e_j, from m = 0 up
        to the last nonzero one, each as its (index, coefficient) pairs
        with a nonzero coefficient, sorted by index.  Term m is ad a_k of
        term m - 1, summed from the `ad_table` column of a_k over that
        term's pairs alone, then divided by m (`exact_div`), so a chain
        costs its own terms and not dim per term.  ad a_k is nilpotent
        on an algebra that passes `validate`, so at most dim terms are
        nonzero; a chain that has not ended by then raises `AlgebraError`
        and is not kept.  Built the first time a row needs it and kept
        for the life of the instance, under (EXP_AD_CHAIN, k, j), where
        `_word_rows` and `orbit._exp_row` read a chain already built."""
        op = self.ad_table()[self.t_dim + k]
        term = ((j, 1),)
        terms = [term]
        for m in range(1, self.dim + 1):
            acc: dict = {}
            for i, c in term:
                for p, e in op[i]:
                    acc[p] = acc.get(p, 0) + c * e
            term = tuple((p, exact_div(c, m)) for p, c in sorted(acc.items()) if c)
            if not term:
                return tuple(terms)
            terms.append(term)
        raise AlgebraError(f"exp(ad u) did not end within {self.dim} terms")

    def _word_rows(self, word: Sequence[tuple[int, object]], rows: Sequence[tuple]) -> list[tuple]:
        """exp(z_1 ad a_k1) ... exp(z_m ad a_km) applied to each row, for a
        word ((k_1, z_1), ..., (k_m, z_m)) of weight indices and scalar
        entries: the last factor first.  A factor maps a row to the sum,
        over its nonzero entries c_j, of c_j z^m times term m of the
        memoised chain of e_j (`exp_ad_chain`); term 0 is e_j, so the row
        starts as itself.  Only nonzero entries are multiplied or added.
        A row that a factor leaves as it was (z = 0, or no nonzero entry
        whose chain goes past e_j) comes back as it is; every other row
        comes back with its whole Fractions lowered to ints.  A chain
        already built is read straight from the memo.  This is the one
        route of a scalar word: `orbit.act`, `membership`'s forward
        pass and the Jordan conjugation take it."""
        memo = self._memo
        for widx, scalar in reversed(word):
            if not scalar:
                continue
            out = []
            for p in rows:
                acc = None
                for j, c in enumerate(p):
                    if c:
                        chain = memo.get((EXP_AD_CHAIN, widx, j)) or self.exp_ad_chain(widx, j)
                        if len(chain) > 1:
                            if acc is None:
                                acc = list(p)
                            for term in chain[1:]:
                                c *= scalar  # p[j] z^m
                                for i, e in term:
                                    acc[i] += c * e
                out.append(p if acc is None else lowered(acc))
            rows = out
        return list(rows)

    def ad(self, x: Sequence) -> Matrix:
        """Matrix of ad x in the ordered basis (columns act on basis vectors),
        summed from `ad_table` over the nonzero coordinates of x.  When every
        coordinate is an int or a Fraction, each entry is a sum of products
        of entries, so the rows need only `lowered`; any other coordinate
        goes through `Matrix.from_rows`, which converts or refuses it.  A
        vector whose length is not dim raises `AlgebraError`."""
        table = self.ad_table()
        dim = len(table)
        if len(x) != dim:
            raise self._length_error(x)
        rows = [[0] * dim for _ in range(dim)]
        for op, xe in zip(table, x):
            if xe != 0:
                for j, col in enumerate(op):
                    for k, c in col:
                        rows[k][j] += xe * c
        if not {int, Fraction}.issuperset(map(type, x)):
            return Matrix.from_rows(rows)
        return Matrix(dim, dim, tuple(map(lowered, rows)))

    # -- torus-side computations ----------------------------------------

    def torus_kernel(self, weights: Sequence[Weight]) -> Matrix:
        """{t in the torus : w(t) = 0 for all given w}, as its canonical
        basis, for any weights: `_kernel_step` folded over them from the
        identity, as `kernel` grows the kernels of the algebra's own
        weight subsets.  A weight whose length is not t_dim raises
        `AlgebraError`."""
        if any(len(w.coords) != self.t_dim for w in weights):
            raise AlgebraError(f"every weight must have length t_dim = {self.t_dim}")
        return functools.reduce(_kernel_step, weights, Matrix.identity(self.t_dim))

    @memoised("kernel", grown=True)
    def kernel(self, subset: Sequence[int]) -> Matrix:
        """ker W_S = {t in the torus : w_i(t) = 0 for i in S}, as its
        canonical basis (the nonzero rows of its rref), kept once per
        sorted weight subset.  The kernel of () is the identity, and that
        of S + {i}, i = max(S + {i}), is grown from the kernel of S by one
        elimination (`_kernel_step`), so a walk that adds one weight at a
        time pays one elimination per subset and no `rref`."""
        if not subset:
            return Matrix.identity(self.t_dim)
        return _kernel_step(self.kernel(subset[:-1]), self.weights[subset[-1]])

    @memoised("center")
    def center(self) -> Matrix:
        """Center of r, as its canonical basis: the torus directions
        annihilated by every weight, so its dimension is the row count.
        (Conditions on the grading force the center into the torus.)"""
        return self.kernel(range(self.n))

    def closure(self, subset: Sequence[int]) -> tuple[int, ...]:
        """Indices of the weights vanishing on the kernel t_subset."""
        return self._vanishing(self.kernel(subset))

    def _vanishing(self, ker: Matrix) -> tuple[int, ...]:
        """Indices of the weights vanishing on every row of ker."""
        return tuple(i for i, w in enumerate(self.weights) if not any(w(row) for row in ker.entries))

    def is_complete(self, subset: Sequence[int]) -> bool:
        """A weight subset L is complete when every weight vanishing on
        the common kernel t_L already belongs to L."""
        return set(self.closure(subset)) == set(subset)

    def complete_subsets(self) -> list[tuple[int, ...]]:
        """All complete weight subsets, sorted: the closures cl(S), or flats
        (Orlik and Terao, *Arrangements of Hyperplanes*, 1992).  S and cl(S)
        have one kernel, so cl(S + {i}) = cl(cl(S) + {i}): closing each new
        flat with one more weight, from cl(()), reaches every cl(S).
        The kernel of cl(S) + {i} is one `_kernel_step` from the memoised
        kernel of the flat.  Once the flats found pass `ENUMERATION_CAP`,
        checked after each round, the walk raises `EnumerationCapError`."""
        flats = new = {self.closure(())}
        while new:
            new = {
                self._vanishing(_kernel_step(self.kernel(f), self.weights[i]))
                for f in new
                for i in range(self.n)
                if i not in f
            } - flats
            flats |= new
            if len(flats) > ENUMERATION_CAP:
                raise EnumerationCapError(f"more than {ENUMERATION_CAP} complete weight subsets to enumerate")
        return sorted(flats)

    def centralizer_in_a(self, subset: Sequence[int]) -> bool:
        """True when the weight spaces indexed by subset pairwise commute."""
        inside = set(subset)
        return not any(i in inside and j in inside for i, j, _ in self.brackets)

    def restrict(self, subset: Sequence[int]) -> tuple["WeightedLieAlgebra", bool]:
        """Sub-structure carried by a complete weight subset L: the nilpotent
        part a_L together with the torus complement of t_L, with weights
        restricted accordingly.  Returns (algebra, degenerate_flag)."""
        subset = tuple(sorted(subset))
        if not self.is_complete(subset):
            raise AlgebraError("restrict requires a complete weight subset")
        if not subset:
            return WeightedLieAlgebra.build(0, [], {}, []), True
        piv = {next(j for j, e in enumerate(row) if e) for row in self.kernel(subset).entries}
        keep = [j for j in range(self.t_dim) if j not in piv]
        names = [self.a_basis[i] for i in subset]
        weights = {
            self.a_basis[i]: [self.weights[i].coords[j] for j in keep] for i in subset
        }
        inside = set(subset)
        brs = []
        for i, j, terms in self.brackets:
            if i not in inside or j not in inside:
                continue
            if any(k not in inside for k, _ in terms):
                raise AlgebraError("complete subset is not bracket-closed")
            brs.append((self.a_basis[i], self.a_basis[j], {self.a_basis[k]: c for k, c in terms}))
        return WeightedLieAlgebra.build(len(keep), names, weights, brs), False

    # -- centralizers, regularity, Jordan -------------------------------

    def centralizer(self, x: Sequence[Fraction]) -> Matrix:
        """Canonical basis (rows) of the centralizer of x in r.  A vector
        whose length is not dim raises `AlgebraError` (`ad`)."""
        return nullspace(self.ad(x))

    def regular_test(self, x: Sequence[Fraction]) -> bool:
        """x is regular when its centralizer has the minimal dimension,
        which equals the torus dimension: by rank-nullity, when ad x has
        rank dim - t_dim.  A vector whose length is not dim raises
        `AlgebraError` (`ad`)."""
        return rank(self.ad(x)) == self.dim - self.t_dim

    @memoised("jordan-preconditions")
    def check_jordan_preconditions(self) -> None:
        """Raise what `jordan_decompose` raises on an algebra it cannot
        decompose in: `CenterNotTrivialError` for a nonzero center, then
        `AlgebraError` when Jacobi fails or a is not nilpotent.  The two
        verdicts are read from the memoised `validate` table, and a check
        that passed is memoised too, so a repeat check costs one lookup."""
        if self.center().rows != 0:
            raise CenterNotTrivialError("jordan decomposition needs a faithful adjoint")
        checks = {name: (ok, detail) for name, ok, detail in self.validate()}
        jac_ok, jac_detail = checks["jacobi"]
        if not jac_ok:
            raise AlgebraError(f"jordan decomposition needs the jacobi identity: {jac_detail}")
        if not checks["nilpotency"][0]:
            raise AlgebraError("jordan decomposition needs a nilpotent a")

    @memoised("weight-order")
    def weight_order(self) -> tuple[int, ...]:
        """The weight indices by weight height, then coordinates, then
        index, sorted once per algebra: the factor order of the orbit
        word, the Jordan conjugation and the `boundary` walk."""
        return tuple(sorted(range(self.n), key=lambda i: weight_sort_key(self.weights[i])))

    @memoised("factor-order")
    def factor_order(self) -> tuple[int, ...]:
        """The weight indices by depth, then as `weight_order` has them,
        sorted once per algebra: the factor order of the orbit word.  With
        D^1 every index and D^(m+1) the terms of the table entries with an
        index in D^m (as in `torus_conjugation`), the depth of k is the
        last m <= n + 1 with k in D^m.  The sets shrink, so an entry's
        term k lies in D^(m+1) for each index i of the entry in D^m: k is
        deeper than i, unless both are in D^(n + 1), where the lower
        central series has not ended.  So each term of [a_i, a_j] comes
        after i and j in this order, whatever the weights are; by height
        alone it can come before them when a weight has height 0 or less.
        On a Borel nilradical in simple-root coordinates the depth of a
        root is its height, and the order is `weight_order`."""
        depth = {}
        level = set(range(self.n))
        for m in range(1, self.n + 2):
            depth.update(dict.fromkeys(level, m))
            level = {k for i, j, terms in self.brackets if i in level or j in level for k, _ in terms}
        position = {k: p for p, k in enumerate(self.weight_order())}
        return tuple(sorted(range(self.n), key=lambda k: (depth[k], position[k])))

    def torus_conjugation(self, x: Sequence, lam: Sequence) -> tuple[tuple, tuple] | None:
        """(v, word) with v = g x = x_t + n_0: x_t the torus part of x, n_0
        on the weights that vanish at x_t, and g the product of the
        word's factors exp(z ad a_k), given as (k, z) pairs in the order
        they are applied; or None when n + 1 passes leave a coordinate
        to clear.  `lam` holds the weight values w_k(x_t), which
        `multipoint_membership` has already computed to test them.  One
        pass walks the weights whose value lambda_k = w_k(x_t) is not 0,
        in `weight_order`, and clears each coordinate r_k != 0 of the
        current v by exp(z ad a_k), z = r_k / lambda_k (`exact_div`),
        applied with `_word_rows`: [a_k, x_t] = -lambda_k a_k, so the
        factor takes r_k off coordinate k.  Passes repeat until one
        finds nothing to clear.  Each factor is an automorphism of r when
        Jacobi holds (`jacobi` in `validate`), since ad a_k is then a
        derivation; its chains end when a is nilpotent, and a chain that
        does not raises `AlgebraError`.

        Termination: let D^1 be every weight index and D^(m+1) the
        indices of the terms of the bracket-table entries (i, j) with i
        or j in D^m.  Then [a_k, a] lies in a_(D^(m+1)) for k in D^m, and
        D^(m+1) lies in D^m.  Suppose the nonvanishing coordinates of v
        lie in D^m when a pass starts.  A factor of the pass has k in
        D^m, and exp(z ad a_k) v = v - r_k a_k + z [a_k, r] +
        (z ad a_k)^2 r / 2 + ..., r the a-part of v, since
        (ad a_k)^2 x_t = -lambda_k [a_k, a_k] = 0.  The bracket terms lie
        in a_(D^(m+1)), so the factor clears coordinate k up to
        a_(D^(m+1)) and moves the others only inside it; a later factor
        of the pass reads a coordinate still in D^m.  After the pass the
        nonvanishing coordinates lie in D^(m+1), and the torus part stays
        x_t.  When every table entry has one term, D^m is the support of
        the lower central series term C^m (`_nilpotent`), so on a
        nilpotent a D^(n+1) is empty and at most n passes do work.  A
        table whose brackets respect the grading (as Jacobi forces) and
        whose weight spaces are one-dimensional (as `validate` asks) has
        only one-term entries.  On a table with a multi-term entry D^m
        can outlast C^m, and the pass bound answers None."""
        d = self.t_dim
        order = [k for k in self.weight_order() if lam[k]]
        v = tuple(x)
        word = []
        for _ in range(self.n + 1):
            cleared = False
            for k in order:
                c = v[d + k]
                if c:
                    z = exact_div(c, lam[k])
                    (v,) = self._word_rows(((k, z),), (v,))
                    word.append((k, z))
                    cleared = True
            if not cleared:
                return v, tuple(word)
        return None

    def jordan_decompose(self, x: Sequence[Fraction]) -> tuple[tuple, tuple]:
        """Jordan decomposition x = s + n inside r: ad s semisimple, ad n
        nilpotent, [s, n] = 0.  Requires zero center, the Jacobi identity
        and a nilpotent a.  A vector whose length is not dim raises
        `AlgebraError` before any other work.

        Method: conjugate x inside r to x_t + n_0, with x_t its torus part
        and n_0 on the weights that vanish at x_t (de Graaf, *Lie Algebras:
        Theory and Algorithms*, 2000, the Jordan decomposition in a
        solvable algebra with a split torus), by single-weight factors
        exp(z ad a_k), z = r_k / lambda_k, in `weight_order`
        (`torus_conjugation`, which also proves that at most n passes do
        work).  That gives g x = x_t + n_0, g the word's product; then s
        is the inverse word applied to x_t (`_word_rows`), so
        s = g^-1 x_t, and n = x - s.  Passes past n + 1 raise
        `AlgebraError`.

        Correctness: by Jacobi, each ad a_k is a derivation and each
        factor an automorphism of r.  So ad s is conjugate to the diagonal
        ad x_t and is semisimple.  n = g^-1 n_0 lies in the ideal a, where
        ad n is nilpotent because ad a maps r into a and C^k into C^(k+1);
        and [s, n] = g^-1 [x_t, n_0] = 0.  The Jordan decomposition of
        ad x is unique, and ad is injective when the center is zero, so
        (s, n) is the only such pair, whatever the factor order.  The
        exact check [s, n] = 0 re-verifies it.

        A homogeneous x is answered without the conjugation, with the
        tuples it would return.  When the a-part of x is zero, no
        coordinate is cleared, so s = x_t + 0 and n = 0; when the torus
        part is zero, every lambda_k is zero, so again no factor, and
        s = x_t + 0 (all zero) and n = x - s.  One of s and n is zero, so
        [s, n] = 0 needs no check.
        """
        if len(x) != self.t_dim + len(self.a_basis):
            raise self._length_error(x)
        self.check_jordan_preconditions()
        d = self.t_dim
        xt = self.torus_part(x)
        if not any(x[d:]) or not any(xt):
            s = xt + (0,) * self.n
            return s, lowered([a - b for a, b in zip(x, s)])
        conjugated = self.torus_conjugation(x, [w(xt) for w in self.weights])
        if conjugated is None:
            raise AlgebraError(f"jordan conjugation did not settle in {self.n + 1} passes")
        inverse = tuple((k, -z) for k, z in conjugated[1])
        (s,) = self._word_rows(inverse, (xt + (0,) * self.n,))
        n = lowered([a - b for a, b in zip(x, s)])
        if any(c != 0 for c in self.bracket(s, n)):
            raise AlgebraError("jordan parts fail to commute")
        return s, n

    # -- validation -----------------------------------------------------

    @memoised("validate")
    def validate(self) -> tuple[tuple[str, bool, str], ...]:
        """Structural invariants, as (name, passed, detail) triples, kept
        once per instance: the `validate` command, every later
        `is_valid` and `check_jordan_preconditions` read the same table."""
        checks: list[tuple[str, bool, str]] = []
        bad = [self.a_basis[i] for i, w in enumerate(self.weights) if w.is_zero()]
        checks.append(
            ("weights-nonzero", not bad, "all weights nonzero" if not bad else f"zero weight on {bad}")
        )
        dupes = [
            (self.a_basis[i], self.a_basis[j])
            for i, j in itertools.combinations(range(self.n), 2)
            if self.weights[i] == self.weights[j]
        ]
        checks.append(
            (
                "multiplicity-one",
                not dupes,
                "all weight spaces one-dimensional" if not dupes else f"repeated weight {dupes}",
            )
        )
        prop = [
            (self.a_basis[i], self.a_basis[j])
            for i, j in itertools.combinations(range(self.n), 2)
            if self.weights[i].proportional_to(self.weights[j])
        ]
        checks.append(
            (
                "no-proportional-weights",
                not prop,
                "no two weights proportional" if not prop else f"proportional pair {prop}",
            )
        )
        off = self._off_grade()
        detail = "brackets respect the weight grading"
        if off:
            i, j, k = off[-1]
            detail = f"[{self.a_basis[i]},{self.a_basis[j]}] hits {self.a_basis[k]} off-grade"
        checks.append(("grading", not off, detail))
        jac_ok, jac_detail = self._jacobi()
        checks.append(("jacobi", jac_ok, jac_detail))
        nil_ok = self._nilpotent()
        checks.append(
            ("nilpotency", nil_ok, "lower central series of a terminates" if nil_ok else "a is not nilpotent")
        )
        dim_z = self.center().rows
        checks.append(
            (
                "classification",
                True,
                "center is zero (strict class)" if dim_z == 0 else f"center has dimension {dim_z}",
            )
        )
        return tuple(checks)

    def _off_grade(self) -> list[tuple[int, int, int]]:
        """(i, j, k) for every term c a_k of [a_i, a_j] with w_k != w_i + w_j."""
        return [
            (i, j, k)
            for i, j, terms in self.brackets
            for k, _ in terms
            if self.weights[k] != self.weights[i] + self.weights[j]
        ]

    def _jacobi(self) -> tuple[bool, str]:
        """The Jacobi identity on basis triples, failing on the first triple
        in `combinations` order.  Each double bracket [e_i, [e_j, e_k]] is
        summed from `ad_table`.

        For a torus element t the Jacobi sum of (t, a_i, a_j) is
        sum_k c_ij^k (w_k - w_i - w_j)(t) a_k, and with two or three torus
        elements it is 0.  So when the brackets respect the grading only
        triples inside a can fail, and the loop starts past the torus.  The
        torus comes first in the basis, so the first failing triple is the
        one the loop over all triples finds; that loop runs when the grading
        fails."""
        ad = self.ad_table()
        names = self.basis_names()
        start = 0 if self._off_grade() else self.t_dim
        for i, j, k in itertools.combinations(range(start, self.dim), 3):
            total: dict[int, Fraction] = {}
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                for m, c in ad[y][z]:
                    for p, e in ad[x][m]:
                        total[p] = total.get(p, 0) + c * e
            if any(total.values()):
                return False, f"jacobi fails on ({names[i]},{names[j]},{names[k]})"
        return True, "jacobi identity holds on all basis triples"

    def _nilpotent(self) -> bool:
        """a is nilpotent when its lower central series C^1 = a,
        C^{k+1} = [a, C^k] reaches 0 within n + 1 steps.

        When every entry of `brackets` has one term, as in every Borel
        nilradical, the series is read off the table's support.  Each
        `[a_i, a_j]` is then 0 or a nonzero multiple of one `a_p`.  If C^k
        is spanned by the `a_q`, q in S_k, then C^{k+1} is spanned by the
        brackets `[a_i, a_q]`, i any, q in S_k, so by the `a_p` of the
        entries `(i, j)` with i or j in S_k (antisymmetry covers the
        order).  S_1 is every index, so by induction each C^k is spanned
        by the basis vectors of S_k, and C^k = 0 exactly when S_k is
        empty; the walk takes no row reduction.  A table with a
        multi-term entry takes `_nilpotent_by_rows`."""
        if any(len(terms) != 1 for _, _, terms in self.brackets):
            return self._nilpotent_by_rows()
        support = set(range(self.n))
        for _ in range(self.n + 1):
            if not support:
                return True
            support = {terms[0][0] for i, j, terms in self.brackets if i in support or j in support}
        return False

    def _nilpotent_by_rows(self) -> bool:
        """The lower central series by row spaces: each C^{k+1} is
        spanned by the nonzero [a_i, v] over the a-basis and a basis of
        C^k."""
        span = row_space_basis(
            Matrix.from_rows([self.weight_vector(i) for i in range(self.n)])
        ) if self.n else Matrix(0, self.dim, ())
        for _ in range(self.n + 1):
            if span.rows == 0:
                return True
            brackets = (self.bracket(self.weight_vector(i), v) for i in range(self.n) for v in span.entries)
            span = row_space_basis(Matrix.from_rows([b for b in brackets if any(b)]))
        return False

    def is_valid(self) -> bool:
        """Every check of the memoised `validate` table passes."""
        return all(ok for _, ok, _ in self.validate())


def _kernel_step(ker: Matrix, w: Weight) -> Matrix:
    """The canonical basis of {t in span(ker) : w(t) = 0}, from the
    canonical basis `ker` (the nonzero rows of an rref) by one
    elimination: when w vanishes on every row, `ker` itself; otherwise,
    with k the last row on which w is nonzero, every other row r becomes
    r - (w(r) / w(k)) k, and k is dropped.

    The rows left vanish under w, are independent, and are one fewer, as
    the kernel is when w is nonzero on span(ker); so they span it.  They
    are its canonical basis too.  Each row on which w is nonzero comes
    before k, so its pivot is left of k's; k is 0 left of its own pivot
    and in every other row's pivot column, so subtracting it changes a
    row only right of that row's pivot and in no pivot column kept.  The
    pivot 1s and the zeros around them stay, and the kept rows are in
    rref.  Any earlier row would put a nonzero entry left of the pivot of
    a later row it were subtracted from, which is why k is the last."""
    rows = ker.entries
    vals = [w(row) for row in rows]
    last = max((r for r, v in enumerate(vals) if v), default=None)
    if last is None:
        return ker
    k = rows[last]
    support = [(j, c) for j, c in enumerate(k) if c]
    out = []
    for row, v in zip(rows[:last], vals):
        if v:
            f = exact_div(v, vals[last])
            row = list(row)
            for j, c in support:
                row[j] -= f * c
            row = lowered(row)
        out.append(row)
    out += rows[last + 1 :]
    return Matrix(len(out), ker.cols, tuple(out))
