"""Weight-graded nilpotent Lie algebras with a torus action.

An algebra here is r = t + a: a torus t of dimension d acting on a
nilpotent part a graded by a multiplicity-one set of weights.  Elements
of r are coordinate tuples over Fraction, ordered torus coordinates
first, then the a-basis in declared order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import sympy

from .linalg import (
    Matrix,
    in_row_space,
    nilpotent_terms,
    nullspace,
    rank,
    row_space_basis,
    rref,
)


class AlgebraError(Exception):
    pass


class CenterNotTrivialError(AlgebraError):
    """Raised when an operation needs a faithful adjoint (zero center)."""


class NotClosedUnderJordanError(AlgebraError):
    pass


@dataclass(frozen=True, order=True)
class Weight:
    """A weight of the torus, as a covector in the dual torus basis."""

    coords: tuple[Fraction, ...]

    def __call__(self, t_coords: Sequence[Fraction]) -> Fraction:
        return sum((a * b for a, b in zip(self.coords, t_coords)), Fraction(0))

    def height(self) -> Fraction:
        return sum(self.coords, Fraction(0))

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


@dataclass(frozen=True)
class WeightedLieAlgebra:
    """r = t + a with structure constants on the a-basis.

    `brackets` is the sparse structure-constant table: a tuple of entries
    `(i, j, ((k, c), ...))`, each meaning `[a_i, a_j] = sum of c * a_k`.
    Entries have `i < j` and are sorted by `(i, j)`; their terms are
    sorted by `k` and have `c != 0`; a pair whose bracket is zero has no
    entry.  `[a_j, a_i]` is read off by antisymmetry.

    `_memo` holds data derived from the fields, each computed once per
    instance through `derived`: the center, the adjoint matrices of the
    weight vectors and the terms of their exponentials, the row selection
    of the Jordan solve, and the fixed points of `orbit`.  The fields are
    immutable and every memoised value is immutable, so a memoised value
    never goes stale; the memo takes no part in `==`, `hash`, `repr`,
    `to_json` or `fingerprint`.
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
        idx = {nm: i for i, nm in enumerate(names)}
        ws = tuple(
            Weight(tuple(Fraction(c) for c in weights[nm])) for nm in names
        )
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
            terms = ((idx[nm], sign * Fraction(c)) for nm, c in val.items())
            table[(i, j)] = tuple(sorted((k, c) for k, c in terms if c != 0))
        entries = tuple((i, j, terms) for (i, j), terms in sorted(table.items()) if terms)
        return WeightedLieAlgebra(t_dim, names, ws, entries)

    @staticmethod
    def from_json(data: dict) -> "WeightedLieAlgebra":
        def exact(v) -> Fraction:  # a JSON float was rounded to binary before it got here
            if isinstance(v, float):
                raise ValueError(f"{v!r} is a JSON float; give rationals as strings or integers")
            return Fraction(v)

        try:
            t_dim = int(data["t_dim"])
            a_basis = list(data["a_basis"])
            weights = {k: [exact(s) for s in v] for k, v in data["weights"].items()}
            brackets = [
                (
                    b["left"],
                    b["right"],
                    {term["basis"]: exact(term["coeff"]) for term in b["value"]},
                )
                for b in data.get("brackets", [])
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

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def derived(self, key, compute: Callable[[], object]):
        """The value of `compute()`, computed on the first call with this
        key and kept for the life of the instance.  `compute` must depend
        only on the algebra and return an immutable value."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

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
        return tuple(Fraction(0) for _ in range(self.dim))

    def basis_vector(self, k: int) -> tuple:
        v = [Fraction(0)] * self.dim
        v[k] = Fraction(1)
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

    def bracket(self, x: Sequence, y: Sequence):
        """Lie bracket of two elements of r = t + a; entries may be
        Fractions or sympy expressions (bilinear either way)."""
        d = self.t_dim
        out = [Fraction(0)] * self.dim
        # [t, a^w] = w(t) a^w
        tx, ty = x[:d], y[:d]
        for k, w in enumerate(self.weights):
            xk, yk = x[d + k], y[d + k]
            if xk != 0 or yk != 0:
                out[d + k] = w(tx) * yk - w(ty) * xk
        # [a_i, a_j] and [a_j, a_i] = -[a_i, a_j]
        for i, j, terms in self.brackets:
            c = x[d + i] * y[d + j] - x[d + j] * y[d + i]
            if c != 0:
                for k, ck in terms:
                    out[d + k] += c * ck
        return tuple(e if isinstance(e, Fraction) else sympy.expand(e) for e in out)

    def ad(self, x: Sequence[Fraction]) -> Matrix:
        """Matrix of ad x in the ordered basis (columns act on basis vectors)."""
        cols = [self.bracket(x, self.basis_vector(k)) for k in range(self.dim)]
        return Matrix.from_rows([[cols[j][i] for j in range(self.dim)] for i in range(self.dim)])

    def ad_weight_vector(self, i: int) -> Matrix:
        return self.derived(("ad", i), lambda: self.ad(self.weight_vector(i)))

    def ad_exp_terms(self, i: int) -> tuple[Matrix, ...]:
        """The terms (ad x_i)^k / k! of exp(ad x_i), for `exp_nilpotent`."""
        return self.derived(("ad-exp", i), lambda: nilpotent_terms(self.ad_weight_vector(i)))

    # -- torus-side computations ----------------------------------------

    def weight_matrix(self, weights: Sequence[Weight] | None = None) -> Matrix:
        ws = self.weights if weights is None else tuple(weights)
        if not ws:
            return Matrix.zero(0, self.t_dim)
        return Matrix.from_rows([list(w.coords) for w in ws])

    def torus_kernel(self, weights: Sequence[Weight]) -> Matrix:
        """Basis (rows) of {t in the torus : w(t) = 0 for all given w}."""
        if not weights:
            return Matrix.identity(self.t_dim)
        return nullspace(self.weight_matrix(weights))

    def center(self) -> "CenterData":
        """Center of r: torus directions annihilated by every weight.
        (Conditions on the grading force the center into the torus.)"""

        def compute():
            basis = self.torus_kernel(self.weights)
            d_sharp = rank(self.weight_matrix())
            return CenterData(basis=basis, dim=basis.rows, weight_rank=d_sharp)

        return self.derived("center", compute)

    def lambda_of(self, s: Sequence[Fraction]) -> tuple[int, ...]:
        """Indices of weights vanishing on the torus element s."""
        ts = self.torus_part(s)
        if any(c != 0 for c in self.a_part(s)):
            raise AlgebraError("lambda_of expects a torus element")
        return tuple(i for i, w in enumerate(self.weights) if w(ts) == 0)

    def is_complete(self, subset: Sequence[int]) -> bool:
        """A weight subset L is complete when every weight vanishing on
        the common kernel t_L already belongs to L."""
        sub = [self.weights[i] for i in subset]
        ker = self.torus_kernel(sub)
        closure = {
            i
            for i, w in enumerate(self.weights)
            if all(w(ker.row(r)) == 0 for r in range(ker.rows))
        }
        return closure == set(subset)

    def complete_subsets(self) -> list[tuple[int, ...]]:
        """All complete weight subsets, deduplicated, sorted."""
        seen = set()
        for size in range(self.n + 1):
            for s in itertools.combinations(range(self.n), size):
                ker = self.torus_kernel([self.weights[i] for i in s])
                closure = tuple(
                    i
                    for i, w in enumerate(self.weights)
                    if all(w(ker.row(r)) == 0 for r in range(ker.rows))
                )
                seen.add(closure)
        return sorted(seen)

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
        ker = self.torus_kernel([self.weights[i] for i in subset])
        _, piv = rref(ker)
        keep = [j for j in range(self.t_dim) if j not in piv]
        if not subset:
            return (
                WeightedLieAlgebra.build(0, [], {}, []),
                True,
            )
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
        """Canonical basis (rows) of the centralizer of x in r."""
        return nullspace(self.ad(x))

    def regular_test(self, x: Sequence[Fraction]) -> bool:
        """x is regular when its centralizer has the minimal dimension,
        which equals the torus dimension."""
        return self.centralizer(x).rows == self.t_dim

    def jordan_decompose(self, x: Sequence[Fraction]) -> tuple[tuple, tuple]:
        """Jordan decomposition x = s + n inside r, computed on ad x and
        pulled back through the (faithful) adjoint.  Requires zero center."""
        if self.center().dim != 0:
            raise CenterNotTrivialError("jordan decomposition needs a faithful adjoint")
        s_mat = _semisimple_part(self.ad(x))
        # ad y = S is the m^2 x m system vec(ad y) = vec(S); ad is
        # injective, so m of its rows determine y, and the check that
        # ad y equals S over all m^2 entries stands in for the rest
        entries, inverse = self.derived("jordan-rows", self._jordan_rows)
        s = inverse.apply([s_mat[a, b] for a, b in entries])
        if self.ad(s) != s_mat:
            raise AlgebraError("semisimple part is not in the image of ad")
        n = tuple(a - b for a, b in zip(x, s))
        if any(c != 0 for c in self.bracket(s, n)):
            raise AlgebraError("jordan parts fail to commute")
        return s, n

    def _jordan_rows(self) -> tuple[tuple[tuple[int, int], ...], Matrix]:
        """Entries (a, b) at which the matrices ad e_j (j < m) are linearly
        independent, and the inverse of the m x m matrix of those entries
        (row r, column j: entry r of ad e_j)."""
        m = self.dim
        ads = [self.ad(self.basis_vector(j)) for j in range(m)]
        vec_ads = Matrix.from_rows([[adj[a, b] for a in range(m) for b in range(m)] for adj in ads])
        _, piv = rref(vec_ads)
        if len(piv) != m:  # only a zero weight, which validate rejects, gets here
            raise CenterNotTrivialError("jordan decomposition needs a faithful adjoint")
        entries = tuple(divmod(p, m) for p in piv)
        square = Matrix.from_rows([[adj[a, b] for adj in ads] for a, b in entries])
        return entries, _mat_inverse(square)

    # -- validation -----------------------------------------------------

    def validate(self) -> list[tuple[str, bool, str]]:
        """Structural invariants, as (name, passed, detail) triples."""
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
        off = [
            (i, j, k)
            for i, j, terms in self.brackets
            for k, _ in terms
            if self.weights[k] != self.weights[i] + self.weights[j]
        ]
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
        z = self.center()
        checks.append(
            (
                "classification",
                True,
                "center is zero (strict class)" if z.dim == 0 else f"center has dimension {z.dim}",
            )
        )
        return checks

    def _jacobi(self) -> tuple[bool, str]:
        vs = [self.basis_vector(k) for k in range(self.dim)]
        names = self.basis_names()
        for i, j, k in itertools.combinations(range(self.dim), 3):
            s1 = self.bracket(vs[i], self.bracket(vs[j], vs[k]))
            s2 = self.bracket(vs[j], self.bracket(vs[k], vs[i]))
            s3 = self.bracket(vs[k], self.bracket(vs[i], vs[j]))
            if any(a + b + c != 0 for a, b, c in zip(s1, s2, s3)):
                return False, f"jacobi fails on ({names[i]},{names[j]},{names[k]})"
        return True, "jacobi identity holds on all basis triples"

    def _nilpotent(self) -> bool:
        span = row_space_basis(
            Matrix.from_rows([self.weight_vector(i) for i in range(self.n)])
        ) if self.n else Matrix.zero(0, self.dim)
        for _ in range(self.n + 1):
            if span.rows == 0:
                return True
            nxt = []
            for i in range(self.n):
                for r in range(span.rows):
                    nxt.append(self.bracket(self.weight_vector(i), span.row(r)))
            span = row_space_basis(Matrix.from_rows(nxt)) if nxt else Matrix.zero(0, self.dim)
        return False

    def is_valid(self) -> bool:
        return all(ok for _, ok, _ in self.validate())


@dataclass(frozen=True)
class CenterData:
    basis: Matrix
    dim: int
    weight_rank: int


def _semisimple_part(m: Matrix) -> Matrix:
    """Semisimple part of a rational matrix via Newton iteration on the
    squarefree part of its characteristic polynomial."""
    x = sympy.Symbol("x")
    sm = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in m.entries])
    f = sm.charpoly(x)
    g = sympy.Poly(sympy.quo(f.as_expr(), sympy.gcd(f.as_expr(), sympy.diff(f.as_expr(), x)), x), x)
    coeffs = [Fraction(int(sympy.numer(c)), int(sympy.denom(c))) for c in g.all_coeffs()]
    dcoeffs = [
        Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
        for c in g.diff().all_coeffs()
    ]
    s = m
    for _ in range(m.rows + 2):
        gs = _poly_at(coeffs, s)
        if gs.is_zero():
            return s
        dgs = _poly_at(dcoeffs, s)
        s = s - _mat_inverse(dgs) @ gs
    raise AlgebraError("newton iteration for the semisimple part did not converge")


def _poly_at(coeffs: list[Fraction], m: Matrix) -> Matrix:
    acc = Matrix.zero(m.rows, m.cols)
    for c in coeffs:
        acc = acc @ m + Matrix.identity(m.rows).scale(c)
    return acc


def _mat_inverse(m: Matrix) -> Matrix:
    n = m.rows
    aug = Matrix.from_rows(
        [list(m.row(i)) + [Fraction(1) if j == i else Fraction(0) for j in range(n)] for i in range(n)]
    )
    rr, piv = rref(aug)
    if piv[:n] != tuple(range(n)):
        raise AlgebraError("singular matrix")
    return Matrix.from_rows([[rr[i, n + j] for j in range(n)] for i in range(n)])


# -- condition-(4) verifier -------------------------------------------

@dataclass(frozen=True)
class CentralizerMapFamily:
    """Polynomial maps e_1..e_d from r to r whose values at a regular x
    are required to span the centralizer of x."""

    alg: WeightedLieAlgebra
    symbols: tuple  # coordinate symbols c1..c_dim
    components: tuple  # d maps, each a tuple of dim sympy expressions

    @staticmethod
    def from_callables(
        alg: WeightedLieAlgebra, maps: Sequence[Callable[[Sequence], Sequence]]
    ) -> "CentralizerMapFamily":
        syms = sympy.symbols(f"c1:{alg.dim + 1}")
        comps = tuple(tuple(sympy.expand(e) for e in f(syms)) for f in maps)
        return CentralizerMapFamily(alg, tuple(syms), comps)

    def evaluate(self, idx: int, x: Sequence[Fraction]) -> tuple:
        subs = {s: sympy.Rational(c.numerator, c.denominator) for s, c in zip(self.symbols, x)}
        out = []
        for e in self.components[idx]:
            v = sympy.expand(e).subs(subs)
            out.append(Fraction(int(sympy.numer(v)), int(sympy.denom(v))))
        return tuple(out)


def verify_condition4(
    family: CentralizerMapFamily, samples: int = 20, seed: int = 0
) -> tuple[bool, str]:
    """Check the centralizer-family requirement: each map commutes with its
    argument identically, and at sampled regular points the d values are
    independent and span the centralizer."""
    alg = family.alg
    if len(family.components) != alg.t_dim:
        return False, f"family has {len(family.components)} maps, expected {alg.t_dim}"
    x = list(family.symbols)
    for i, comp in enumerate(family.components):
        br = alg.bracket(x, list(comp))
        if any(sympy.expand(e) != 0 for e in br):
            return False, f"map {i + 1} does not commute with its argument"
    import random

    rng = random.Random(seed)
    found = 0
    tried = 0
    while found < samples and tried < 60 * samples:
        tried += 1
        pt = tuple(Fraction(rng.randint(-5, 5)) for _ in range(alg.dim))
        if not alg.regular_test(pt):
            continue
        found += 1
        vals = Matrix.from_rows([family.evaluate(i, pt) for i in range(alg.t_dim)])
        if rank(vals) != alg.t_dim:
            return False, f"values dependent at sample {pt}"
        cent = alg.centralizer(pt)
        rr, piv = rref(cent)
        if not all(in_row_space(vals.row(r), rr, piv) for r in range(vals.rows)):
            return False, f"values leave the centralizer at sample {pt}"
        if row_space_basis(vals) != row_space_basis(cent):
            return False, f"values do not span the centralizer at sample {pt}"
    if found < samples:
        return False, "could not find enough regular sample points"
    return True, f"identity bracket check plus {samples} regular samples"
