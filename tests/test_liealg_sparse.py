"""The sparse structure-constant table of `WeightedLieAlgebra` against a
dense reference, on generated graded algebras."""

import functools
import hashlib
import itertools
import json
from fractions import Fraction

import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitvar.liealg import WeightedLieAlgebra
from orbitvar.linalg import Matrix


class DenseReference:
    """Structure constants stored densely, (i, j) -> coefficient vector on
    the a-basis for i < j, with brackets summed over every ordered pair of
    basis vectors.  The reference the sparse table is checked against."""

    def __init__(self, t_dim, a_basis, weights, brackets):
        self.t_dim = t_dim
        self.a_basis = tuple(a_basis)
        self.n = len(self.a_basis)
        self.dim = t_dim + self.n
        self.weights = [tuple(Fraction(c) for c in weights[nm]) for nm in self.a_basis]
        idx = {nm: i for i, nm in enumerate(self.a_basis)}
        self.table = {}
        for left, right, val in brackets:
            i, j = idx[left], idx[right]
            vec = [Fraction(0)] * self.n
            for nm, c in val.items():
                vec[idx[nm]] = Fraction(c)
            if i > j:
                i, j = j, i
                vec = [-c for c in vec]
            self.table[(i, j)] = tuple(vec)

    def pair_bracket(self, i, j):
        zero = tuple(Fraction(0) for _ in range(self.n))
        if i == j:
            return zero
        if i < j:
            return self.table.get((i, j), zero)
        return tuple(-c for c in self.table.get((j, i), zero))

    def bracket(self, x, y):
        d, n = self.t_dim, self.n
        out = [0] * (d + n)
        for k in range(n):
            w = self.weights[k]
            tx = sum(w[i] * x[i] for i in range(d))
            ty = sum(w[i] * y[i] for i in range(d))
            out[d + k] = out[d + k] + tx * y[d + k] - ty * x[d + k]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                vec = self.pair_bracket(i, j)
                for k in range(n):
                    if vec[k] != 0:
                        out[d + k] = out[d + k] + x[d + i] * y[d + j] * vec[k]
        zero = Fraction(0)
        return tuple(e + zero if isinstance(e, (int, Fraction)) else sympy.expand(e) for e in out)

    def ad(self, x):
        unit = [tuple(Fraction(int(r == k)) for r in range(self.dim)) for k in range(self.dim)]
        cols = [self.bracket(x, e) for e in unit]
        return Matrix.from_rows([[cols[j][i] for j in range(self.dim)] for i in range(self.dim)])

    def to_json(self):
        br = []
        for (i, j), vec in sorted(self.table.items()):
            val = [{"basis": self.a_basis[k], "coeff": str(c)} for k, c in enumerate(vec) if c != 0]
            if val:
                br.append({"left": self.a_basis[i], "right": self.a_basis[j], "value": val})
        return {
            "t_dim": self.t_dim,
            "a_basis": list(self.a_basis),
            "weights": {nm: [str(c) for c in w] for nm, w in zip(self.a_basis, self.weights)},
            "brackets": br,
        }

    def fingerprint(self):
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# hypothesis builds a fresh `sampled_from` strategy on every call and
# checks it again on its first draw; a drawing helper that samples the
# same tuple each time takes it from here (equal tuples, which == decides,
# share one strategy)
sampled_from = functools.lru_cache(maxsize=256)(st.sampled_from)

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
NONZERO = RATIONALS.filter(bool)


@st.composite
def root_subset_algebras(draw):
    """A closed set of positive roots e_ij of A_m (m = 2..4), in a random
    basis order, with random nonzero constants on [e_ij, e_jk] = c e_ik.
    The bracket list names pairs in either order, carries zero terms and
    values, and repeats pairs whose earlier value the later one replaces."""
    m = draw(st.integers(2, 4))
    all_roots = tuple((i, j) for i in range(1, m + 2) for j in range(i + 1, m + 2))
    roots = set(draw(st.lists(sampled_from(all_roots), min_size=1, unique=True)))
    while True:
        sums = {(i, k) for i, j in roots for jj, k in roots if j == jj} - roots
        if not sums:
            break
        roots |= sums
    roots = draw(st.permutations(sorted(roots)))
    name = {r: f"e{r[0]}{r[1]}" for r in roots}
    names = [name[r] for r in roots]
    weights = {name[(i, j)]: [1 if i <= k < j else 0 for k in range(1, m + 1)] for i, j in roots}
    brackets = []
    for (i, j), (jj, k) in itertools.product(roots, roots):
        if j != jj:
            continue
        left, right, sign = name[(i, j)], name[(j, k)], 1
        if draw(st.booleans()):
            left, right, sign = right, left, -1
        if draw(st.booleans()):
            brackets.append((right, left, {name[(i, k)]: draw(NONZERO)}))
        value = {name[(i, k)]: sign * draw(NONZERO)}
        if draw(st.booleans()):
            value[draw(sampled_from(tuple(names)))] = Fraction(0)
        brackets.append((left, right, value))
    return m, names, weights, brackets


@st.composite
def abelian_algebras(draw):
    d = draw(st.integers(1, 3))
    names = [f"x{k}" for k in range(draw(st.integers(1, 4)))]
    weights = {nm: draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)) for nm in names}
    return d, names, weights, []


@st.composite
def central_extensions(draw):
    """A root-subset algebra with one more torus direction that every
    weight kills."""
    d, names, weights, brackets = draw(root_subset_algebras())
    pos = draw(st.integers(0, d))
    return d + 1, names, {nm: w[:pos] + [0] + w[pos:] for nm, w in weights.items()}, brackets


ALGEBRAS = st.one_of(root_subset_algebras(), abelian_algebras(), central_extensions())


def elements(dim):
    return st.lists(st.one_of(st.just(Fraction(0)), RATIONALS), min_size=dim, max_size=dim)


class TestSparseTable:
    @settings(max_examples=60)
    @given(spec=ALGEBRAS, data=st.data())
    def test_matches_dense_reference(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        ref = DenseReference(*spec)
        keys = [(i, j) for i, j, _ in alg.brackets]
        assert keys == sorted(set(keys)) and all(i < j for i, j in keys)
        for _, _, terms in alg.brackets:
            ks = [k for k, _ in terms]
            assert terms and ks == sorted(set(ks)) and all(c != 0 for _, c in terms)
        x = data.draw(elements(alg.dim))
        y = data.draw(elements(alg.dim))
        assert alg.bracket(x, y) == ref.bracket(x, y)
        assert alg.ad(x) == ref.ad(x)
        for i, j in itertools.product(range(alg.n), repeat=2):
            assert alg.pair_bracket(i, j) == ref.pair_bracket(i, j)
        assert alg.to_json() == ref.to_json()
        assert alg.fingerprint() == ref.fingerprint()
        again = WeightedLieAlgebra.from_json(alg.to_json())
        assert again == alg and hash(again) == hash(alg)

    @settings(max_examples=30)
    @given(spec=ALGEBRAS, data=st.data())
    def test_sympy_entries_match_dense_reference(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        ref = DenseReference(*spec)
        x = sympy.symbols(f"c1:{alg.dim + 1}")
        scale = data.draw(elements(alg.dim))
        shift = data.draw(elements(alg.dim))
        y = [a * s + b for a, s, b in zip(scale, x, shift)]
        for got, want in zip(alg.bracket(x, y), ref.bracket(x, y)):
            assert sympy.expand(got - want) == 0
