"""The exact kernels that skip zero entries, on sparse random Fraction
matrices: `rref` and `reduce_mod_rowspace` against the dense loops
kept here; the memoised sparse chains `exp_ad_chain`, the reference
`exp_ad_terms` and `vector_sum` (`tests/exp_ad_reference.py`), the
scalar `_word_rows` and the formal `orbit._exp_row` against the dense
adjoint chains of `test_memo`; and
`act` on scalar words against the dense matrix sum of the curve kept
here.  (`act` and `CurveSubspace.limit` are pinned to sympy in
`test_curves`.)  Also pinned: every entry the kernels return is an int
or a Fraction with a denominator above 1, never a float; a float is
refused at the library edge; and on A3 no kernel, membership query or
pair-relation run multiplies by a zero Fraction."""

import itertools
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from curve_powers_reference import powers
from exp_ad_reference import exp_ad_terms, vector_sum
from linalg_reference import solve, transpose, zero
from test_liealg_sparse import ALGEBRAS, RATIONALS, DenseReference, sampled_from
from test_memo import dense_chain, outcome, perturbed_algebras, sum_chain

from orbitvar import models, orbit
from orbitvar.liealg import AlgebraError, WeightedLieAlgebra
from orbitvar.linalg import Matrix, NotNilpotentError, entry, nilpotent_terms, nullspace, reduce_mod_rowspace, row_space_basis, rref

# -- dense references ---------------------------------------------------


def dense_rref(m):
    """The row reduction that updates every column of every row."""
    rows = [[Fraction(e) for e in r] for r in m.entries]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix.from_rows(rows) if rows else m, tuple(pivots)


def two_rref_nullspace(m):
    """The kernel basis e_f - sum_r R[r][f] e_(p_r) over the free columns
    f of the rref R of m, brought to its canonical form by a second
    `rref` (`row_space_basis`)."""
    rr, piv = rref(m)
    basis = []
    for f in (j for j in range(m.cols) if j not in piv):
        v = [0] * m.cols
        v[f] = 1
        for row, p in zip(rr.entries, piv):
            if row[f]:
                v[p] = -row[f]
        basis.append(tuple(v))
    return row_space_basis(Matrix(len(basis), m.cols, tuple(basis)))


def dense_reduce_mod_rowspace(v, basis, pivots):
    w = list(v)
    for r, p in enumerate(pivots):
        if w[p] != 0:
            f = w[p]
            w = [a - f * b for a, b in zip(w, basis.row(r))]
    return tuple(w)


def dense_at(curve, z):
    """The point of a curve at z as a sum of scaled coefficient matrices."""
    coeffs = powers(curve)
    point = sum((m.scale(z**k) for k, m in enumerate(coeffs) if k), coeffs[0])
    return orbit.Subspace(curve.alg, row_space_basis(point))


def dense_vector_sum(vectors):
    return tuple(sum(cs, Fraction(0)) for cs in zip(*vectors))


def is_entry(e) -> bool:
    """The one entry representation: an int, or a Fraction that is not
    whole; a float (or a whole Fraction) is not one."""
    return type(e) is int or (type(e) is Fraction and e.denominator > 1)


# -- strategies ---------------------------------------------------------

# mostly zeros, so rows are as sparse as the geometry path's
SPARSE_ENTRY = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)), RATIONALS)


@st.composite
def sparse_matrices(draw, max_rows=6, max_cols=7):
    """Sparse rational matrices, 0 x n included, some rows forced to zero
    and sometimes every entry zero, with entries converted by `entry` as
    `Matrix.from_rows` converts them."""
    nr, nc = draw(st.integers(0, max_rows)), draw(st.integers(1, max_cols))
    if draw(st.integers(0, 9)) == 0:
        return zero(nr, nc)
    rows = [draw(st.lists(SPARSE_ENTRY, min_size=nc, max_size=nc)) for _ in range(nr)]
    for i in range(nr):
        if draw(st.integers(0, 5)) == 0:
            rows[i] = [Fraction(0)] * nc
        elif draw(st.booleans()):
            rows[i] = [draw(sampled_from((2, -3, Fraction(1, 2)))) * e for e in rows[i]]
    return Matrix(nr, nc, tuple(tuple(map(entry, row)) for row in rows))


def sparse_vectors(n):
    return st.lists(SPARSE_ENTRY, min_size=n, max_size=n).map(tuple)


# -- differential tests ---------------------------------------------------


class TestRowReduction:
    @settings(max_examples=300)
    @given(sparse_matrices())
    def test_rref_matches_dense(self, m):
        got = rref(m)
        assert got == dense_rref(m)
        assert all(is_entry(e) for row in got[0].entries for e in row)
        assert got[0].rows == m.rows and got[0].cols == m.cols

    @settings(max_examples=300)
    @given(sparse_matrices(max_rows=8, max_cols=9))
    def test_nullspace_matches_the_two_rref_reference(self, m):
        """One `rref` of the column-reversed matrix gives the canonical
        kernel basis that a second `rref` of the plain kernel basis gave."""
        got = nullspace(m)
        assert got == two_rref_nullspace(m)
        assert all(is_entry(e) for row in got.entries for e in row)

    @settings(max_examples=100)
    @given(ALGEBRAS, st.data())
    def test_nullspace_of_adjoint_matrices_matches_the_two_rref_reference(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        m = alg.ad(tuple(map(entry, data.draw(sparse_vectors(alg.dim)))))
        assert nullspace(m) == two_rref_nullspace(m)
        assert nullspace(transpose(m)) == two_rref_nullspace(transpose(m))

    def test_rref_of_empty_and_zero_matrices(self):
        for m in (Matrix(0, 4, ()), zero(3, 4)):
            assert rref(m) == dense_rref(m) == (m, ())

    def test_rref_with_pivots_other_than_one(self):
        m = Matrix.from_rows([[0, 3, 6, 0], [2, 0, 0, 4], [0, 0, Fraction(1, 2), 5]])
        assert rref(m) == dense_rref(m)
        assert rref(m)[1] == (0, 1, 2)

    @settings(max_examples=300)
    @given(sparse_matrices(), st.data())
    def test_reduce_mod_rowspace_matches_dense(self, m, data):
        basis, piv = rref(m)
        basis = Matrix(len(piv), m.cols, basis.entries[: len(piv)])
        v = data.draw(sparse_vectors(m.cols))
        assert reduce_mod_rowspace(v, basis, piv) == dense_reduce_mod_rowspace(v, basis, piv)


class TestChains:
    @settings(max_examples=100)
    @given(ALGEBRAS, st.data())
    def test_exp_ad_terms_matches_dense_adjoint(self, spec, data):
        alg, ref = WeightedLieAlgebra.build(*spec), DenseReference(*spec)
        u = (Fraction(0),) * alg.t_dim + data.draw(sparse_vectors(alg.n))
        v = data.draw(sparse_vectors(alg.dim))
        for x in (u, *(alg.weight_vector(k) for k in range(alg.n))):
            assert exp_ad_terms(alg, x, v) == dense_chain(ref.ad(x), v)

    @settings(max_examples=60)
    @given(perturbed_algebras())
    def test_sparse_chains_match_the_bracket_chains(self, spec):
        """Each memoised chain, built from the `ad_table` column of a_k
        over the previous term's nonzero entries, is the chain of
        brackets of `exp_ad_terms`, with its entry types, and column j
        of the dense powers of ad a_k when those end; a chain that does
        not end raises on both routes and is not kept."""
        alg, ref = WeightedLieAlgebra.build(*spec), DenseReference(*spec)
        for k in range(alg.n):
            try:
                powers = nilpotent_terms(ref.ad(alg.weight_vector(k)))
            except NotNilpotentError:
                powers = None
            for j in range(alg.dim):
                want = outcome(exp_ad_terms, alg, alg.weight_vector(k), alg.basis_vector(j))
                got = outcome(alg.exp_ad_chain, k, j)
                if want[0] == "raised":
                    assert got == want and ("exp-ad-chain", k, j) not in alg._memo
                    continue
                dense = [[0] * alg.dim for _ in got[1]]
                for row, term in zip(dense, got[1]):
                    assert [i for i, _ in term] == sorted(i for i, c in term if c)
                    for i, c in term:
                        row[i] = c
                assert [tuple(row) for row in dense] == list(want[1])
                assert all(is_entry(c) for term in got[1] for _, c in term)
                if powers is not None:
                    columns = [tuple(m[i, j] for i in range(alg.dim)) for m in powers]
                    assert columns[: len(dense)] == list(want[1]) and not any(map(any, columns[len(dense) :]))

    @settings(max_examples=200)
    @given(st.integers(1, 7).flatmap(lambda n: st.lists(sparse_vectors(n), min_size=1, max_size=5)))
    def test_vector_sum_matches_dense(self, vectors):
        got = vector_sum(vectors)
        assert got == dense_vector_sum(vectors)
        assert all(is_entry(e) for e in got)

    @settings(max_examples=100)
    @given(ALGEBRAS, st.data())
    def test_exp_row_matches_dense_adjoint_on_both_branches(self, spec, data):
        """At a scalar z the row is sum_b z^b exp(z ad x) poly[b]; for None
        its coefficients give that polynomial in z, checked at more
        points than its degree."""
        alg, ref = WeightedLieAlgebra.build(*spec), DenseReference(*spec)
        widx = data.draw(st.integers(0, alg.n - 1))
        poly = data.draw(st.lists(sparse_vectors(alg.dim), min_size=1, max_size=3))
        chains = [dense_chain(ref.ad(alg.weight_vector(widx)), p) for p in poly]

        def at(z):
            return dense_vector_sum([tuple(z**b * c for c in sum_chain(ch, z)) for b, ch in enumerate(chains)])

        z = data.draw(RATIONALS)
        assert alg._word_rows(((widx, z),), poly) == [sum_chain(ch, z) for ch in chains]
        formal = orbit._exp_row(alg, widx, poly)
        assert len(formal) == 1 or any(formal[-1])
        for z in range(max(b + len(ch) for b, ch in enumerate(chains))):
            assert sum_chain(formal, z) == at(z)


class TestCurvePoints:
    CURVE_ALGEBRAS = ("sl2-borel", "borel-nilradical-A2", "heisenberg-3", "borel-nilradical-A3")

    @settings(max_examples=100)
    @given(st.sampled_from(CURVE_ALGEBRAS), st.data())
    def test_at_matches_the_dense_sum(self, name, data):
        """`act` on a word whose formal parameter is set to z, against the
        dense sum of the curve of that word at z: on the witness curves
        of the fixed points and on random words with the formal
        parameter, at drawn values of z, zero included."""
        alg = models.builtin(name)
        t = orbit.torus_subspace(alg)
        recd = data.draw(st.sampled_from(orbit.torus_fixed_points(alg)))
        scalars = st.sampled_from((None, Fraction(2), Fraction(-1, 3)))
        word = data.draw(st.lists(st.tuples(st.integers(0, alg.n - 1), scalars), min_size=1, max_size=3))
        word = [(i, None) for i, _ in word[:1]] + word[1:]
        z = data.draw(st.one_of(st.just(Fraction(0)), RATIONALS))
        for w, curve in (([(i, None) for i in recd.r_v_set], recd.witness), (word, orbit.act(alg, word, t))):
            assert orbit.act(alg, [(i, z if s is None else s) for i, s in w], t) == dense_at(curve, z)

    def test_theta_points_multiply_no_zero(self, monkeypatch):
        """`act` on the six one-factor A3 words at z = 2/3: the dense sum of
        their curves made 162 Fraction products, 152 of them with a zero
        operand.  Integral entries are ints, whose products no Fraction
        method sees, so z is not integral, and both `__mul__` and
        `__rmul__` are counted, since an int times a Fraction is the
        Fraction's `__rmul__`."""
        alg = models.borel_nilradical_a3()
        t = orbit.torus_subspace(alg)
        z = Fraction(2, 3)
        want = [dense_at(orbit.witness_curve(alg, (i,)), z) for i in range(alg.n)]
        products = {"all": 0, "zero": 0}

        def counted(real):
            def mul(a, b):
                products["all"] += 1
                products["zero"] += not a or not b
                return real(a, b)

            return mul

        monkeypatch.setattr(Fraction, "__mul__", counted(Fraction.__mul__))
        monkeypatch.setattr(Fraction, "__rmul__", counted(Fraction.__rmul__))
        got = [orbit.act(alg, [(i, z)], t) for i in range(alg.n)]
        monkeypatch.undo()
        assert got == want
        assert products["zero"] == 0 < products["all"]


class TestSubspaceEquality:
    def test_equal_algebras_in_two_objects_still_compare_equal(self):
        one, two = models.builtin("borel-nilradical-A2"), models.builtin("borel-nilradical-A2")
        assert one is not two and one == two
        rows = [one.weight_vector(0), one.weight_vector(2)]
        assert orbit.Subspace.from_rows(one, rows) == orbit.Subspace.from_rows(two, rows)
        other = models.builtin("heisenberg-3")
        assert orbit.Subspace.from_rows(one, rows) != orbit.Subspace.from_rows(other, rows)


# -- exactness ------------------------------------------------------------


class TestOneEntryRepresentation:
    """A Matrix built with its constructor holds ints; the kernels keep
    integral values as ints and return a Fraction only when it is not
    whole, and a float is refused where it enters the library."""

    MATRICES = (
        Matrix(2, 3, ((2, 4, 0), (1, 0, 3))),
        Matrix(2, 2, ((1, 0), (0, 1))),  # already reduced: no arithmetic touches it
        Matrix(3, 3, ((0, 0, 0), (0, 1, 5), (0, 2, 10))),
        Matrix(1, 2, ((2, 1),)),  # its rref holds 1/2
    )

    @pytest.mark.parametrize("m", MATRICES)
    def test_rref_nullspace_and_solve(self, m):
        rr, _ = rref(m)
        assert (rr, _) == dense_rref(m)
        ker = nullspace(m)
        x = solve(m, [0] * m.rows)
        for e in (*itertools.chain.from_iterable(rr.entries), *itertools.chain.from_iterable(ker.entries), *x):
            assert is_entry(e)

    def test_float_entries_are_refused(self):
        with pytest.raises(TypeError):
            rref(Matrix(1, 2, ((1.5, 0),)))

    def test_act_refuses_a_float_scalar(self):
        alg = models.borel_nilradical_a2()
        with pytest.raises(TypeError):
            orbit.act(alg, [(0, 0.1)], orbit.torus_subspace(alg))

    def test_multipoint_membership_refuses_a_float_point(self):
        alg = models.borel_nilradical_a2()
        with pytest.raises(TypeError):
            orbit.multipoint_membership(alg, [(0.1, 0.2, 0, 0, 0)])

    def test_pair_relation_refuses_a_float_base_point(self):
        alg = models.borel_nilradical_a2()
        # (1, 0) is in the punctured kernel of the weight (0, 1) of xb
        assert orbit.verify_pair_relation(alg, alg.weights[1], samples=1, x0=(1, 0, 0, 0, 0)).checks
        with pytest.raises(TypeError):
            orbit.verify_pair_relation(alg, alg.weights[1], samples=1, x0=(1.0, 0, 0, 0, 0))

    @settings(max_examples=100)
    @given(ALGEBRAS, st.data())
    def test_every_kernel_returns_ints_or_proper_fractions(self, spec, data):
        """rref, nullspace and solve on the adjoint matrix of a drawn
        element, the exp(ad) terms and chains, `_word_rows` and `_exp_row`,
        `act` on a scalar and on a formal word and the curve's limit, the
        Jordan parts where the algebra admits them, and the word
        `_orbit_word` finds for an orbit point."""
        alg = WeightedLieAlgebra.build(*spec)
        x = tuple(map(entry, data.draw(sparse_vectors(alg.dim))))
        z = entry(data.draw(RATIONALS))
        got = []
        m = alg.ad(x)
        got += itertools.chain.from_iterable(rref(m)[0].entries)
        got += itertools.chain.from_iterable(nullspace(m).entries)
        got += solve(m, x) or ()
        u = (0,) * alg.t_dim + x[alg.t_dim :]
        got += itertools.chain.from_iterable(exp_ad_terms(alg, u, x))
        for k, j in itertools.product(range(alg.n), range(alg.dim)):
            got += (c for term in alg.exp_ad_chain(k, j) for _, c in term)
        widx = data.draw(st.integers(0, alg.n - 1))
        got += itertools.chain.from_iterable(alg._word_rows(((widx, z),), [x, u]))
        got += itertools.chain.from_iterable(orbit._exp_row(alg, widx, [x, u]))
        t = orbit.torus_subspace(alg)
        word = data.draw(st.lists(st.tuples(st.integers(0, alg.n - 1), RATIONALS), min_size=1, max_size=3))
        point = orbit.act(alg, word, t)
        curve = orbit.act(alg, [(i, None) for i, _ in word], t)
        got += itertools.chain.from_iterable(point.basis.entries)
        got += (e for row in curve.rows for v in row for e in v)
        got += itertools.chain.from_iterable(curve.limit().basis.entries)
        try:
            s, n = alg.jordan_decompose(x)
            got += s + n
        except AlgebraError:
            pass
        got += (c for _, c in orbit._orbit_word(alg, point) or ())
        assert all(is_entry(e) for e in got)


# -- no multiplication by zero ---------------------------------------------


def test_no_kernel_multiplies_by_a_zero_fraction(monkeypatch):
    """Counts every Fraction product in A3 row reductions, actions, limits,
    exp(ad) chains, residues, the fixed-point enumeration and the boundary
    ranks; a dense loop would multiply zeros."""
    alg = models.borel_nilradical_a3()
    rng = random.Random(0)

    def point():
        return tuple(Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 3)) for _ in range(alg.dim))

    matrices = [alg.ad(point()) for _ in range(10)] + [Matrix.from_rows([point() for _ in range(4)]) for _ in range(10)]
    bases = [rref(m) for m in matrices]
    words = [
        [(rng.randrange(alg.n), rng.choice([None, Fraction(rng.randint(1, 3), rng.randint(1, 3))])) for _ in range(3)]
        for _ in range(10)
    ]
    t = orbit.torus_subspace(alg)
    products = {"all": 0, "zero": 0}
    real_mul, real_rmul = Fraction.__mul__, Fraction.__rmul__

    def counted(real):
        def mul(a, b):
            products["all"] += 1
            products["zero"] += not a or not b
            return real(a, b)

        return mul

    monkeypatch.setattr(Fraction, "__mul__", counted(real_mul))
    monkeypatch.setattr(Fraction, "__rmul__", counted(real_rmul))
    for m in matrices:
        rref(m)
    for word in words:
        moved = orbit.act(alg, word, t)
        if isinstance(moved, orbit.CurveSubspace):
            moved.limit()
    for _ in range(10):
        u = (Fraction(0),) * alg.t_dim + point()[alg.t_dim :]
        exp_ad_terms(alg, u, point())
    for rr, piv in bases:
        reduce_mod_rowspace(point(), rr, piv)
    fresh = models.borel_nilradical_a3()  # its curves grow along the fixed-point tree
    orbit.torus_fixed_points(fresh)
    orbit.boundary_components(fresh)
    assert products["all"] > 100
    assert products["zero"] == 0


def test_membership_and_pair_relation_multiply_no_zero(monkeypatch):
    """Counts every Fraction product in A3 membership queries (orbit
    points, fixed points looked up on a fresh algebra, a point that only
    the Jordan parts decide and a non-commutative one) and in
    `verify_pair_relation` at every weight: none of the products that
    run has a zero operand.  How many run is the kernels' business."""
    alg = models.borel_nilradical_a3()
    rng = random.Random(1)
    t = orbit.torus_subspace(alg)
    points = [
        orbit.act(alg, [(rng.randrange(alg.n), Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 2))) for _ in range(3)], t)
        for _ in range(10)
    ]
    points += [recd.subspace for recd in orbit.torus_fixed_points(models.borel_nilradical_a3())]
    unit = [[int(k == j) for k in range(alg.dim)] for j in range(alg.dim)]
    points.append(orbit.Subspace.from_rows(alg, [unit[2], [0, 0, 0, 1, 1, 0, 0, 0, 0], unit[6]]))
    points.append(orbit.Subspace.from_rows(alg, [unit[0], unit[3], unit[4]]))
    products = {"all": 0, "zero": 0}
    real_mul, real_rmul = Fraction.__mul__, Fraction.__rmul__

    def counted(real):
        def mul(a, b):
            products["all"] += 1
            products["zero"] += not a or not b
            return real(a, b)

        return mul

    monkeypatch.setattr(Fraction, "__mul__", counted(real_mul))
    monkeypatch.setattr(Fraction, "__rmul__", counted(real_rmul))
    kinds = [orbit.membership(alg, v).kind for v in points]
    for seed, w in enumerate(alg.weights):
        orbit.verify_pair_relation(alg, w, samples=4, seed=seed)
    monkeypatch.undo()
    assert kinds.count("orbit") == 11 and kinds.count("limit") == len(points) - 13
    assert kinds[-2:] == ["unknown", "refuted"]
    assert products["zero"] == 0
