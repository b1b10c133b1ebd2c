"""`orbit.membership`, which tries its certificates before its
refutations, and the two routes that sum memoised per-basis exp(ad)
chains, `WeightedLieAlgebra._word_rows` for a scalar and
`orbit._exp_row` for the formal parameter, against the refute-first
membership and the bracket-chain row map they replaced, both kept here
as references.  Also pinned:
the orbit word's check keeps the algebra test of `Subspace.__eq__`; the
fixed-point lookup finds every record of the enumeration (on the
builtins, A4 and the 948 of A5); on an algebra that fails Jacobi or
nilpotency the outcomes are the refute-first ones, with or without a
center; certified queries run no Jordan decomposition and no row
reduction, and an A5 fixed-point query no enumeration."""

import itertools
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from exp_ad_reference import exp_ad_terms
from test_liealg_sparse import RATIONALS, central_extensions, root_subset_algebras
from test_memo import outcome
from test_property_p import VARIANTS, borel_nilradical_a4, heisenberg_central_extension
from test_weight_walks import borel_nilradical

from orbitvar import liealg, linalg, models, orbit
from orbitvar.liealg import AlgebraError, WeightedLieAlgebra
from orbitvar.linalg import Matrix, nullspace, row_space_basis

# -- references: the versions before certify-first and memoised chains ----


def reference_exp_row(alg, widx, scalar, poly):
    """exp(z ad x_widx) of the row sum_b z^b poly[b], each poly[b]'s chain
    rebuilt by brackets (`exp_ad_terms`) and summed by Horner's rule."""
    xw = alg.weight_vector(widx)
    if scalar is not None:
        z = Fraction(scalar)
        out = []
        for p in poly:
            chain = exp_ad_terms(alg, xw, p)
            acc = chain[-1]
            for term in reversed(chain[:-1]):
                acc = tuple((t + z * a if t else z * a) if a else t for t, a in zip(term, acc))
            out.append(acc)
        return out
    chains = [exp_ad_terms(alg, xw, p) for p in poly]
    out = [list(alg.zero()) for _ in range(max(b + len(chain) for b, chain in enumerate(chains)))]
    for b, chain in enumerate(chains):
        for acc, term in zip(out[b:], chain):
            for j, c in enumerate(term):
                if c:
                    acc[j] += c
    while len(out) > 1 and not any(out[-1]):
        out.pop()
    return [tuple(acc) for acc in out]


def reference_act(alg, word, v):
    """`act` for a word of scalars, through `reference_exp_row`."""
    rows = [[row] for row in v.basis.entries]
    for widx, scalar in reversed(word):
        rows = [reference_exp_row(alg, widx, scalar, p) for p in rows]
    return orbit.Subspace(alg, row_space_basis(Matrix(v.dim, alg.dim, tuple(p[0] for p in rows))))


def reference_peel_orbit(alg, v):
    rows = [list(v.basis.row(i)) for i in range(v.dim)]
    applied = []
    for k in alg.weight_order():
        w = alg.weights[k]
        col = alg.t_dim + k
        coefs = [rows[i][col] for i in range(len(rows))]
        wvals = [w(rows[i][: alg.t_dim]) for i in range(len(rows))]
        if all(c == 0 for c in coefs):
            continue
        zc = None
        for c, wv in zip(coefs, wvals):
            if wv != 0:
                zc = c / wv
                break
        if zc is None:
            return None
        if any(c != zc * wv for c, wv in zip(coefs, wvals)):
            return None
        rows = [list(reference_exp_row(alg, k, zc, [tuple(r)])[0]) for r in rows]
        applied.append((k, -zc))
    if any(any(r[alg.t_dim + j] != 0 for j in range(alg.n)) for r in rows):
        return None
    return applied


def same_answer(alg, v, got, want):
    """Two `outcome`s of membership on V agree: the same exception, or
    the same kind, reason and witness, and an orbit word on either side
    maps t to V by `reference_act`.  The word itself may differ: the
    peel's and the forward pass's are two factorisations of one point."""
    if "raised" in (got[0], want[0]):
        return got == want
    a, b = got[1], want[1]
    if (a.kind, a.reason, a.witness) != (b.kind, b.reason, b.witness):
        return False
    t = orbit.torus_subspace(alg)
    return all(reference_act(alg, list(verdict.params), t) == v for verdict in (a, b) if verdict.kind == "orbit")


def reference_membership(alg, v):
    """Membership refuting first: the center and the Jordan parts, then
    the orbit peel, then a scan of every torus-fixed point."""
    if v.dim != alg.t_dim:
        raise orbit.DimensionMismatchError(f"dim {v.dim} != {alg.t_dim}")
    if not orbit.is_commutative_subalgebra(alg, v):
        return orbit.MembershipVerdict("refuted", reason="not a commutative subalgebra")
    z = alg.center()
    if z.rows:
        for r in range(z.rows):
            if not v.contains(list(z.row(r)) + [Fraction(0)] * alg.n):
                return orbit.MembershipVerdict("refuted", reason="does not contain the center")
    if z.rows == 0:
        for r in range(v.dim):
            s, _ = alg.jordan_decompose(v.basis.row(r))
            if not v.contains(s):
                return orbit.MembershipVerdict("refuted", reason="semisimple part of a member escapes")
    if v.pivots == tuple(range(alg.t_dim)):
        params = reference_peel_orbit(alg, v)
        if params is not None:
            word = [(i, c) for i, c in params]
            if reference_act(alg, word, orbit.torus_subspace(alg)) == v:
                return orbit.MembershipVerdict("orbit", params=tuple(params))
        return orbit.MembershipVerdict("unknown", reason="torus-graph subspace without orbit certificate")
    if orbit.graded_subset(alg, v) is not None:
        for recd in orbit.torus_fixed_points(alg):
            if recd.subspace == v:
                return orbit.MembershipVerdict("limit", witness=recd.witness)
        return orbit.MembershipVerdict("unknown", reason="graded but not of fixed-point shape")
    return orbit.MembershipVerdict("unknown", reason="no certificate route applies")


# -- algebras and inputs ------------------------------------------------------


def jordan_example():
    """An abelian a with weights e1, e2, e1 + e2, e3 and V spanned by
    t3 + a, b and c: commutative, but the semisimple part t3 of t3 + a
    is not in V, so the Jordan refutation answers."""
    alg = WeightedLieAlgebra.build(
        3, ["a", "b", "c", "d"], {"a": [1, 0, 0], "b": [0, 1, 0], "c": [1, 1, 0], "d": [0, 0, 1]}
    )
    t3_plus_a, b, c = (tuple(Fraction(int(k in ks)) for k in range(alg.dim)) for ks in ((2, 3), (4,), (5,)))
    return alg, orbit.Subspace.from_rows(alg, [t3_plus_a, b, c])


def center_example():
    """An abelian a with weights e1, e2, e1 + e2 and a central t3: the
    span of a, b and c is commutative and misses the center.  (On the
    central extensions of heisenberg-3 every commutative subspace of
    dimension t_dim holds the center: with it, one that did not would
    span a commutative subalgebra of dimension t_dim + 1, and there is
    none.)"""
    alg = WeightedLieAlgebra.build(3, ["a", "b", "c"], {"a": [1, 0, 0], "b": [0, 1, 0], "c": [1, 1, 0]})
    return alg, orbit.Subspace.from_rows(alg, [alg.weight_vector(i) for i in range(3)])


BUILTINS = ("sl2-borel", "borel-nilradical-A2", "heisenberg-3", "abelian:3", "borel-nilradical-A3")
# built once, so later examples also read chains and records that earlier
# ones memoised
FIXED = (
    [models.builtin(name) for name in BUILTINS]
    + [borel_nilradical_a4(v) for v in VARIANTS]
    + [heisenberg_central_extension(v) for v in VARIANTS]
    + [jordan_example()[0], center_example()[0]]
)


@st.composite
def valid_algebras(draw):
    spec = draw(st.one_of(root_subset_algebras(), central_extensions()))
    alg = WeightedLieAlgebra.build(*spec)
    assume(alg.is_valid())
    return alg


ALGEBRAS = st.one_of(st.sampled_from(FIXED), valid_algebras())
SCALARS = st.sampled_from([Fraction(c) for c in (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))])
ENTRY = st.sampled_from([Fraction(0)] * 3 + [Fraction(c) for c in (1, -1, 2, Fraction(1, 2))])


def small_rows(data, alg, count):
    return [data.draw(st.lists(ENTRY, min_size=alg.dim, max_size=alg.dim)) for _ in range(count)]


def combination(data, rows, width):
    coefs = data.draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
    return [sum((c * row[k] for c, row in zip(coefs, rows) if c), Fraction(0)) for k in range(width)]


def orbit_point(data, alg):
    word = data.draw(st.lists(st.tuples(st.integers(0, alg.n - 1), SCALARS), max_size=3))
    return orbit.act(alg, word, orbit.torus_subspace(alg))


def fixed_point(data, alg):
    return data.draw(st.sampled_from(orbit.torus_fixed_points(alg))).subspace


def random_subspace(data, alg):
    return orbit.Subspace.from_rows(alg, small_rows(data, alg, alg.t_dim))


def non_commutative(data, alg):
    """Two weight vectors with a nonzero bracket and random other rows."""
    assume(alg.brackets and alg.t_dim >= 2)
    i, j, _ = data.draw(st.sampled_from(alg.brackets))
    rows = [alg.weight_vector(i), alg.weight_vector(j)] + small_rows(data, alg, alg.t_dim - 2)
    return orbit.Subspace.from_rows(alg, rows)


def commutative(data, alg):
    """A random first row, often a torus element plus vectors of the
    weights it kills (so its Jordan parts are both nonzero), then random
    combinations of the common centralizer of the rows so far."""
    rows = small_rows(data, alg, 1)
    if data.draw(st.booleans()):
        t = rows[0][: alg.t_dim]
        rows[0] = t + [c if w(t) == 0 else Fraction(0) for c, w in zip(rows[0][alg.t_dim :], alg.weights)]
    for _ in range(2 * alg.t_dim):
        if len(rows) == alg.t_dim:
            break
        cent = nullspace(Matrix.from_rows([r for x in rows for r in alg.ad(x).entries]))
        y = combination(data, cent.entries, alg.dim)
        if orbit.Subspace.from_rows(alg, rows + [y]).dim > len(rows):
            rows.append(y)
    return orbit.Subspace.from_rows(alg, rows)


def torus_stable(data, alg):
    """a_S for a random weight set S plus torus rows, drawn from t or
    from t_S, the common kernel of S: z_S + a_S, torus-stable points that
    are not fixed points (S dependent or not abelian, or the torus rows
    not all of t_S), and on a nonzero center points that miss it."""
    subset = data.draw(st.lists(st.integers(0, alg.n - 1), max_size=alg.t_dim, unique=True))
    kernel = alg.torus_kernel([alg.weights[i] for i in subset]).entries
    if data.draw(st.booleans()) or not kernel:
        torus = [row[: alg.t_dim] for row in small_rows(data, alg, alg.t_dim - len(subset))]
    else:
        torus = [combination(data, kernel, alg.t_dim) for _ in range(alg.t_dim - len(subset))]
    return orbit.Subspace.from_rows(alg, [t + [Fraction(0)] * alg.n for t in torus] + [alg.weight_vector(i) for i in subset])


def perturbed_orbit_point(data, alg):
    """An orbit point with one entry of one basis row moved."""
    v = orbit_point(data, alg)
    rows = [list(row) for row in v.basis.entries]
    r, c = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, alg.dim - 1))
    rows[r][c] += data.draw(SCALARS)
    return orbit.Subspace.from_rows(alg, rows)


INPUTS = (orbit_point, fixed_point, random_subspace, non_commutative, commutative, torus_stable, perturbed_orbit_point)


# -- differential tests ----------------------------------------------------------


class TestExpRow:
    @settings(max_examples=150)
    @given(ALGEBRAS, st.data())
    def test_matches_bracket_chains_on_both_branches(self, alg, data):
        widx = data.draw(st.integers(0, alg.n - 1))
        poly = [tuple(row) for row in small_rows(data, alg, data.draw(st.integers(1, 3)))]
        z = data.draw(st.one_of(st.just(Fraction(0)), RATIONALS))
        assert alg._word_rows(((widx, z),), poly) == reference_exp_row(alg, widx, z, poly)
        assert orbit._exp_row(alg, widx, poly) == reference_exp_row(alg, widx, None, poly)

    @pytest.mark.parametrize("alg", FIXED[:5], ids=BUILTINS)
    def test_every_weight_and_basis_vector_of_the_builtins(self, alg):
        for widx in range(alg.n):
            for j in range(alg.dim):
                poly = [alg.basis_vector(j), alg.basis_vector((j + 1) % alg.dim)]
                assert alg._word_rows(((widx, Fraction(3, 2)),), poly) == reference_exp_row(alg, widx, Fraction(3, 2), poly)
                assert orbit._exp_row(alg, widx, poly) == reference_exp_row(alg, widx, None, poly)

    def test_chains_are_built_once(self):
        alg = models.borel_nilradical_a3()
        t = orbit.torus_subspace(alg)
        orbit.act(alg, [(0, None), (3, Fraction(2))], t)
        chain = alg.exp_ad_chain(0, 1)
        orbit.act(alg, [(0, Fraction(5))], t)
        assert alg.exp_ad_chain(0, 1) is chain


class TestAct:
    @settings(max_examples=300)
    @given(ALGEBRAS, st.sampled_from(INPUTS), st.data())
    def test_scalar_words_match_the_reduced_image(self, alg, make, data):
        """With or without V's pivots on the torus, `act` gives the row
        space of the image rows."""
        v = make(data, alg)
        word = data.draw(st.lists(st.tuples(st.integers(0, alg.n - 1), SCALARS), min_size=1, max_size=3))
        assert orbit.act(alg, word, v) == reference_act(alg, word, v)
        event("pivots on the torus" if all(p < alg.t_dim for p in v.pivots) else "a pivot off the torus")

    @pytest.mark.parametrize("alg", FIXED[:5], ids=BUILTINS)
    def test_only_pivots_off_the_torus_reduce_rows(self, alg, monkeypatch):
        """t and the fixed points z_S + a_S, each moved by every weight: the
        image is reduced exactly when a pivot of V lies off the torus."""
        reductions = count_calls(monkeypatch, [orbit], "row_space_basis")
        points = [orbit.torus_subspace(alg)] + [recd.subspace for recd in orbit.torus_fixed_points(alg)]
        for v in points:
            for widx in range(alg.n):
                word = [(widx, Fraction(3, 2)), ((widx + 1) % alg.n, Fraction(-2))]
                before = len(reductions)
                assert orbit.act(alg, word, v) == reference_act(alg, word, v)
                assert len(reductions) - before == (not all(p < alg.t_dim for p in v.pivots))


class TestMembership:
    @settings(max_examples=400)
    @given(ALGEBRAS, st.sampled_from(INPUTS), st.data())
    def test_matches_refute_first(self, alg, make, data):
        v = make(data, alg)
        assume(v.dim == alg.t_dim)
        got = outcome(orbit.membership, alg, v)
        assert same_answer(alg, v, got, outcome(reference_membership, alg, v))
        event(f"{make.__name__}: {got[1].kind} {got[1].reason}" if got[0] == "value" else f"{make.__name__}: raised")

    def test_jordan_refutation(self):
        alg, v = jordan_example()
        want = orbit.MembershipVerdict("refuted", reason="semisimple part of a member escapes")
        assert reference_membership(alg, v) == orbit.membership(alg, v) == want

    def test_center_refutation(self):
        alg, v = center_example()
        want = orbit.MembershipVerdict("refuted", reason="does not contain the center")
        assert reference_membership(alg, v) == orbit.membership(alg, v) == want

    def test_an_equal_copy_of_the_algebra_certifies(self):
        """V on one instance, queried on an equal one: the rows match and
        the algebras compare equal by value."""
        alg, copy = models.builtin("borel-nilradical-A2"), models.builtin("borel-nilradical-A2")
        assert alg is not copy and alg == copy
        v = orbit.act(alg, [(0, Fraction(2)), (1, Fraction(-1, 2)), (2, Fraction(3))], orbit.torus_subspace(alg))
        got = orbit.membership(copy, v)
        assert got.kind == "orbit" and same_answer(copy, v, ("value", got), ("value", reference_membership(copy, v)))

    def test_a_subspace_of_another_algebra_is_not_certified(self):
        """heisenberg-3 and A2 have the same dim and weights but are not
        equal.  One factor moves t the same way in both, so the forward
        word gives V's rows on A2 too; membership refuses V as a subspace
        of another algebra before it builds anything."""
        alg, other = models.builtin("borel-nilradical-A2"), models.builtin("heisenberg-3")
        assert alg.dim == other.dim and alg != other
        v = orbit.act(other, [(0, Fraction(2))], orbit.torus_subspace(other))
        assert orbit._orbit_word(alg, v) is not None
        with pytest.raises(orbit.DimensionMismatchError, match="another algebra"):
            orbit.membership(alg, v)


class TestFixedPointLookup:
    @pytest.mark.parametrize(
        "make",
        [lambda name=name: models.builtin(name) for name in BUILTINS]
        + [lambda: borel_nilradical_a4(0), lambda: heisenberg_central_extension(0), lambda: borel_nilradical(5)],
        ids=list(BUILTINS) + ["A4", "heisenberg-3-central", "A5"],
    )
    def test_finds_every_record(self, make):
        """Each record's subspace is looked up on a fresh algebra, which
        has enumerated nothing, and found as the record of its weight set."""
        records = orbit.torus_fixed_points(make())
        fresh = make()
        for recd in records:
            v = orbit.Subspace(fresh, recd.subspace.basis)
            assert orbit.fixed_point_of(fresh, v, orbit.graded_subset(fresh, v)) == recd
        assert "fixed-point-subsets" not in fresh._memo
        assert orbit.torus_fixed_points(fresh) == records


# -- preconditions and counts ---------------------------------------------------


def non_jacobi_algebra():
    """A3 with [x12, x3] = 0: Jacobi fails on (x1, x2, x3); zero center."""
    return WeightedLieAlgebra.build(
        3,
        ["x1", "x2", "x3", "x12", "x23", "x123"],
        {"x1": [1, 0, 0], "x2": [0, 1, 0], "x3": [0, 0, 1], "x12": [1, 1, 0], "x23": [0, 1, 1], "x123": [1, 1, 1]},
        [("x1", "x2", {"x12": 1}), ("x2", "x3", {"x23": 1}), ("x1", "x23", {"x123": 1}), ("x12", "x3", {"x123": 0})],
    )


def non_nilpotent_algebra():
    """[h, e] = e with h of weight 0: Jacobi holds, zero center, a is not
    nilpotent."""
    return WeightedLieAlgebra.build(1, ["h", "e"], {"h": [0], "e": [1]}, [("h", "e", {"e": 1})])


class TestPreconditions:
    @pytest.mark.parametrize(
        "make, message",
        [
            (non_jacobi_algebra, "jordan decomposition needs the jacobi identity: jacobi fails on (x1,x2,x3)"),
            (non_nilpotent_algebra, "jordan decomposition needs a nilpotent a"),
        ],
    )
    def test_raise_before_any_certificate(self, make, message):
        """The torus and the fixed-point shape z_S + a_S of the last
        weight are points a certificate route would answer; the
        precondition raises first, as it did refuting first."""
        alg = make()
        assert alg.center().rows == 0
        for v in (orbit.torus_subspace(alg), orbit._fixed_point_subspace(alg, (alg.n - 1,))):
            got = outcome(orbit.membership, alg, v)
            assert got == ("raised", AlgebraError, message)
            assert got == outcome(reference_membership, alg, v)


def with_center(alg):
    """alg with one more torus direction, last, that every weight kills:
    the same table, and a center that is that line."""
    brackets = [
        (alg.a_basis[i], alg.a_basis[j], {alg.a_basis[k]: c for k, c in terms}) for i, j, terms in alg.brackets
    ]
    weights = {nm: list(w.coords) + [0] for nm, w in zip(alg.a_basis, alg.weights)}
    return WeightedLieAlgebra.build(alg.t_dim + 1, alg.a_basis, weights, brackets)


def crossed_graph(alg):
    """t with one weight vector x_k added to the row of e_i, where w_k
    does not vanish on e_j, j != i: [e_i + x_k, e_j] = -w_k(e_j) x_k, so
    a torus-graph V that is not commutative."""
    k = next(k for k, w in enumerate(alg.weights) if any(w.coords))
    j = next(j for j, c in enumerate(alg.weights[k].coords) if c)
    rows = [list(alg.basis_vector(m)) for m in range(alg.t_dim)]
    rows[(j + 1) % alg.t_dim][alg.t_dim + k] = 1
    return orbit.Subspace.from_rows(alg, rows)


def non_commutative_orbit_point(alg):
    """exp(ad x1) exp(ad x2) exp(ad x3) t on `non_jacobi_algebra` and its
    central extension: without Jacobi the factors are no automorphisms,
    and this orbit point is not commutative, yet its forward word (x3
    applied first, as `weight_order` puts it) maps t to it, so its
    certificate would verify: the commutativity test must come first."""
    v = orbit.act(alg, [(0, 1), (1, 1), (2, 1)], orbit.torus_subspace(alg))
    assert not orbit.is_commutative_subalgebra(alg, v)
    word = orbit._orbit_word(alg, v)
    assert word is not None and orbit.act(alg, word, orbit.torus_subspace(alg)) == v
    return v


# a point of each shape, and the verdict kind refuting first gives it
SHAPES = {
    "torus": (orbit.torus_subspace, "orbit"),
    "fixed": (lambda alg: orbit._fixed_point_subspace(alg, (alg.n - 1,)), "limit"),
    "crossed": (crossed_graph, "refuted"),
    "orbit word": (non_commutative_orbit_point, "refuted"),
}


class TestRefuteFirstOnInvalidAlgebras:
    """On an algebra that fails Jacobi or nilpotency, with a zero center
    (`TestPreconditions`) or a nonzero one (here), `membership` gives the
    refute-first outcomes: commutativity, the Jordan preconditions on a
    zero center, then the certificates."""

    @pytest.mark.parametrize(
        "make, shape",
        [(non_jacobi_algebra, shape) for shape in SHAPES]
        + [(non_nilpotent_algebra, shape) for shape in list(SHAPES)[:3]],
        ids=[f"jacobi-fails-{shape}" for shape in SHAPES] + [f"not-nilpotent-{shape}" for shape in list(SHAPES)[:3]],
    )
    def test_outcomes_with_a_center_match_refute_first(self, make, shape):
        alg = with_center(make())
        assert alg.center().rows == 1
        point, kind = SHAPES[shape]
        v = point(alg)
        got = outcome(orbit.membership, alg, v)
        assert got == outcome(reference_membership, alg, v)
        assert got[1].kind == kind
        if kind == "refuted":
            assert got[1].reason == "not a commutative subalgebra"

    def test_zero_center_orbit_word_is_refuted_before_the_preconditions(self):
        """The same orbit point on the zero-center algebra: the
        commutativity test refutes it before the preconditions raise."""
        alg = non_jacobi_algebra()
        v = non_commutative_orbit_point(alg)
        got = outcome(orbit.membership, alg, v)
        assert got == outcome(reference_membership, alg, v)
        assert got == ("value", orbit.MembershipVerdict("refuted", reason="not a commutative subalgebra"))


def count_calls(monkeypatch, owners, name):
    """Record the arguments of every call of `name`, replaced on each of
    `owners` (a class, or the modules that bind a function)."""
    calls = []
    real = getattr(owners[0], name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


# commutative points that no certificate answers and no refutation refutes
UNCERTIFIED = {
    "borel-nilradical-A2": [[1, 0, 0, 0, 1], [0, 0, 0, 1, 0]],
    "heisenberg-3": [[1, 0, 0, 0, 1], [0, 0, 0, 1, 0]],
    "borel-nilradical-A3": [[0, 0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0, 0]],
}


class TestCounts:
    @pytest.mark.parametrize("name", UNCERTIFIED)
    def test_certified_queries_decompose_nothing(self, name, monkeypatch):
        """Certified orbit and fixed-point queries test commutativity once
        each, and run no Jordan decomposition, no Jordan conjugation and
        no row reduction: the orbit certificate compares the word's image
        rows of t with V's rows."""
        alg = models.builtin(name)
        rng = random.Random(5)
        t = orbit.torus_subspace(alg)
        points = [
            orbit.act(alg, [(rng.randrange(alg.n), Fraction(rng.randint(1, 3))) for _ in range(3)], t)
            for _ in range(4)
        ]
        points += [recd.subspace for recd in orbit.torus_fixed_points(alg)]
        uncertified = orbit.Subspace.from_rows(alg, UNCERTIFIED[name])
        jordan = count_calls(monkeypatch, [WeightedLieAlgebra], "jordan_decompose")
        conjugations = count_calls(monkeypatch, [WeightedLieAlgebra], "torus_conjugation")
        commutative = count_calls(monkeypatch, [orbit], "is_commutative_subalgebra")
        reductions = count_calls(monkeypatch, [linalg, liealg, orbit], "row_space_basis")
        verdicts = [orbit.membership(alg, v) for v in points]
        assert {v.kind for v in verdicts} == {"orbit", "limit"}
        assert jordan == conjugations == reductions == [] and len(commutative) == len(points)
        # an uncertified query decomposes each basis row
        assert orbit.membership(alg, uncertified).kind == "unknown"
        assert len(jordan) == alg.t_dim

    def test_a5_fixed_point_query_enumerates_nothing(self, monkeypatch):
        alg = borel_nilradical(5)

        def refuse(alg):
            raise AssertionError("the fixed points were enumerated")

        monkeypatch.setattr(orbit, "_fixed_point_subsets", refuse)
        # the first three pairwise commuting roots with independent weights
        subset = next(s for s in itertools.combinations(range(alg.n), 3) if orbit._independent_abelian(alg, s))
        kernel = alg.torus_kernel([alg.weights[i] for i in subset]).entries
        rows = [row + (Fraction(0),) * alg.n for row in kernel] + [alg.weight_vector(i) for i in subset]
        v = orbit.Subspace.from_rows(alg, rows)
        verdict = orbit.membership(alg, v)
        assert verdict.kind == "limit" and verdict.witness.limit() == v
        assert "fixed-point-subsets" not in alg._memo
