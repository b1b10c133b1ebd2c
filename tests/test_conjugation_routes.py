"""The routes that orbit, multipoint and biggest-torus queries take at
certificate cost, each pinned to the route it replaced, kept here:

- `jordan_decompose` by single-weight factors against the general-u
  conjugation (`test_query_kernels.conjugation_jordan`);
- the centralizer g^-1 t of a point on which no weight vanishes
  (`orbit._conjugated_centralizer`) against `nullspace(ad p)`, and
  `multipoint_membership` against the version that built every
  centralizer; on a table that fails Jacobi or nilpotency that route is
  never taken;
- `WeightedLieAlgebra.commuting` against the pairwise dense bracket;
- `membership`'s comparison of the word's image rows with V's rows
  against `act(word, t) == V`, and `membership` against the version
  that peeled V's word (`orbit_word_reference.peel_orbit`) and tested
  the latter: the same kind, reason and witness, and each side's word
  maps t to V by `test_certify_first.reference_act`.

They run on the builtins, the four A4 presentations, the four central
extensions of heisenberg-3, A5, drawn root-subset algebras and drawn
tables that fail Jacobi or nilpotency.  Every query of the `queries`
inputs of seeds 1-3 answers as the routes before: verdict and
witness, and a membership's kind, reason and witness, its word
verified on each side."""

import itertools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from orbit_word_reference import peel_orbit
from test_biggest_torus import load_workloads
from test_certify_first import INPUTS, non_jacobi_algebra, non_nilpotent_algebra, same_answer
from test_liealg_sparse import RATIONALS, DenseReference, root_subset_algebras
from test_memo import outcome, perturbed_algebras, rescaled_root_subsets
from test_property_p import VARIANTS, borel_nilradical_a4, heisenberg_central_extension
from test_query_kernels import conjugation_jordan, shaped_vectors, types
from test_weight_walks import borel_nilradical

from orbitvar import models, orbit
from orbitvar.liealg import NotClosedUnderJordanError, WeightedLieAlgebra
from orbitvar.linalg import Matrix, entry, nullspace, row_space_basis
from orbitvar.orbit import MembershipVerdict, MultiPoint, Subspace

# -- the routes before ------------------------------------------------------


def reference_commuting(alg, vectors):
    """Every pair's bracket summed as a dense vector (`bracket`)."""
    return all(not any(alg.bracket(x, y)) for x, y in itertools.combinations(vectors, 2))


def reference_membership(alg, v):
    """`membership` as it was: the orbit certificate verified by
    `act(word, t) == V`."""
    orbit._own(alg, v)
    if v.dim != alg.t_dim:
        raise orbit.DimensionMismatchError(f"dim {v.dim} != {alg.t_dim}")
    if not reference_commuting(alg, v.basis.entries):
        return MembershipVerdict("refuted", reason="not a commutative subalgebra")
    if v.dim and alg.center().rows == 0:
        alg.check_jordan_preconditions()
    if v.pivots == tuple(range(alg.t_dim)):
        params = peel_orbit(alg, v)
        if params is not None and orbit.act(alg, params, orbit.torus_subspace(alg)) == v:
            return MembershipVerdict("orbit", params=tuple(params))
        unknown = "torus-graph subspace without orbit certificate"
    else:
        graded = orbit.graded_subset(alg, v)
        recd = orbit.fixed_point_of(alg, v, graded)
        if recd is not None:
            return MembershipVerdict("limit", witness=recd.witness)
        unknown = "no certificate route applies" if graded is None else "graded but not of fixed-point shape"
    reason = reference_refutation(alg, v)
    return MembershipVerdict("refuted" if reason else "unknown", reason=reason or unknown)


def reference_refutation(alg, v):
    z = alg.center()
    if z.rows:
        pad = (0,) * alg.n
        return None if all(v.contains(row + pad) for row in z.entries) else "does not contain the center"
    for row in v.basis.entries:
        if not v.contains(conjugation_jordan(alg, row)[0]):
            return "semisimple part of a member escapes"
    return None


def reference_multipoint(alg, points):
    """`multipoint_membership` as it was: the dense pair test, and the
    centralizer of every point by `nullspace(ad p)`."""
    pts = tuple(tuple(map(entry, p)) for p in points)
    if not pts:
        raise orbit.OrbitError("need at least one point")
    if any(len(p) != alg.dim for p in pts):
        raise orbit.DimensionMismatchError(f"every point needs {alg.dim} coordinates")
    if not reference_commuting(alg, pts):
        return "refuted", MultiPoint(pts, None)
    for p in pts:
        basis = nullspace(alg.ad(p))
        if basis.rows == alg.t_dim:
            cent = Subspace(alg, basis)
            if all(cent.contains(q) for q in pts):
                return "proven", MultiPoint(pts, cent)
            return "refuted", MultiPoint(pts, None)
    union = tuple(sorted({i for p in pts for i, c in enumerate(alg.a_part(p)) if c}))
    if orbit._independent_abelian(alg, union):
        v = orbit.fixed_point_record(alg, union).subspace
        if all(v.contains(p) for p in pts):
            return "proven", MultiPoint(pts, v)
    return "unknown", MultiPoint(pts, None)


def reference_biggest_torus(alg, v):
    """`biggest_torus` with the semisimple parts of the general-u
    conjugation."""
    orbit._own(alg, v)
    if alg.center().rows != 0:
        raise orbit.PreconditionFailedError("biggest torus needs a trivial center")
    s_parts = []
    for row in v.basis.entries:
        s, _ = conjugation_jordan(alg, row)
        if not v.contains(s):
            raise NotClosedUnderJordanError("semisimple part of a basis element escapes V")
        s_parts.append(s)
    if not s_parts:
        return tuple(range(alg.n))
    lam = tuple(i for i, w in enumerate(alg.weights) if not any(w(s[: alg.t_dim]) for s in s_parts))
    if alg.kernel(lam).rows != row_space_basis(Matrix.from_rows(s_parts)).rows:
        raise orbit.OrbitError("semisimple span does not match a torus kernel dimension")
    return lam


def reference_pair_relation(monkeypatch, alg, alpha, seed):
    with monkeypatch.context() as m:
        m.setattr(orbit, "multipoint_membership", reference_multipoint)
        return orbit.verify_pair_relation(alg, alpha, samples=4, seed=seed)


# -- algebras and points ------------------------------------------------------------

BUILTINS = ("sl2-borel", "borel-nilradical-A2", "heisenberg-3", "abelian:3", "borel-nilradical-A3")
FIXED = (
    [models.builtin(name) for name in BUILTINS]
    + [borel_nilradical_a4(v) for v in VARIANTS]
    + [heisenberg_central_extension(v) for v in VARIANTS]
    + [borel_nilradical(5)]
)
IDS = list(BUILTINS) + [f"A4-{v}" for v in VARIANTS] + [f"heisenberg-3-central-{v}" for v in VARIANTS] + ["A5"]


def automorphic(alg):
    checks = {name: ok for name, ok, _ in alg.validate()}
    return checks["jacobi"] and checks["nilpotency"]


@st.composite
def failing_algebras(draw):
    """A table that fails Jacobi or nilpotency: drawn perturbations that
    do, and the two fixed ones."""
    fixed = draw(st.sampled_from([None, non_jacobi_algebra, non_nilpotent_algebra]))
    if fixed is not None:
        return fixed()
    alg = WeightedLieAlgebra.build(*draw(perturbed_algebras()))
    assume(not automorphic(alg))
    return alg


@st.composite
def mixed_copies(draw):
    """Two copies a_i, b_i of a Lie algebra of up to six roots
    (`rescaled_root_subsets`), in the basis
    u_i = p a_i + q b_i, v_i = r a_i + s b_i of each weight space, with
    drawn invertible (p, q; r, s): repeated weights and multi-term
    bracket entries, the tables on which the Jordan conjugation's pass
    bound rests on no proof."""
    base = WeightedLieAlgebra.build(*draw(rescaled_root_subsets().filter(lambda spec: len(spec[1]) <= 6)))
    mixes = []
    for _ in range(base.n):
        p, q, r, s = (draw(RATIONALS) for _ in range(4))
        assume(p * s != q * r)
        mixes.append((p, q, r, s))
    names = [f"u{i}" for i in range(base.n)] + [f"v{i}" for i in range(base.n)]
    weights = {f"{c}{i}": list(base.weights[i].coords) for c in "uv" for i in range(base.n)}

    def copies(name):  # {(copy, i): coefficient} of a new basis vector
        i = int(name[1:])
        p, q, r, s = mixes[i]
        return {(0, i): p, (1, i): q} if name[0] == "u" else {(0, i): r, (1, i): s}

    def new_basis(vec):  # a_k = (s u_k - q v_k) / det, b_k = (p v_k - r u_k) / det
        out = {}
        for (copy, k), c in vec.items():
            p, q, r, s = mixes[k]
            det = p * s - q * r
            cu, cv = (s / det, -q / det) if copy == 0 else (-r / det, p / det)
            out[f"u{k}"] = out.get(f"u{k}", 0) + c * cu
            out[f"v{k}"] = out.get(f"v{k}", 0) + c * cv
        return out

    table = {(i, j): terms for i, j, terms in base.brackets}
    brackets = []
    for x, y in itertools.combinations(names, 2):
        value = {}
        for (cx, i), a in copies(x).items():
            for (cy, j), b in copies(y).items():
                if cx == cy:
                    sign, key = (1, (i, j)) if i < j else (-1, (j, i))
                    for k, c in table.get(key, ()):
                        value[cx, k] = value.get((cx, k), 0) + sign * a * b * c
        brackets.append((x, y, new_basis(value)))
    return base.t_dim, names, weights, brackets


LIE = st.one_of(st.sampled_from(FIXED), root_subset_algebras().map(lambda spec: WeightedLieAlgebra.build(*spec)))
MIXED = mixed_copies().map(lambda spec: WeightedLieAlgebra.build(*spec))
ANY = st.one_of(LIE, failing_algebras())
SCALAR = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


def orbit_point(data, alg):
    word = data.draw(st.lists(st.tuples(st.integers(0, alg.n - 1), SCALAR), max_size=3))
    return orbit.act(alg, word, orbit.torus_subspace(alg))


def combination(data, v):
    coefs = data.draw(st.lists(st.integers(-3, 3), min_size=v.dim, max_size=v.dim))
    return tuple(entry(sum((c * row[j] for c, row in zip(coefs, v.basis.entries) if c), Fraction(0))) for j in range(v.basis.cols))


def generic_point(data, alg):
    """A torus part on which no weight vanishes, moved by a drawn word:
    a point the conjugated centralizer answers."""
    t = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=alg.t_dim, max_size=alg.t_dim)))
    assume(all(w(t) for w in alg.weights))
    word = data.draw(st.lists(st.tuples(st.integers(0, alg.n - 1), SCALAR), max_size=3))
    row = t + (0,) * alg.n
    return alg._word_rows(word, [row])[0] if automorphic(alg) else row


def points(data, alg):
    """Points of one drawn shape: generic ones, combinations of an orbit
    point's rows, drawn vectors of each shape, or a mix."""
    shape = data.draw(st.sampled_from(["generic", "orbit", "vectors"]))
    count = data.draw(st.integers(1, 3))
    if shape == "generic":
        return [generic_point(data, alg) for _ in range(count)]
    if shape == "orbit":
        v = drawn_input(orbit_point, data, alg)
        return [combination(data, v) for _ in range(count)]
    return [data.draw(shaped_vectors(alg.dim, alg.t_dim)) for _ in range(count)]


# -- differential tests ----------------------------------------------------------------


class TestJordan:
    @settings(max_examples=150)
    @given(ANY, st.data())
    def test_matches_the_general_conjugation(self, alg, data):
        for _ in range(3):
            x = generic_point(data, alg) if data.draw(st.booleans()) else data.draw(shaped_vectors(alg.dim, alg.t_dim))
            got = outcome(alg.jordan_decompose, x)
            want = outcome(conjugation_jordan, alg, x)
            assert got == want
            if got[0] == "value":
                assert [types(part) for part in got[1]] == [types(part) for part in want[1]]
            event(got[0] if got[0] == "raised" else "decomposed")

    @settings(max_examples=60)
    @given(MIXED, st.data())
    def test_multi_term_tables_settle_as_the_general_conjugation(self, alg, data):
        assert automorphic(alg)
        assume(any(len(terms) > 1 for _, _, terms in alg.brackets))
        for _ in range(4):
            x = tuple(data.draw(st.lists(st.one_of(st.just(0), RATIONALS), min_size=alg.dim, max_size=alg.dim)))
            assert outcome(alg.jordan_decompose, x) == outcome(conjugation_jordan, alg, x)

    @pytest.mark.parametrize("alg", FIXED, ids=IDS)
    def test_rows_of_orbit_points(self, alg):
        """Every basis row of t moved by each weight, and by pairs of
        weights, where the center is zero."""
        if alg.center().rows:
            pytest.skip("no Jordan decomposition on a nonzero center")
        t = orbit.torus_subspace(alg)
        for i, j in itertools.islice(itertools.product(range(alg.n), repeat=2), 60):
            for row in orbit.act(alg, [(i, Fraction(3, 2)), (j, -2)], t).basis.entries:
                x = tuple(c + (k == 0) for k, c in enumerate(row))  # another torus part
                for y in (row, x):
                    assert alg.jordan_decompose(y) == conjugation_jordan(alg, y)


class TestCentralizer:
    @settings(max_examples=150)
    @given(LIE, st.data())
    def test_conjugated_centralizer_is_the_nullspace_of_ad(self, alg, data):
        assume(automorphic(alg))
        p = generic_point(data, alg)
        lam = [w(p[: alg.t_dim]) for w in alg.weights]
        cent = orbit._conjugated_centralizer(alg, p, lam)
        want = nullspace(alg.ad(p))
        assert cent.basis == want and [types(r) for r in cent.basis.entries] == [types(r) for r in want.entries]

    @pytest.mark.parametrize("alg", FIXED, ids=IDS)
    def test_torus_rows_moved_by_each_weight(self, alg):
        generic = next(
            tuple(c) for c in itertools.product(range(1, 5), repeat=alg.t_dim) if all(w(c) for w in alg.weights)
        )
        for i in range(alg.n):
            (p,) = alg._word_rows([(i, Fraction(-1, 2)), ((i + 1) % alg.n, 3)], [generic + (0,) * alg.n])
            lam = [w(p[: alg.t_dim]) for w in alg.weights]
            assert orbit._conjugated_centralizer(alg, p, lam).basis == nullspace(alg.ad(p))

    @settings(max_examples=200)
    @given(LIE, st.data())
    def test_multipoint_matches_every_centralizer_built(self, alg, data):
        pts = points(data, alg)
        got = outcome(orbit.multipoint_membership, alg, pts)
        assert got == outcome(reference_multipoint, alg, pts)
        event(f"{got[1][0]}" if got[0] == "value" else "raised")

    @settings(max_examples=100)
    @given(failing_algebras(), st.data())
    def test_failing_tables_take_no_conjugated_centralizer(self, alg, data):
        pts = points(data, alg)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(orbit, "_conjugated_centralizer", lambda *args: pytest.fail("conjugated centralizer taken"))
            m.setattr(WeightedLieAlgebra, "torus_conjugation", lambda *args: pytest.fail("conjugation taken"))
            got = outcome(orbit.multipoint_membership, alg, pts)
        assert got == outcome(reference_multipoint, alg, pts)


class TestCommuting:
    @settings(max_examples=200)
    @given(ANY, st.data())
    def test_matches_the_dense_bracket(self, alg, data):
        count = data.draw(st.integers(0, 4))
        vectors = [data.draw(shaped_vectors(alg.dim, alg.t_dim)) for _ in range(count)]
        if vectors and data.draw(st.booleans()):  # commuting vectors: a torus-graph point's rows
            vectors = list(drawn_input(orbit_point, data, alg).basis.entries)
        assert alg.commuting(vectors) == reference_commuting(alg, vectors)

    @settings(max_examples=100)
    @given(root_subset_algebras(), st.data())
    def test_matches_the_dense_reference_table(self, spec, data):
        alg, dense = WeightedLieAlgebra.build(*spec), DenseReference(*spec)
        vectors = [tuple(data.draw(st.lists(st.one_of(st.just(0), RATIONALS), min_size=alg.dim, max_size=alg.dim))) for _ in range(3)]
        want = all(not any(dense.bracket(x, y)) for x, y in itertools.combinations(vectors, 2))
        assert alg.commuting(vectors) == want


def drawn_input(make, data, alg):
    """An input of `make`; one whose making raises (an exp(ad) chain
    that does not end, on a table whose a is not nilpotent) is skipped."""
    made = outcome(make, data, alg)
    assume(made[0] == "value")
    return made[1]


class TestOrbitCertificate:
    @settings(max_examples=300)
    @given(ANY, st.sampled_from(INPUTS), st.data())
    def test_row_comparison_is_act_equality(self, alg, make, data):
        t = orbit.torus_subspace(alg)
        v = drawn_input(make, data, alg)
        words = [data.draw(st.lists(st.tuples(st.integers(0, alg.n - 1), SCALAR), max_size=3))]
        if v.pivots == tuple(range(alg.t_dim)):
            for find in (peel_orbit, orbit._orbit_word):
                found = outcome(find, alg, v)
                if found[0] == "value" and found[1] is not None:
                    words.append(found[1])
        for word in words:
            rows = outcome(lambda: tuple(alg._word_rows([(i, entry(z)) for i, z in word], t.basis.entries)) == v.basis.entries)
            assert rows == outcome(lambda: orbit.act(alg, word, t) == v)

    @settings(max_examples=200)
    @given(ANY, st.data())
    def test_a_drawn_word_is_checked_as_act_checks_it(self, alg, data):
        """The point of a drawn word, often an orbit point's forward word
        with one factor moved: membership answers it as the peel and
        `act(word, t) == V` do, and a word it certifies maps t to the
        point by `reference_act`, so a wrong word never certifies."""
        v = drawn_input(orbit_point, data, alg)
        found = outcome(orbit._orbit_word, alg, v)  # a chain that does not end raises
        true = list(found[1]) if found[0] == "value" and found[1] else []
        word = data.draw(st.one_of(
            st.just(true),
            st.lists(st.tuples(st.integers(0, alg.n - 1), SCALAR), max_size=3),
            st.integers(0, max(len(true) - 1, 0)).map(lambda i: [(k, z + (j == i)) for j, (k, z) in enumerate(true)]),
        ))
        moved = outcome(orbit.act, alg, word, orbit.torus_subspace(alg))
        assume(moved[0] == "value")
        u = moved[1]
        got = outcome(orbit.membership, alg, u)
        assert same_answer(alg, u, got, outcome(reference_membership, alg, u))
        event(got[1].kind if got[0] == "value" else "raised")

    @settings(max_examples=300)
    @given(ANY, st.sampled_from(INPUTS), st.data())
    def test_membership_matches_act_equality(self, alg, make, data):
        v = drawn_input(make, data, alg)
        assume(v.dim == alg.t_dim)
        got = outcome(orbit.membership, alg, v)
        assert same_answer(alg, v, got, outcome(reference_membership, alg, v))
        event(f"{make.__name__}: {got[1].kind}" if got[0] == "value" else f"{make.__name__}: raised")


# -- the queries inputs -------------------------------------------------------------


def closure(call):
    """The values a query's call closes over, by name: its algebra and
    its input, as `workloads.query_op` binds them."""
    return dict(zip(call.__code__.co_freevars, (cell.cell_contents for cell in call.__closure__)))


def test_queries_seeds_one_to_three_answer_as_before(monkeypatch):
    """Every query of the `queries` streams of seeds 1-3, on its own
    input and its own algebra, against the routes before: the same
    verdict and witness, or the same error; a membership's kind, reason
    and witness, with each side's word mapping t to V."""
    workloads = load_workloads(monkeypatch)
    kinds = set()
    for seed in (1, 2, 3):
        for op in workloads.query_ops(seed, 20):
            kind = op.key.split(" ", 1)[0]
            names = closure(op.call)
            alg = names["alg"]
            if kind.startswith("member-"):
                v = names["v"]
                assert same_answer(alg, v, outcome(op.call), outcome(reference_membership, alg, v)), op.key
                kinds.add(kind)
                continue
            if kind.startswith("multipoint-"):
                got, want = outcome(op.call), outcome(reference_multipoint, alg, names["pts"])
            elif kind.startswith("biggest-torus-"):
                got, want = outcome(op.call), outcome(reference_biggest_torus, alg, names["member"])
            else:
                got = outcome(op.call)
                want = ("value", reference_pair_relation(monkeypatch, alg, names["alpha"], names["pseed"]))
            assert got == want, op.key
            if got[0] == "value" and kind.startswith("multipoint-") and got[1][1].witness is not None:
                assert got[1][1].witness.to_json() == want[1][1].witness.to_json()
            kinds.add(kind)
    assert len(kinds) == 8
