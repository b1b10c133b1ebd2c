"""The two query routes that answer from what their input already
certifies, each pinned to the route order it skips, kept here:

- `biggest_torus` reads a commutative torus graph, on a table that passes
  Jacobi and nilpotency, has no zero weight and one term in every
  bracket entry, as a torus whose semisimple parts are its rows; the
  reference decomposes every row (`jordan_decompose`);
- `multipoint_membership` tries the torus-fixed point of its points'
  a-support before any centralizer, when its first point has a
  vanishing weight; the reference takes the first regular point first.

Each pins the verdict, the witness rows, L, and any exception's class
and message, on the builtins, the four A4 presentations, the four
central extensions of heisenberg-3, A5, drawn root-subset algebras,
drawn tables that fail Jacobi or nilpotency, drawn multi-term tables and
drawn tables with a zero weight; on orbit points, fixed points and the
points they hold, fixed points moved by a word, torus graphs whose rows
do not commute, `verify_pair_relation` reports (its slice points) and
every `queries` input of seeds 1-20.  Also: the routes are taken where
they apply and nowhere else, and a regular point's centralizer that
misses a point raises."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from test_biggest_torus import load_workloads
from test_certify_first import INPUTS, count_calls, perturbed_orbit_point
from test_conjugation_routes import (
    FIXED,
    IDS,
    LIE,
    MIXED,
    SCALAR,
    automorphic,
    closure,
    combination,
    failing_algebras,
    generic_point,
)
from test_liealg_sparse import RATIONALS, root_subset_algebras
from test_query_kernels import shaped_vectors

from orbitvar import models, orbit
from orbitvar.liealg import NotClosedUnderJordanError, WeightedLieAlgebra
from orbitvar.linalg import Matrix, entry, row_space_basis
from orbitvar.orbit import MultiPoint, Subspace

# -- the routes before ------------------------------------------------------


def reference_biggest_torus(alg, v):
    """`biggest_torus` as it was: every row's Jordan decomposition, and
    the rank of the semisimple parts by one row reduction."""
    orbit._own(alg, v)
    if alg.center().rows != 0:
        raise orbit.PreconditionFailedError("biggest torus needs a trivial center")
    s_parts = []
    for r in range(v.dim):
        s, _ = alg.jordan_decompose(v.basis.row(r))
        if not v.contains(s):
            raise NotClosedUnderJordanError("semisimple part of a basis element escapes V")
        s_parts.append(s)
    if not s_parts:
        return tuple(range(alg.n))
    torus_parts = [s[: alg.t_dim] for s in s_parts]
    lam = tuple(i for i, w in enumerate(alg.weights) if not any(w(t) for t in torus_parts))
    if alg.kernel(lam).rows != row_space_basis(Matrix.from_rows(s_parts)).rows:
        raise orbit.OrbitError("semisimple span does not match a torus kernel dimension")
    return lam


def reference_multipoint(alg, points):
    """`multipoint_membership` as it was: the first regular point (its
    conjugated centralizer where no weight vanishes on an algebra that
    passes Jacobi and nilpotency, `nullspace(ad p)` otherwise) before the
    record of the points' a-support."""
    pts = tuple(tuple(map(entry, p)) for p in points)
    if not pts:
        raise orbit.OrbitError("need at least one point")
    if any(len(p) != alg.dim for p in pts):
        raise orbit.DimensionMismatchError(f"every point needs {alg.dim} coordinates")
    if not alg.commuting(pts):
        return "refuted", MultiPoint(pts, None)
    d, weights = alg.t_dim, alg.weights
    for p in pts:
        cent = None
        pt = p[:d]
        lam = [w(pt) for w in weights] if any(pt) else None
        if lam is not None and all(lam) and automorphic(alg):
            cent = orbit._conjugated_centralizer(alg, p, lam)
        if cent is None:
            basis = alg.centralizer(p)
            if basis.rows == d:
                cent = Subspace(alg, basis)
        if cent is not None:
            if all(cent.contains(q) for q in pts):
                return "proven", MultiPoint(pts, cent)
            return "refuted", MultiPoint(pts, None)
    union = tuple(sorted({i for p in pts for i, c in enumerate(alg.a_part(p)) if c}))
    if orbit._independent_abelian(alg, union):
        v = orbit.fixed_point_record(alg, union).subspace
        if all(v.contains(p) for p in pts):
            return "proven", MultiPoint(pts, v)
    return "unknown", MultiPoint(pts, None)


def result(fn, *args):
    """The value of fn(*args), with a multipoint witness's rows as they
    print, or the class and message of whatever it raised."""
    try:
        value = fn(*args)
    except Exception as e:
        return "raised", type(e), str(e)
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], MultiPoint) and value[1].witness:
        return "value", value, value[1].witness.to_json()
    return "value", value


# -- algebras and inputs ------------------------------------------------------


@st.composite
def zero_weight_algebras(draw):
    """A root-subset algebra with one or two more basis vectors of weight
    0, each central, or acting on every root vector by a scalar that is
    additive in the root (a derivation: Jacobi holds and a is not
    nilpotent), or by drawn scalars (Jacobi may fail too)."""
    d, names, weights, brackets = draw(root_subset_algebras())
    extra = [f"y{k}" for k in range(draw(st.integers(1, 2)))]
    weights = dict(weights, **{y: [0] * d for y in extra})
    for y in extra:
        action = draw(st.sampled_from(["central", "derivation", "drawn"]))
        if action == "central":
            continue
        form = [draw(RATIONALS) for _ in range(d)]
        for nm in names:
            c = sum(a * b for a, b in zip(form, weights[nm])) if action == "derivation" else draw(RATIONALS)
            if c:
                brackets = brackets + [(y, nm, {nm: c})]
    return d, list(names) + extra, weights, brackets


ZERO_WEIGHT = zero_weight_algebras().map(lambda spec: WeightedLieAlgebra.build(*spec))
ALL = st.one_of(LIE, failing_algebras(), MIXED, ZERO_WEIGHT)


def word(data, alg):
    return data.draw(st.lists(st.tuples(st.integers(0, alg.n - 1), SCALAR), max_size=3))


def made(data, make, *args):
    """The value of make(*args); an input whose making raises (an exp(ad)
    chain that does not end, on a table whose a is not nilpotent) is
    skipped."""
    try:
        return make(*args)
    except Exception:
        assume(False)


def orbit_point(data, alg):
    return made(data, orbit.act, alg, word(data, alg), orbit.torus_subspace(alg))


def fixed_point(data, alg):
    records = made(data, orbit.torus_fixed_points, alg)
    return data.draw(st.sampled_from(records)).subspace


def moved_fixed_point(data, alg):
    """A torus-fixed point moved by a word: commutative, and no torus
    graph unless the record is t."""
    return made(data, orbit.act, alg, word(data, alg), fixed_point(data, alg))


def non_commutative_graph(data, alg):
    """The torus rows with drawn a-parts: a torus graph, whose rows need
    not commute."""
    rows = [
        alg.basis_vector(i)[: alg.t_dim] + tuple(data.draw(st.lists(st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]), min_size=alg.n, max_size=alg.n)))
        for i in range(alg.t_dim)
    ]
    return orbit.Subspace.from_rows(alg, rows)


SUBSPACES = (orbit_point, fixed_point, moved_fixed_point, non_commutative_graph) + INPUTS


def multipoints(data, alg):
    """One to three points of one drawn shape: combinations of the rows of
    an orbit point, a fixed point or a moved fixed point, generic points,
    or drawn vectors."""
    shape = data.draw(st.sampled_from([orbit_point, fixed_point, moved_fixed_point, "generic", "vectors"]))
    count = data.draw(st.integers(1, 3))
    if shape == "generic":
        return [generic_point(data, alg) for _ in range(count)]
    if shape == "vectors":
        return [data.draw(shaped_vectors(alg.dim, alg.t_dim)) for _ in range(count)]
    v = shape(data, alg)
    return [combination(data, v) for _ in range(count)]


def pair_relation(multipoint, alg, alpha, seed, samples=3):
    """`verify_pair_relation` with `multipoint` deciding each pair."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(orbit, "multipoint_membership", multipoint)
        return result(orbit.verify_pair_relation, alg, alpha, samples, seed)


# -- differential tests ----------------------------------------------------------------


class TestBiggestTorus:
    @settings(max_examples=300)
    @given(ALL, st.sampled_from(SUBSPACES), st.data())
    def test_matches_every_row_decomposed(self, alg, make, data):
        v = made(data, make, data, alg)
        got = result(orbit.biggest_torus, alg, v)
        assert got == result(reference_biggest_torus, alg, v)
        event(f"{make.__name__}: {got[1] if got[0] == 'value' else got[1].__name__}")

    @pytest.mark.parametrize("alg", FIXED, ids=IDS)
    def test_orbit_points_of_each_weight_pair(self, alg):
        t = orbit.torus_subspace(alg)
        for i in range(alg.n):
            for v in (orbit.act(alg, [(i, 2)], t), orbit.act(alg, [(i, Fraction(-1, 2)), ((i + 3) % alg.n, 3)], t)):
                assert result(orbit.biggest_torus, alg, v) == result(reference_biggest_torus, alg, v)

    @settings(max_examples=200)
    @given(ALL, st.sampled_from([orbit_point, non_commutative_graph, perturbed_orbit_point]), st.data())
    def test_torus_graphs_on_faithful_tables(self, alg, make, data):
        """Torus graphs where the center is zero: the answer of every row
        decomposed, and no row decomposed exactly when the table passes
        Jacobi and nilpotency, has no zero weight and one term in every
        entry, and the rows commute.  On a multi-term table or one with
        a zero weight every row is decomposed, so an error of the
        decomposition stays an error; on a table that fails Jacobi or
        nilpotency the precondition check raises before any row."""
        assume(alg.center().rows == 0)
        v = made(data, make, data, alg)
        assume(v.pivots == tuple(range(alg.t_dim)))
        calls = []
        with pytest.MonkeyPatch.context() as m:
            decompose = WeightedLieAlgebra.jordan_decompose
            m.setattr(WeightedLieAlgebra, "jordan_decompose", lambda self, x: calls.append(x) or decompose(self, x))
            got = result(orbit.biggest_torus, alg, v)
        assert got == result(reference_biggest_torus, alg, v)
        one_term = all(len(terms) == 1 for _, _, terms in alg.brackets)
        nonzero = not any(w.is_zero() for w in alg.weights)
        if not automorphic(alg):
            assert got[0] == "raised" and calls == []
            event("precondition raised")
        else:
            read = one_term and nonzero and alg.commuting(v.basis.entries)
            assert (calls == []) == read
            event(f"read as a torus: {read}, one-term {one_term}, no zero weight {nonzero}")


class TestMultipoint:
    @settings(max_examples=300)
    @given(ALL, st.data())
    def test_matches_the_regular_point_first(self, alg, data):
        pts = multipoints(data, alg)
        got = result(orbit.multipoint_membership, alg, pts)
        assert got == result(reference_multipoint, alg, pts)
        event(got[1][0] if got[0] == "value" else got[1].__name__)

    @settings(max_examples=60)
    @given(st.one_of(LIE, MIXED, ZERO_WEIGHT), st.data())
    def test_pair_relation_reports(self, alg, data):
        alpha = alg.weights[data.draw(st.integers(0, alg.n - 1))]
        seed = data.draw(st.integers(0, 50))
        got = pair_relation(orbit.multipoint_membership, alg, alpha, seed)
        assert got == pair_relation(reference_multipoint, alg, alpha, seed)
        event(got[1].checks[0].verdict if got[0] == "value" else got[1].__name__)

    @pytest.mark.parametrize("alg", FIXED, ids=IDS)
    def test_points_of_every_fixed_point(self, alg):
        """Each torus-fixed point's rows, pairs of them and their sum."""
        for recd in orbit.torus_fixed_points(alg)[:40]:
            rows = recd.subspace.basis.entries
            total = tuple(sum(col) for col in zip(*rows))
            for pts in ([rows[0]], rows[:2], [total, rows[-1]], list(rows)):
                assert result(orbit.multipoint_membership, alg, pts) == result(reference_multipoint, alg, pts)


def test_queries_seeds_one_to_twenty_answer_as_before(monkeypatch):
    """Every multipoint, biggest-torus and pair-relation query of the
    `queries` streams of seeds 1-20, on its own input and algebra: the
    same verdict, witness rows, L and report as the routes before."""
    workloads = load_workloads(monkeypatch)
    kinds = set()
    for seed in range(1, 21):
        for op in workloads.query_ops(seed, 20):
            kind = op.key.split(" ", 1)[0]
            names = closure(op.call)
            alg = names["alg"]
            if kind.startswith("multipoint-"):
                want = result(reference_multipoint, alg, names["pts"])
            elif kind.startswith("biggest-torus-"):
                want = result(reference_biggest_torus, alg, names["member"])
            elif kind == "pair-relation":
                want = pair_relation(reference_multipoint, alg, names["alpha"], names["pseed"], 4)
            else:
                continue
            assert result(op.call) == want, op.key
            kinds.add(kind)
    assert kinds == {"multipoint-generic", "multipoint-graded", "biggest-torus-orbit", "biggest-torus-graded", "pair-relation"}


# -- the routes are taken where they apply ------------------------------------------


def regular_points(alg, v):
    """Two points of V, the first a combination of its rows on whose
    torus part no weight vanishes."""
    rows = v.basis.entries
    for coefs in ((1, 2, 5, 11), (3, -1, 7, 2), (1, 4, -9, 16)):
        p = tuple(sum(c * row[j] for c, row in zip(coefs, rows)) for j in range(alg.dim))
        if all(w(p[: alg.t_dim]) for w in alg.weights):
            return [p, rows[-1]]
    raise AssertionError("no combination vanishes on no weight")


@pytest.mark.parametrize("name", ["borel-nilradical-A2", "heisenberg-3", "borel-nilradical-A3"])
def test_certified_inputs_build_no_centralizer_and_decompose_nothing(name, monkeypatch):
    """Orbit-point biggest tori run no Jordan decomposition, and points of
    a torus-fixed point none of which is regular build no `ad` matrix;
    a subspace the route does not certify is decomposed row by row, and
    points whose first vanishes on no weight take its conjugated
    centralizer, with no `ad` matrix either."""
    workloads = load_workloads(monkeypatch)
    alg = models.builtin(name)
    rng = workloads.random.Random(7)
    members = [workloads.orbit_point(alg, rng) for _ in range(10)]
    graded = [workloads.graded_points(alg, rng) for _ in range(10)]
    jordan = count_calls(monkeypatch, [WeightedLieAlgebra], "jordan_decompose")
    ads = count_calls(monkeypatch, [WeightedLieAlgebra], "ad")
    conjugated = count_calls(monkeypatch, [orbit], "_conjugated_centralizer")
    assert [orbit.biggest_torus(alg, v) for v in members] == [()] * 10
    assert [orbit.multipoint_membership(alg, pts)[0] for pts in graded] == ["proven"] * 10
    assert jordan == ads == conjugated == []
    orbit.biggest_torus(alg, orbit.act(alg, [(alg.n - 1, 1)], workloads.fixed_point(alg, rng)))
    assert len(jordan) == alg.t_dim
    assert orbit.multipoint_membership(alg, regular_points(alg, members[0]))[0] == "proven"
    assert ads == [] and len(conjugated) == 1


def test_a_centralizer_that_misses_a_point_raises(monkeypatch):
    """The points commute, so a regular point's centralizer holds them
    all; one that does not is a fault, not a refutation."""
    alg = models.builtin("borel-nilradical-A3")
    v = orbit.act(alg, [(0, 2), (3, -1)], orbit.torus_subspace(alg))
    pts = regular_points(alg, v)
    assert orbit.multipoint_membership(alg, pts) == ("proven", MultiPoint(tuple(pts), v))
    monkeypatch.setattr(orbit, "_conjugated_centralizer", lambda alg, p, lam: orbit.torus_subspace(alg))
    with pytest.raises(orbit.OrbitError, match="the centralizer of a regular point misses a point that commutes with it"):
        orbit.multipoint_membership(alg, pts)
