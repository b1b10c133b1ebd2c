"""The kernels that membership queries run through, against references
kept here: `Subspace`'s one-pass check against the validator it
replaced; `ad` and `centralizer` against the dense route (`nullspace`
of `Matrix.from_rows`); `jordan_decompose` on homogeneous and mixed
vectors against the full-system solve of `tests/test_memo.py` and
against the conjugation route without its shortcut; `_word_rows` and
the integer proportionality test of the forward orbit word
(`orbit._orbit_word`) on algebras whose weights are not 0 or 1.  Also: memoised
exp(ad) chains are read without a call to `exp_ad_chain`, `act` refuses
a weight index outside range(n), and `models.builtin` refuses an
abelian size past its cap or spelled with other than ASCII digits."""

import time
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exp_ad_reference import exp_ad_terms, vector_sum
from test_certify_first import SCALARS, count_calls, reference_act, reference_exp_row, reference_membership, reference_peel_orbit, same_answer
from test_liealg_sparse import NONZERO, RATIONALS, DenseReference, central_extensions, root_subset_algebras
from test_memo import outcome, reference_jordan, rescaled_root_subsets

from orbitvar import cli, models, orbit
from orbitvar.liealg import AlgebraError, WeightedLieAlgebra
from orbitvar.linalg import Matrix, exact_div, lowered, nullspace, rref
from orbitvar.orbit import DimensionMismatchError, NonCanonicalBasisError, OrbitError, Subspace

BUILTINS = ("sl2-borel", "borel-nilradical-A2", "heisenberg-3", "abelian:3", "borel-nilradical-A3")
FIXED = tuple(models.builtin(name) for name in BUILTINS)


def types(v):
    return tuple(map(type, v))


# -- Subspace: the one-pass check against the validator it replaced ---------


def reference_subspace_check(alg, basis):
    """The pivots `Subspace` keeps, or the error it raises, as the check
    before the one-pass loop computed them: each row's first nonzero
    entry by a generator, then the zero rows, the order and the unit
    columns."""
    if basis.cols != alg.dim:
        raise DimensionMismatchError(f"{basis.cols} columns != dim {alg.dim}")
    rows = basis.entries
    piv = tuple(next((j for j, e in enumerate(row) if e), None) for row in rows)
    if None in piv:
        raise NonCanonicalBasisError("a basis row is zero")
    if any(a >= b for a, b in zip(piv, piv[1:])):
        raise NonCanonicalBasisError(f"pivot columns {piv} do not increase")
    for i, p in enumerate(piv):
        if rows[i][p] != 1 or any(rows[k][p] for k in range(i)):
            raise NonCanonicalBasisError(f"pivot column {p} is not a unit column")
    return piv


def checked(fn, *args):
    try:
        return "value", fn(*args)
    except OrbitError as e:
        return "raised", type(e), str(e)


ENTRIES = st.sampled_from([0, 0, 0, 1, 1, -1, 2, Fraction(1, 2), Fraction(0)])


@st.composite
def bases(draw):
    """An algebra and a matrix for its basis: random rows, the rref of
    random rows, or that rref broken in one way (a row scaled, a row
    repeated, rows swapped, an entry added above a pivot, a zero row),
    now and then with one column too many."""
    alg = draw(st.sampled_from(FIXED))
    count = draw(st.integers(0, min(alg.dim, 4)))
    rows = [draw(st.lists(ENTRIES, min_size=alg.dim, max_size=alg.dim)) for _ in range(count)]
    shape = draw(st.sampled_from(["random", "rref", "scaled", "repeated", "swapped", "above", "zero"]))
    if shape != "random" and rows:
        rr, piv = rref(Matrix.from_rows(rows))
        rows = [list(r) for r in rr.entries[: len(piv)]] or rows
        i = draw(st.integers(0, len(rows) - 1))
        if shape == "scaled":
            rows[i] = [2 * e for e in rows[i]]
        elif shape == "repeated":
            rows.insert(i, list(rows[i]))
        elif shape == "swapped" and len(rows) > 1:
            rows[0], rows[-1] = rows[-1], rows[0]
        elif shape == "above" and i and piv[i:]:
            rows[0][piv[i]] += 1
        elif shape == "zero":
            rows.insert(i, [0] * alg.dim)
    if draw(st.integers(0, 9)) == 0:
        rows = [r + [0] for r in rows]
    width = len(rows[0]) if rows else alg.dim
    return alg, Matrix(len(rows), width, tuple(map(tuple, rows)))


class TestSubspaceCheck:
    @settings(max_examples=400)
    @given(bases())
    def test_refuses_what_the_reference_refuses(self, drawn):
        alg, basis = drawn
        want = checked(reference_subspace_check, alg, basis)
        got = checked(Subspace, alg, basis)
        if want[0] == "raised":
            assert got == want
        else:
            assert got[0] == "value" and got[1].pivots == want[1]
            assert got[1].pivots == rref(basis)[1]

# -- ad and the centralizer against the dense route --------------------------


@st.composite
def algebras_and_points(draw):
    spec = draw(st.one_of(root_subset_algebras(), rescaled_root_subsets(), central_extensions()))
    alg = WeightedLieAlgebra.build(*spec)
    x = tuple(draw(st.lists(st.one_of(st.just(0), st.just(Fraction(0)), RATIONALS), min_size=alg.dim, max_size=alg.dim)))
    return spec, alg, x


def entry_types(m):
    return [types(row) for row in m.entries]


class TestAdAndCentralizer:
    @settings(max_examples=150)
    @given(algebras_and_points())
    def test_match_the_dense_route(self, drawn):
        spec, alg, x = drawn
        dense = DenseReference(*spec).ad(x)
        got = alg.ad(x)
        assert got == dense and entry_types(got) == entry_types(dense)
        cent = alg.centralizer(x)
        want = nullspace(Matrix.from_rows(dense.entries))
        assert cent == want and entry_types(cent) == entry_types(want)

    def test_other_coordinates_take_the_converting_route(self):
        alg = FIXED[1]
        assert alg.ad((True, 0, 0, 0, 0)) == alg.ad((1, 0, 0, 0, 0))
        with pytest.raises(TypeError):
            alg.ad((0.5, 0, 0, 0, 0))
        with pytest.raises(TypeError):
            alg.centralizer((Fraction(1, 2), 0.5, 0, 0, 0))


# -- Jordan parts of homogeneous vectors ---------------------------------------


def conjugation_jordan(alg, x):
    """`jordan_decompose` by the conjugation route alone, as it was before
    homogeneous vectors were answered directly."""
    alg.check_jordan_preconditions()
    d = alg.t_dim
    xt = alg.torus_part(x)
    lam = [w(xt) for w in alg.weights]
    v = tuple(x)
    us = []
    for _ in range(alg.n + 1):
        u = (0,) * d + tuple(exact_div(c, l) if c and l else 0 for c, l in zip(v[d:], lam))
        if not any(u):
            break
        us.append(u)
        v = vector_sum(exp_ad_terms(alg, u, v))
    else:
        raise AlgebraError(f"jordan conjugation did not settle in {alg.n + 1} passes")
    s = xt + (0,) * alg.n
    for u in reversed(us):
        s = vector_sum(exp_ad_terms(alg, tuple(-c for c in u), s))
    n = lowered([a - b for a, b in zip(x, s)])
    if any(c != 0 for c in alg.bracket(s, n)):
        raise AlgebraError("jordan parts fail to commute")
    return s, n


COORDINATE = st.one_of(st.just(0), st.just(Fraction(0)), RATIONALS, st.integers(-3, 3))


@st.composite
def shaped_vectors(draw, dim, t_dim):
    """A vector in t, in a or mixed, its zeros drawn as 0 or Fraction(0)."""
    x = draw(st.lists(COORDINATE, min_size=dim, max_size=dim))
    shape = draw(st.sampled_from(["torus", "a", "mixed"]))
    zero = draw(st.sampled_from([0, Fraction(0)]))
    if shape == "torus":
        x[t_dim:] = [zero] * (dim - t_dim)
    elif shape == "a":
        x[:t_dim] = [zero] * t_dim
    return tuple(x)


class TestHomogeneousJordan:
    @settings(max_examples=60)
    @given(st.one_of(root_subset_algebras(), rescaled_root_subsets(), central_extensions()), st.data())
    def test_matches_the_solve_and_the_conjugation(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        jacobi_ok = alg._jacobi()[0]
        for _ in range(3):
            x = data.draw(shaped_vectors(alg.dim, alg.t_dim))
            got = outcome(alg.jordan_decompose, x)
            route = outcome(conjugation_jordan, alg, x)
            assert got == route
            if got[0] == "value":
                assert [types(part) for part in got[1]] == [types(part) for part in route[1]]
            if jacobi_ok:
                assert got == outcome(reference_jordan, alg, x)

    @pytest.mark.parametrize("alg", FIXED[1:], ids=BUILTINS[1:])
    def test_builtin_basis_vectors_skip_the_commutator_check(self, alg, monkeypatch):
        if alg.center().rows:
            pytest.skip("no Jordan decomposition on a nonzero center")
        alg.check_jordan_preconditions()
        brackets = count_calls(monkeypatch, [WeightedLieAlgebra], "bracket")
        for k in range(alg.dim):
            x = alg.basis_vector(k)
            assert alg.jordan_decompose(x) == conjugation_jordan(alg, x)
        assert len(brackets) == alg.dim  # the references' own checks only


# -- the orbit word on weights other than 0 and 1 ------------------------------------


@st.composite
def retorused_algebras(draw):
    """A valid root-subset algebra in another torus basis: each weight w
    becomes w T for an invertible rational T (a diagonal of nonzero
    rationals times a unitriangular integer matrix), so the weight
    values on the torus rows are no longer 0 or 1."""
    d, names, weights, brackets = draw(st.one_of(root_subset_algebras(), rescaled_root_subsets()))
    diag = [draw(NONZERO) for _ in range(d)]
    upper = {(i, j): draw(st.integers(-2, 2)) for i in range(d) for j in range(i + 1, d)}
    t = [[diag[i] if i == j else diag[i] * upper.get((i, j), 0) for j in range(d)] for i in range(d)]
    moved = {nm: [sum(w[i] * t[i][j] for i in range(d)) for j in range(d)] for nm, w in weights.items()}
    alg = WeightedLieAlgebra.build(d, names, moved, brackets)
    assume(alg.is_valid())
    return alg


def fractional(v):
    """V with every entry a Fraction, so that the reference peel's `/`
    divides exactly (an int divided by an int would be a float)."""
    return Subspace(v.alg, Matrix(v.dim, v.basis.cols, tuple(tuple(map(Fraction, row)) for row in v.basis.entries)))


class TestPeelOnOtherWeights:
    @settings(max_examples=150)
    @given(retorused_algebras(), st.data())
    def test_exp_row_matches_the_bracket_chains(self, alg, data):
        widx = data.draw(st.integers(0, alg.n - 1))
        row = tuple(data.draw(st.lists(COORDINATE, min_size=alg.dim, max_size=alg.dim)))
        z = data.draw(st.one_of(RATIONALS, st.integers(-3, 3)))
        got = alg._word_rows(((widx, z),), [row])
        want = reference_exp_row(alg, widx, z, [row])
        assert got == want
        if got[0] is not row:  # a row the factor moves comes back lowered
            assert all(type(c) is int or c.denominator != 1 for c in got[0])

    @settings(max_examples=200)
    @given(retorused_algebras(), st.data())
    def test_peel_and_membership_match_the_references(self, alg, data):
        """The forward word is found wherever the reference peel finds
        one, maps t to V by `reference_act` and holds ints and proper
        Fractions; membership answers as the refute-first copy, or
        certifies an orbit point that the peel misses (a weight of
        height 0 or less can send a peeled factor's bracket to a column
        already peeled; `factor_order` keeps every bracket ahead)."""
        word = data.draw(st.lists(st.tuples(st.integers(0, alg.n - 1), SCALARS), max_size=3))
        t = orbit.torus_subspace(alg)
        v = orbit.act(alg, word, t)
        if data.draw(st.booleans()):
            rows = [list(row) for row in v.basis.entries]
            rows[data.draw(st.integers(0, len(rows) - 1))][data.draw(st.integers(alg.t_dim, alg.dim - 1))] += data.draw(SCALARS)
            v = Subspace.from_rows(alg, rows)
        if v.pivots == tuple(range(alg.t_dim)):
            got = orbit._orbit_word(alg, v)
            assert got is not None or reference_peel_orbit(alg, fractional(v)) is None
            if got is not None:
                assert reference_act(alg, list(got), t) == v
                assert all(type(z) is int or z.denominator != 1 for _, z in got)
        got, want = outcome(orbit.membership, alg, v), outcome(reference_membership, alg, fractional(v))
        if got[0] == want[0] == "value" and (got[1].kind, want[1].kind) == ("orbit", "unknown"):
            assert reference_act(alg, list(got[1].params), t) == v
        else:
            assert same_answer(alg, v, got, want)

    def test_a_weight_vanishing_on_the_first_row(self):
        # weights (0, 2) and (3, 0): each column's first nonzero weight
        # value is on a later row for the first weight; the word lists
        # the factor of greater height, b's, first
        alg = WeightedLieAlgebra.build(2, ["a", "b"], {"a": [0, 2], "b": [3, 0]})
        v = orbit.act(alg, [(0, Fraction(1, 2)), (1, Fraction(-2, 3))], orbit.torus_subspace(alg))
        assert reference_peel_orbit(alg, fractional(v)) == [(0, Fraction(1, 2)), (1, Fraction(-2, 3))]
        assert orbit._orbit_word(alg, v) == ((1, Fraction(-2, 3)), (0, Fraction(1, 2)))
        assert orbit.membership(alg, v).kind == "orbit"
        moved = Subspace.from_rows(alg, [list(v.basis.row(0)[:2]) + [1, 0], list(v.basis.row(1))])
        assert orbit._orbit_word(alg, moved) is None
        assert reference_peel_orbit(alg, fractional(moved)) is None


class TestMemoisedChains:
    def test_a_built_chain_is_read_without_exp_ad_chain(self, monkeypatch):
        alg = models.borel_nilradical_a3()
        t = orbit.torus_subspace(alg)
        word = [(k, Fraction(k + 1, 2)) for k in range(alg.n)]
        curve = [(k, None) for k in range(alg.n)]
        first, first_curve = orbit.act(alg, word, t), orbit.act(alg, curve, t)
        calls = count_calls(monkeypatch, [WeightedLieAlgebra], "exp_ad_chain")
        assert orbit.act(alg, word, t) == first and orbit.act(alg, curve, t) == first_curve
        assert calls == []

    def test_a_chain_that_raises_is_not_kept(self):
        # a 3-cycle of brackets: ad x_a never ends, so its chains raise
        alg = WeightedLieAlgebra.build(
            1, ["a", "b", "c"], {"a": [1], "b": [2], "c": [3]}, [("a", "b", {"c": 1}), ("a", "c", {"b": 1})]
        )
        for apply in (lambda row: alg._word_rows(((0, 1),), [row]), lambda row: orbit._exp_row(alg, 0, [row])) * 2:
            with pytest.raises(AlgebraError, match="did not end"):
                apply(alg.weight_vector(1))
            assert ("exp-ad-chain", 0, 2) not in alg._memo


class TestMemoisedValues:
    def test_a_precondition_check_that_raised_is_not_kept(self):
        # [x12, x3] doubled: Jacobi fails on (x1, x2, x3)
        alg = WeightedLieAlgebra.build(
            3,
            ["x1", "x2", "x3", "x12", "x23", "x123"],
            {"x1": [1, 0, 0], "x2": [0, 1, 0], "x3": [0, 0, 1], "x12": [1, 1, 0], "x23": [0, 1, 1], "x123": [1, 1, 1]},
            [("x1", "x2", {"x12": 1}), ("x2", "x3", {"x23": 1}), ("x1", "x23", {"x123": 1}), ("x12", "x3", {"x123": 2})],
        )
        for _ in range(3):
            with pytest.raises(AlgebraError, match="jacobi"):
                alg.check_jordan_preconditions()
            with pytest.raises(AlgebraError, match="jacobi"):
                alg.jordan_decompose(alg.basis_vector(0))

    @pytest.mark.parametrize("name", BUILTINS)
    def test_each_value_is_computed_once(self, name):
        alg = models.builtin(name)
        values = [alg.center(), alg.ad_table(), alg.fingerprint(), orbit.torus_subspace(alg), alg.factor_order()]
        again = [alg.center(), alg.ad_table(), alg.fingerprint(), orbit.torus_subspace(alg), alg.factor_order()]
        assert all(a is b for a, b in zip(values, again))


# -- act refuses a weight index outside range(n) -----------------------------------


class TestActIndices:
    @pytest.mark.parametrize("widx", [-1, -3, -4, 3, 4, 100])
    def test_out_of_range_indices_are_refused(self, widx, monkeypatch):
        alg = FIXED[1]
        curves = count_calls(monkeypatch, [orbit], "_exp_row")
        scalars = count_calls(monkeypatch, [WeightedLieAlgebra], "_word_rows")
        t = orbit.torus_subspace(alg)
        for word in ([(widx, 1)], [(widx, None)], [(0, 1), (widx, Fraction(1, 2))], [(widx, 1), (1, None)]):
            with pytest.raises(OrbitError, match=f"weight index {widx} is outside range\\(3\\)"):
                orbit.act(alg, word, t)
        assert curves == scalars == []

# -- the abelian builtins' cap ----------------------------------------------------


class TestAbelianCap:
    def test_the_cap_is_accepted(self):
        alg = models.builtin(f"abelian:{models.ABELIAN_MAX}")
        assert alg.n == alg.t_dim == models.ABELIAN_MAX

    @pytest.mark.parametrize(
        "name",
        ["abelian:0", "abelian:-1", "abelian:+3", "abelian:1_0", "abelian:٣", "abelian: 3", "abelian:3 ", "abelian:", "abelian:1000", "abelian:" + "9" * 5000],
    )
    def test_odd_spellings_and_sizes_past_the_cap_are_refused(self, name):
        with pytest.raises(models.UnknownBuiltinError):
            models.builtin(name)

    def test_one_past_the_cap_is_refused(self):
        with pytest.raises(models.UnknownBuiltinError, match=str(models.ABELIAN_MAX)):
            models.builtin(f"abelian:{models.ABELIAN_MAX + 1}")

    # sizes that an uncapped reader would still build in well under a second
    @pytest.mark.parametrize("size", ["{cap1}", "+3", "1_0", "٣"])
    @pytest.mark.parametrize("command", ["validate", "fixed-points", "property-p"])
    def test_the_command_line_exits_2_at_once(self, command, size, capsys):
        name = "abelian:" + size.format(cap1=models.ABELIAN_MAX + 1)
        start = time.perf_counter()
        assert cli.main([command, "--builtin", name]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
