"""Per-algebra data memoised on `WeightedLieAlgebra`, and the routes that
use it, against uncached references kept here: the fixed-point
enumerations, the Jordan decomposition (against the semisimple part of
ad x by Newton iteration and the full solve for its preimage), the Jacobi
verdict (against the loop over every basis triple), the sparse adjoint
table (against the dense adjoint and its powers), the nilpotency verdict
(against the lower central series through `bracket`) and the action
(against sympy matrix exponentials), on generated graded algebras."""

import itertools
from fractions import Fraction

import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from curve_limit_reference import nullspace_limit
from curve_powers_reference import from_powers
from exp_ad_reference import exp_ad_terms
from linalg_reference import solve, weight_matrix, zero
from stabilizer_reference import is_ideal
from test_linalg import apply
from test_liealg_sparse import (
    NONZERO,
    RATIONALS,
    DenseReference,
    central_extensions,
    elements,
    root_subset_algebras,
)

from orbitvar import orbit
from orbitvar.liealg import AlgebraError, CenterNotTrivialError, WeightedLieAlgebra
from orbitvar.linalg import (
    Matrix,
    NotNilpotentError,
    exp_nilpotent,
    nilpotent_terms,
    nullspace,
    rank,
    row_space_basis,
    rref,
)

# A4's full root set has 2^10 weight subsets and takes minutes to
# enumerate; closed subsets of up to five roots keep an example short
SMALL = st.one_of(root_subset_algebras(), central_extensions()).filter(lambda spec: len(spec[1]) <= 5)
ANY = st.one_of(root_subset_algebras(), central_extensions())
# a root subset whose weights span the torus has zero center
FAITHFUL = root_subset_algebras().filter(lambda spec: WeightedLieAlgebra.build(*spec).center().rows == 0)


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return "value", fn(*args)
    except (AlgebraError, orbit.OrbitError) as e:
        return "raised", type(e), str(e)


@st.composite
def rescaled_root_subsets(draw):
    """A closed set of positive roots e_ij of A_m (m = 2..4) in the basis
    b_ij = s_ij E_ij of matrix units, s_ij random nonzero: a Lie algebra
    whose constants [b_ij, b_jk] = (s_ij s_jk / s_ik) b_ik vary."""
    m, names, weights, _ = draw(root_subset_algebras())
    root = {nm: (int(nm[1]), int(nm[2])) for nm in names}
    name = {r: nm for nm, r in root.items()}
    scale = {nm: draw(NONZERO) for nm in names}
    brackets = [
        (left, right, {name[(i, k)]: scale[left] * scale[right] / scale[name[(i, k)]]})
        for left, (i, j) in root.items()
        for right, (jj, k) in root.items()
        if j == jj
    ]
    return m, names, weights, brackets


@st.composite
def perturbed_algebras(draw):
    """A generated algebra, sometimes with one bracket doubled, which keeps
    the grading and may break Jacobi, or replaced by a random term, which
    may break the grading and then breaks Jacobi on a torus triple."""
    d, names, weights, brackets = draw(st.one_of(root_subset_algebras(), rescaled_root_subsets(), central_extensions()))
    change = draw(st.sampled_from(["none", "double", "random"]))
    if change == "double" and brackets:
        left, right, value = draw(st.sampled_from(brackets))
        brackets = brackets + [(left, right, {k: 2 * c for k, c in value.items()})]
    if change == "random" and len(names) > 1:
        left, right = draw(st.permutations(names))[:2]
        brackets = brackets + [(left, right, {draw(st.sampled_from(names)): draw(NONZERO)})]
    return d, names, weights, brackets


# -- uncached references ------------------------------------------------


Z = sympy.Symbol("z")


def bracket_ad(alg, x):
    """The matrix of ad x with column k the bracket of x with basis vector k."""
    cols = [alg.bracket(x, alg.basis_vector(k)) for k in range(alg.dim)]
    return Matrix.from_rows([[cols[j][i] for j in range(alg.dim)] for i in range(alg.dim)])


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m[i, j].numerator, m[i, j].denominator))


def to_fraction(e):
    return Fraction(int(sympy.numer(e)), int(sympy.denom(e)))


def fraction_rows(m):
    return [[to_fraction(e) for e in m.row(r)] for r in range(m.rows)]


def sympy_exp_nilpotent(m, z):
    """exp(z m) for a nilpotent sympy matrix m, summed until a power vanishes."""
    acc = term = sympy.eye(m.rows)
    for k in range(1, m.rows + 1):
        term = (term * m * z / k).expand()
        if term.is_zero_matrix:
            break
        acc = acc + term
    return acc


def reference_act(alg, word):
    """exp(z_1 ad x_1) ... exp(z_k ad x_k) t as a sympy.Matrix whose rows
    span the result, each factor from a fresh ad; z_i None is the symbol z."""
    g = sympy.eye(alg.dim)
    for i, z in word:
        zi = Z if z is None else sympy.Rational(z.numerator, z.denominator)
        g = g * sympy_exp_nilpotent(to_sympy(bracket_ad(alg, alg.weight_vector(i))), zi)
    t = to_sympy(orbit.torus_subspace(alg).basis)
    return (t * g.T).expand()


def sympy_curve(alg, m):
    """The CurveSubspace whose coefficient matrices are those of the
    polynomial matrix m in Z, up to its degree (`from_powers`)."""
    polys = [[sympy.Poly(e, Z) for e in m.row(r)] for r in range(m.rows)]
    top = max((p.degree() for row in polys for p in row if not p.is_zero), default=0)
    coeffs = tuple(
        Matrix.from_rows([[to_fraction(p.coeff_monomial(Z**k)) for p in row] for row in polys])
        for k in range(top + 1)
    )
    return from_powers(alg, coeffs)


def reference_torus_fixed_points(alg):
    out = []
    for size in range(alg.n + 1):
        for subset in itertools.combinations(range(alg.n), size):
            ws = [alg.weights[i] for i in subset]
            if ws and rank(weight_matrix(alg, ws)) != len(ws) or not alg.centralizer_in_a(subset):
                continue
            v = orbit._fixed_point_subspace(alg, subset)
            word = [(i, None) for i in alg.weight_order() if i in subset]
            witness = sympy_curve(alg, reference_act(alg, word))
            if subset and nullspace_limit(witness) != v:
                raise orbit.OrbitError("witness curve limit mismatch")
            out.append(orbit.FixedPointRecord(v, subset, witness))
    return tuple(out)


def reference_group_fixed_points(alg, torus_records):
    """The records whose z_V, rebuilt from the weights, has the center's
    dimension and contains it, and whose V is an ideal."""
    z = alg.torus_kernel(alg.weights)
    out = []
    for recd in torus_records:
        z_rows = alg.torus_kernel([alg.weights[i] for i in recd.r_v_set]).entries
        z_v = orbit.Subspace.from_rows(alg, [list(row) + [Fraction(0)] * alg.n for row in z_rows])
        assert z_v.dim == recd.subspace.dim - len(recd.r_v_set)
        if z_v.dim != z.rows:
            continue
        if not all(z_v.contains(list(row) + [Fraction(0)] * alg.n) for row in z.entries):
            continue
        if is_ideal(alg, recd.subspace):
            out.append(recd)
    return tuple(out)


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
        s = s + (_mat_inverse(dgs) @ gs).scale(Fraction(-1))
    raise AlgebraError("newton iteration for the semisimple part did not converge")


def _poly_at(coeffs: list[Fraction], m: Matrix) -> Matrix:
    acc = zero(m.rows, m.cols)
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


def reference_jordan(alg, x):
    """The Jordan solve over the full m^2 x m system vec(ad y) = vec(S)."""
    if alg.torus_kernel(alg.weights).rows != 0:
        raise CenterNotTrivialError("jordan decomposition needs a faithful adjoint")
    s_mat = _semisimple_part(bracket_ad(alg, x))
    m = alg.dim
    ads = [bracket_ad(alg, alg.basis_vector(j)) for j in range(m)]
    big = Matrix.from_rows([[adj[a, b] for adj in ads] for a in range(m) for b in range(m)])
    sol = solve(big, [s_mat[a, b] for a in range(m) for b in range(m)])
    if sol is None:
        raise AlgebraError("semisimple part is not in the image of ad")
    s = tuple(sol)
    n = tuple(a - b for a, b in zip(x, s))
    if any(c != 0 for c in alg.bracket(s, n)):
        raise AlgebraError("jordan parts fail to commute")
    return s, n


# -- memoised against reference -----------------------------------------


class TestFixedPoints:
    @settings(max_examples=15)
    @given(spec=SMALL)
    def test_match_uncached_reference(self, spec):
        alg = WeightedLieAlgebra.build(*spec)
        # fill the other memo entries first, as a query stream would
        alg.center()
        orbit.act(alg, [(0, None), (alg.n - 1, Fraction(2))], orbit.torus_subspace(alg))
        want = outcome(reference_torus_fixed_points, alg)
        torus = outcome(orbit.torus_fixed_points, alg)
        assert torus == want
        if want[0] == "value":
            assert all(a is b for a, b in zip(orbit.torus_fixed_points(alg), torus[1], strict=True))
            group = orbit.group_fixed_points(alg)
            assert group == reference_group_fixed_points(alg, want[1])
            assert orbit.group_fixed_points(alg) is group


def reference_jacobi(alg):
    """The Jacobi identity through `bracket` on every basis triple, torus
    elements included."""
    vs = [alg.basis_vector(k) for k in range(alg.dim)]
    names = alg.basis_names()
    for i, j, k in itertools.combinations(range(alg.dim), 3):
        s1 = alg.bracket(vs[i], alg.bracket(vs[j], vs[k]))
        s2 = alg.bracket(vs[j], alg.bracket(vs[k], vs[i]))
        s3 = alg.bracket(vs[k], alg.bracket(vs[i], vs[j]))
        if any(a + b + c != 0 for a, b, c in zip(s1, s2, s3)):
            return False, f"jacobi fails on ({names[i]},{names[j]},{names[k]})"
    return True, "jacobi identity holds on all basis triples"


class TestJordan:
    @settings(max_examples=25)
    @given(spec=FAITHFUL, data=st.data())
    def test_matches_full_system_solve(self, spec, data):
        # the conjugation method needs Jacobi; on an algebra without it the
        # reference may still return a pair, so only the guard is compared
        alg = WeightedLieAlgebra.build(*spec)
        jacobi_ok, jacobi_detail = alg._jacobi()
        for _ in range(2):
            x = tuple(data.draw(elements(alg.dim)))
            got = outcome(alg.jordan_decompose, x)
            if jacobi_ok:
                assert got == outcome(reference_jordan, alg, x)
                assert got[0] == "value"
            else:
                assert got == ("raised", AlgebraError, f"jordan decomposition needs the jacobi identity: {jacobi_detail}")

    @settings(max_examples=20)
    @given(spec=rescaled_root_subsets(), data=st.data())
    def test_matches_full_system_solve_on_lie_algebras(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        for _ in range(2):
            x = tuple(data.draw(elements(alg.dim)))
            got = outcome(alg.jordan_decompose, x)
            assert got == outcome(reference_jordan, alg, x)
            assert got[0] == "value" or alg.center().rows

    def test_semisimple_part_outside_the_image_raises_on_both(self):
        # A3 with [x12, x3] doubled: Jacobi fails on (x1, x2, x3), so ad is
        # no homomorphism and the semisimple part of ad x can miss its image
        alg = WeightedLieAlgebra.build(
            3,
            ["x1", "x2", "x3", "x12", "x23", "x123"],
            {"x1": [1, 0, 0], "x2": [0, 1, 0], "x3": [0, 0, 1], "x12": [1, 1, 0], "x23": [0, 1, 1], "x123": [1, 1, 1]},
            [("x1", "x2", {"x12": 1}), ("x2", "x3", {"x23": 1}), ("x1", "x23", {"x123": 1}), ("x12", "x3", {"x123": 2})],
        )
        x = tuple(Fraction(c) for c in (1, 0, 1, 0, 1, 1, 0, 0, 0))
        assert outcome(reference_jordan, alg, x) == ("raised", AlgebraError, "semisimple part is not in the image of ad")
        assert outcome(alg.jordan_decompose, x) == (
            "raised",
            AlgebraError,
            "jordan decomposition needs the jacobi identity: jacobi fails on (x1,x2,x3)",
        )

    @settings(max_examples=10)
    @given(spec=central_extensions(), data=st.data())
    def test_nonzero_center_raises_on_both(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        x = tuple(data.draw(elements(alg.dim)))
        got = outcome(alg.jordan_decompose, x)
        assert got == outcome(reference_jordan, alg, x)
        assert got[:2] == ("raised", CenterNotTrivialError)


class TestJacobi:
    @settings(max_examples=50)
    @given(spec=perturbed_algebras())
    def test_matches_full_loop(self, spec):
        alg = WeightedLieAlgebra.build(*spec)
        want = reference_jacobi(alg)
        assert alg._jacobi() == want
        checks = {name: (ok, detail) for name, ok, detail in alg.validate()}
        assert checks["jacobi"] == want
        assert alg.validate() is alg.validate()


def reference_nilpotent(alg):
    """The lower central series of a through `bracket`, n + 1 steps."""
    span = row_space_basis(Matrix.from_rows([alg.weight_vector(i) for i in range(alg.n)]))
    for _ in range(alg.n + 1):
        if span.rows == 0:
            return True
        nxt = [alg.bracket(alg.weight_vector(i), v) for i in range(alg.n) for v in span.entries]
        span = row_space_basis(Matrix.from_rows(nxt))
    return False


def dense_chain(m, v):
    """The terms m^k v / k! of exp(m) v from `nilpotent_terms`, up to the
    last nonzero one."""
    terms = [apply(t, v) for t in nilpotent_terms(m)]
    while len(terms) > 1 and not any(terms[-1]):
        terms.pop()
    return tuple(terms)


def sum_chain(terms, z):
    """sum_k z^k terms[k], the chain summed at a scalar."""
    return tuple(sum((z**k * t[c] for k, t in enumerate(terms)), Fraction(0)) for c in range(len(terms[0])))


class TestAdTable:
    @settings(max_examples=50)
    @given(spec=perturbed_algebras(), data=st.data())
    def test_matches_dense_adjoint(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        ref = DenseReference(*spec)
        x = tuple(data.draw(elements(alg.dim)))
        assert alg.ad(x) == ref.ad(x)
        assert alg.regular_test(x) == (nullspace(ref.ad(x)).rows == alg.t_dim)
        v = tuple(data.draw(elements(alg.dim)))
        units = [alg.basis_vector(j) for j in range(alg.dim)]
        for u in (x, *data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=3, unique=True))):
            m = ref.ad(u)
            try:
                want = dense_chain(m, v)
            except NotNilpotentError:
                # then the chain of some basis vector does not end
                assert any(outcome(exp_ad_terms, alg, u, b)[0] == "raised" for b in units)
                continue
            assert exp_ad_terms(alg, u, v) == want
        assert alg.ad_table() is alg.ad_table()

    @settings(max_examples=50)
    @given(spec=perturbed_algebras())
    def test_nilpotency_matches_bracket_loop(self, spec):
        alg = WeightedLieAlgebra.build(*spec)
        want = reference_nilpotent(alg)
        assert alg._nilpotent() == want
        checks = {name: ok for name, ok, _ in alg.validate()}
        assert checks["nilpotency"] == want


class TestExpTerms:
    @settings(max_examples=30)
    @given(spec=ANY, data=st.data())
    def test_cached_terms_match_fresh_exponential(self, spec, data):
        alg = WeightedLieAlgebra.build(*spec)
        word = data.draw(
            st.lists(
                st.tuples(st.integers(0, alg.n - 1), st.one_of(st.none(), RATIONALS)),
                min_size=1,
                max_size=3,
            )
        )
        table = alg.ad_table()
        for i, z in word:
            x = alg.weight_vector(i)
            fresh = bracket_ad(alg, x)
            for v in orbit.torus_subspace(alg).basis.entries:
                assert exp_ad_terms(alg, x, v) == dense_chain(fresh, v)
                if z is not None:
                    assert sum_chain(exp_ad_terms(alg, x, v), z) == apply(exp_nilpotent(fresh, z), v)
            assert alg.ad_table() is table
        got = orbit.act(alg, word, orbit.torus_subspace(alg))
        want = reference_act(alg, word)
        if any(z is None for _, z in word):
            assert got == sympy_curve(alg, want)
        else:
            assert got == orbit.Subspace.from_rows(alg, fraction_rows(want))
