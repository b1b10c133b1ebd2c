"""Property (P) from the fixed-point records: `cli.cmd_property_p` and
`orbit.property_P_checks` against the per-pair versions kept here,
which rebuild every witness curve and take its limit without the
per-subset memo and search for a generic torus element per complete
subset; the weight set S each torus-fixed record carries, which
`cmd_property_p` reads in place of `graded_subset`; the witness curve
and its limit built once per weight subset; and the search finding a
generic torus element for every complete subset, which
`cmd_property_p` relies on without searching."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from curve_limit_reference import nullspace_limit
from curve_powers_reference import from_powers
from linalg_reference import lambda_of
from stabilizer_reference import contains_subspace
from test_memo import SMALL
from test_orbit import property_p

from orbitvar import cli, models, orbit
from orbitvar import report as rep
from orbitvar.liealg import AlgebraError, WeightedLieAlgebra
from orbitvar.linalg import LinAlgError, RankDeficientError

BUILTINS = (
    "sl2-borel",
    "borel-nilradical-A2",
    "borel-nilradical-A3",
    "heisenberg-3",
    "abelian:1",
    "abelian:2",
    "abelian:3",
)
VARIANTS = range(4)


def borel_nilradical_a4(variant):
    """Strictly upper triangular 5x5 matrices, [e_ij, e_jk] = e_ik, with
    the basis order shuffled by the variant."""
    roots = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    random.Random(variant).shuffle(roots)
    name = {r: f"e{r[0]}{r[1]}" for r in roots}
    weights = {name[(i, j)]: [1 if i <= k < j else 0 for k in range(1, 5)] for i, j in roots}
    brackets = [
        (name[(i, j)], name[(j, k)], {name[(i, k)]: 1})
        for (i, j), (jj, k) in itertools.product(roots, roots)
        if j == jj
    ]
    return WeightedLieAlgebra.build(4, [name[r] for r in roots], weights, brackets)


def heisenberg_central_extension(variant):
    """heisenberg-3 with one more torus direction that every weight kills;
    the variant picks which torus coordinate is central and the basis
    order."""
    rng = random.Random(variant)
    central = rng.randrange(3)

    def lift(w):
        w = list(w)
        w.insert(central, 0)
        return w

    names = ["p", "q", "c"]
    rng.shuffle(names)
    weights = {"p": lift([1, 0]), "q": lift([0, 1]), "c": lift([1, 1])}
    return WeightedLieAlgebra.build(3, names, weights, [("p", "q", {"c": 1})])


# -- the per-pair versions, without the witness memo ---------------------


def reference_witness_curve(alg, subset):
    t = orbit.torus_subspace(alg)
    if not subset:
        return from_powers(alg, [t.basis])
    return orbit.act(alg, [(i, None) for i in alg.weight_order() if i in subset], t)


def generic_kernel_element(alg, lam):
    """A torus element whose vanishing weights are exactly the complete
    set, searched for over small coefficient tuples on its kernel; None
    when the search misses."""
    ker = alg.torus_kernel([alg.weights[i] for i in lam])
    if ker.rows == 0:
        s = alg.zero()
        return s if tuple(lambda_of(alg, s)) == tuple(lam) else None
    for coefs in itertools.product(range(-3, 4), repeat=ker.rows):
        t = [
            sum((Fraction(coefs[r]) * ker[r, c] for r in range(ker.rows)), Fraction(0))
            for c in range(alg.t_dim)
        ]
        s = tuple(t) + tuple(Fraction(0) for _ in range(alg.n))
        if tuple(lambda_of(alg, s)) == tuple(lam):
            return s
    return None


def reference_property_P_consequences(alg, s, v):
    out = rep.VerificationReport("property-p", alg.fingerprint())
    cent = orbit.Subspace(alg, alg.centralizer(s))
    if not contains_subspace(cent, v):
        raise orbit.PreconditionFailedError("V is not inside the centralizer of s")
    lam = lambda_of(alg, s)
    center_rows = list(alg.torus_kernel([alg.weights[i] for i in lam]).entries)
    ok = all(v.contains(list(r) + [Fraction(0)] * alg.n) for r in center_rows)
    out.add(
        "center-containment",
        rep.PROVEN if ok else rep.REFUTED,
        "the center of the centralizer of s lies inside V",
        details={"lambda": [alg.weights[i].as_strings() for i in lam]},
    )
    if not ok:
        return out
    if orbit.graded_subset(alg, v) is not None:
        subset = tuple(i for i in range(alg.n) if v.contains(alg.weight_vector(i)))
        if all(i in lam for i in subset):
            witness = reference_witness_curve(alg, subset)
            if nullspace_limit(witness) == v:
                out.add(
                    "witness-curve",
                    rep.PROVEN,
                    "a curve inside the centralizer of s degenerates to V",
                    witness=witness.to_json()["basis"],
                )
                return out
    out.add(
        "witness-curve",
        rep.CONSEQUENCE_CHECKED,
        "no constructive witness; necessary conditions hold",
    )
    return out


def reference_cmd_property_p(alg, seed):
    out = rep.VerificationReport("property-p", alg.fingerprint(), seed=seed)
    refuted = 0
    proven = 0
    checked = 0
    complete = alg.complete_subsets()
    for recd in orbit.torus_fixed_points(alg):
        for lam in complete:
            if not set(recd.r_v_set) <= set(lam):
                continue
            s = generic_kernel_element(alg, lam)
            if s is None:
                continue
            sub = reference_property_P_consequences(alg, s, recd.subspace)
            for c in sub.checks:
                if c.verdict == rep.REFUTED:
                    refuted += 1
                elif c.verdict == rep.PROVEN:
                    proven += 1
                else:
                    checked += 1
    out.add(
        "property-p-suite",
        rep.REFUTED if refuted else rep.PROVEN,
        "for every torus-fixed V and compatible torus element s, the"
        " centralizer-center containment holds and a witness curve exists",
        details={"proven": proven, "consequence_checked": checked, "refuted": refuted},
    )
    return out


def outcome(fn, *args):
    """The JSON of fn(*args)'s report, or the type and message of what it raised."""
    try:
        return "value", fn(*args).to_json()
    except (AlgebraError, orbit.OrbitError, LinAlgError) as e:
        return "raised", type(e), str(e)


def property_P_report(alg, s, v):
    """`orbit.property_P_checks` of V against the data of s, as the
    report the reference builds, each witness curve rendered."""
    out = rep.VerificationReport("property-p", alg.fingerprint())
    for c in property_p(alg, s, v):
        out.add(c.name, c.verdict, c.claim, None if c.witness is None else c.witness.to_json()["basis"], c.details)
    return out


def rebuild(alg):
    """A fresh instance of the same algebra, with an empty memo."""
    return WeightedLieAlgebra.from_json(alg.to_json())


def assert_records_carry_graded_subset(alg):
    """`cmd_property_p` takes S from each record in place of graded_subset."""
    for recd in orbit.torus_fixed_points(alg):
        assert orbit.graded_subset(alg, recd.subspace) == recd.r_v_set


# -- the CLI report -------------------------------------------------------


class TestCmdPropertyP:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtins_match_per_pair_reference(self, name):
        want = reference_cmd_property_p(models.builtin(name), 3).render_json()
        alg = models.builtin(name)
        assert cli.cmd_property_p(alg, 3).render_json() == want
        assert_records_carry_graded_subset(alg)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_central_extensions_match_per_pair_reference(self, variant):
        alg = heisenberg_central_extension(variant)
        want = reference_cmd_property_p(rebuild(alg), 0).render_json()
        assert cli.cmd_property_p(alg, 0).render_json() == want
        assert_records_carry_graded_subset(alg)

    @settings(max_examples=15)
    @given(spec=SMALL)
    def test_generated_algebras_match_per_pair_reference(self, spec):
        alg = WeightedLieAlgebra.build(*spec)
        want = outcome(reference_cmd_property_p, WeightedLieAlgebra.build(*spec), 1)
        assert outcome(cli.cmd_property_p, alg, 1) == want
        if want[0] == "value":
            assert_records_carry_graded_subset(alg)

    def test_each_witness_is_built_and_limited_once(self, monkeypatch):
        """On A3 every witness curve comes from the fixed-point enumeration:
        it is built (`CurveSubspace.__init__`, one factor on its parent's
        curve, never `act`) and `limit` takes its limit at most once per
        enumerated weight subset, and no curve is rendered."""
        subsets = len(orbit.torus_fixed_points(models.builtin("borel-nilradical-A3")))
        words, built, limits, renders = Counter(), Counter(), Counter(), Counter()
        act, build, limit, to_json = orbit.act, orbit.CurveSubspace.__init__, orbit.CurveSubspace.limit, orbit.CurveSubspace.to_json

        def counted_act(alg, word, v):
            words[tuple(word)] += 1
            return act(alg, word, v)

        def counted_build(curve, alg, rows):
            build(curve, alg, rows)
            built[rows] += 1

        def counted_limit(curve):
            limits[curve.rows] += 1
            return limit(curve)

        def counted_to_json(curve):
            renders[curve.rows] += 1
            return to_json(curve)

        monkeypatch.setattr(orbit, "act", counted_act)
        monkeypatch.setattr(orbit.CurveSubspace, "__init__", counted_build)
        monkeypatch.setattr(orbit.CurveSubspace, "limit", counted_limit)
        monkeypatch.setattr(orbit.CurveSubspace, "to_json", counted_to_json)
        out = cli.cmd_property_p(models.builtin("borel-nilradical-A3"), 0)
        assert out.checks[0].details["proven"] > 0
        assert not words
        assert 0 < sum(built.values()) <= subsets and set(built.values()) == {1}
        assert 0 < sum(limits.values()) <= subsets and set(limits.values()) == {1}
        assert not renders


KERNEL_CASES = {
    **{name: lambda name=name: models.builtin(name) for name in BUILTINS},
    **{f"heisenberg-3-central-v{v}": lambda v=v: heisenberg_central_extension(v) for v in VARIANTS},
    "borel-nilradical-A4": lambda: borel_nilradical_a4(0),
}


class TestGenericKernelElement:
    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_found_for_every_complete_subset(self, name):
        # a miss would drop its pairs from the property-p counts unseen
        alg = KERNEL_CASES[name]()
        for lam in alg.complete_subsets():
            s = generic_kernel_element(alg, lam)
            assert s is not None, lam
            assert lambda_of(alg, s) == lam

    @settings(max_examples=30)
    @given(spec=SMALL)
    def test_found_on_generated_algebras(self, spec):
        # on t_L each of the at most five weights outside L vanishes on at
        # most 7^(k-1) of the 7^k coefficient tuples, so some tuple is left
        alg = WeightedLieAlgebra.build(*spec)
        for lam in alg.complete_subsets():
            s = generic_kernel_element(alg, lam)
            assert s is not None and lambda_of(alg, s) == lam


# -- the sub-report -------------------------------------------------------

A2 = models.builtin("borel-nilradical-A2")


def a2_span(*rows):
    return orbit.Subspace.from_rows(A2, [[Fraction(c) for c in r] for r in rows])


@st.composite
def property_p_inputs(draw):
    """An algebra, a torus element s (generic for a complete subset, or
    drawn) and a subspace V: torus rows (the kernel of V's weights, the
    center of s's centralizer, random ones), weight vectors mostly inside
    Lambda(s), and now and then a row mixing the torus with a weight
    vector, so that V may be a fixed point, graded without a witness,
    ungraded, missing the center, or outside the centralizer."""
    spec = draw(SMALL)
    alg = WeightedLieAlgebra.build(*spec)
    small = st.integers(-2, 2).map(Fraction)
    lam = draw(st.sampled_from(alg.complete_subsets()))
    s = generic_kernel_element(alg, lam)
    if s is None or draw(st.booleans()):
        s = tuple(draw(st.lists(small, min_size=alg.t_dim, max_size=alg.t_dim))) + (Fraction(0),) * alg.n
    lam = lambda_of(alg, s)
    inside = draw(st.lists(st.sampled_from(lam), unique=True)) if lam else []
    outside = draw(st.lists(st.sampled_from(range(alg.n)), max_size=1))
    weights = sorted(set(inside) | set(outside if draw(st.integers(0, 4)) == 0 else []))
    pad = [Fraction(0)] * alg.n
    rows = []
    if draw(st.booleans()):
        rows += [list(r) + pad for r in alg.torus_kernel([alg.weights[i] for i in weights]).entries]
    if draw(st.booleans()):
        rows += [list(r) + pad for r in alg.torus_kernel([alg.weights[i] for i in lam]).entries]
    for _ in range(draw(st.integers(0, 2))):
        rows.append(draw(st.lists(small, min_size=alg.t_dim, max_size=alg.t_dim)) + pad)
    rows += [list(alg.weight_vector(i)) for i in weights]
    if weights and draw(st.integers(0, 3)) == 0:
        mixed = list(alg.weight_vector(draw(st.sampled_from(weights))))
        mixed[draw(st.integers(0, alg.t_dim - 1))] += 1
        rows.append(mixed)
    if not any(any(r) for r in rows):
        rows.append(list(alg.basis_vector(0)))
    return spec, s, rows


class TestPropertyPConsequences:
    @pytest.mark.parametrize(
        "s, v, verdicts",
        [
            # a fixed point z_V + a_S with S inside Lambda(s): witnessed
            ((1, -1), a2_span([1, -1, 0, 0, 0], [0, 0, 0, 0, 1]), [rep.PROVEN, rep.PROVEN]),
            # graded, but t + x_a is not the limit of its witness curve
            ((0, 0), a2_span([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]),
             [rep.PROVEN, rep.CONSEQUENCE_CHECKED]),
            # not torus-stable
            ((0, 0), a2_span([1, 0, 1, 0, 0], [0, 1, 0, 0, 0]), [rep.PROVEN, rep.CONSEQUENCE_CHECKED]),
            # misses the center span(t1 - t2) of the centralizer
            ((1, -1), a2_span([1, 1, 0, 0, 0], [0, 0, 0, 0, 1]), [rep.REFUTED]),
            # x_a lies outside the centralizer of s
            ((1, -1), a2_span([0, 1, 0, 0, 0], [0, 0, 1, 0, 0]), None),
        ],
    )
    def test_cases_match_per_pair_reference(self, s, v, verdicts):
        s = tuple(Fraction(c) for c in s) + (Fraction(0),) * A2.n
        want = outcome(reference_property_P_consequences, rebuild(A2), s, v)
        assert outcome(property_P_report, A2, s, v) == want
        if verdicts is None:
            assert want[:2] == ("raised", orbit.PreconditionFailedError)
        else:
            assert [c["verdict"] for c in want[1]["checks"]] == verdicts

    @settings(max_examples=60)
    @given(inputs=property_p_inputs(), prefill=st.booleans())
    def test_drawn_pairs_match_per_pair_reference(self, inputs, prefill):
        spec, s, rows = inputs
        alg = WeightedLieAlgebra.build(*spec)
        if prefill:  # fill the witness memo as the fixed-point enumeration would
            try:
                orbit.torus_fixed_points(alg)
            except (AlgebraError, orbit.OrbitError, LinAlgError):
                pass
        v = orbit.Subspace.from_rows(alg, rows)
        want = outcome(reference_property_P_consequences, WeightedLieAlgebra.build(*spec), s, v)
        assert outcome(property_P_report, alg, s, v) == want
        # the second call reads the memoised curve and limit
        assert outcome(property_P_report, alg, s, v) == want


class TestWitnessMemo:
    def test_shared_with_fixed_points_and_theta(self):
        alg = models.builtin("borel-nilradical-A3")
        records = orbit.torus_fixed_points(alg)
        for recd in records:
            assert orbit.fixed_point_record(alg, recd.r_v_set) is recd
            lam = alg.closure(recd.r_v_set)
            data = orbit.torus_element_data(alg, lam)
            checks = orbit.property_P_checks(alg, data, recd.subspace, recd.r_v_set)
            assert checks[-1].witness is recd.witness
        (theta,) = [c for c in orbit.boundary_components(alg) if c.weight_idx == 4]
        assert theta.base_point is orbit.fixed_point_record(alg, (4,)).subspace

    def test_a_limit_that_raises_is_not_kept(self, monkeypatch):
        alg = models.builtin("borel-nilradical-A2")
        calls = []

        def deficient(curve):
            calls.append(curve)
            raise RankDeficientError("the basis rows of the curve are dependent")

        with monkeypatch.context() as m:
            m.setattr(orbit.CurveSubspace, "limit", deficient)
            for _ in range(2):
                with pytest.raises(RankDeficientError):
                    orbit.fixed_point_record(alg, (0,))
                assert ("fixed-point-record", (0,)) not in alg._memo
        assert len(calls) == 2
        fresh = models.builtin("borel-nilradical-A2")
        assert orbit.fixed_point_record(alg, (0,)).subspace == orbit.fixed_point_record(fresh, (0,)).subspace
