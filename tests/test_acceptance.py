"""End-to-end acceptance suite: the constructive properties the toolkit
is required to certify on the built-in algebras, with runtime budgets."""

import itertools
import json
import random
import time
from fractions import Fraction

from chart_reference import determinantal_P
from orbitvar import cli, ideals, models, orbit
from orbitvar import report as rep
from orbitvar.liealg import WeightedLieAlgebra
from orbitvar.orbit import Subspace

A2 = models.borel_nilradical_a2()
A3 = models.borel_nilradical_a3()


def F(*cs):
    return tuple(Fraction(c) for c in cs)


def test_fixed_point_enumeration_a2():
    start = time.monotonic()
    torus = orbit.torus_fixed_points(A2)
    group = orbit.group_fixed_points(A2)
    assert len(torus) == 6
    assert len(group) == 2
    for r in torus:
        assert r.witness.limit() == r.subspace
    # independent brute force over all weight subsets
    from orbitvar.linalg import Matrix, rank

    brute = set()
    for size in range(A2.n + 1):
        for s in itertools.combinations(range(A2.n), size):
            if s and rank(
                Matrix.from_rows([list(A2.weights[i].coords) for i in s])
            ) != len(s):
                continue
            if not A2.centralizer_in_a(s):
                continue
            ker = A2.torus_kernel([A2.weights[i] for i in s])
            if ker.rows + len(s) != A2.t_dim:
                continue
            rows = [list(ker.row(r)) + [0] * A2.n for r in range(ker.rows)]
            rows += [A2.weight_vector(i) for i in s]
            brute.add(Subspace.from_rows(A2, rows))
    assert {r.subspace for r in torus} == brute
    assert time.monotonic() - start < 1.0


def test_boundary_components_both_builtins():
    start = time.monotonic()
    for alg, count, dim in ((A2, 3, 2), (A3, 6, 5)):
        comps = orbit.boundary_components(alg)
        assert len(comps) == count == alg.n
        assert all(c.orbit_dim == dim == alg.n - 1 for c in comps)
    assert time.monotonic() - start < 5.0


def test_theta_limits_are_graded_subspaces():
    for alg in (A2, A3):
        for i, w in enumerate(alg.weights):
            got = orbit.witness_limit(alg, (i,))
            ker = alg.torus_kernel([w])
            rows = [list(ker.row(r)) + [0] * alg.n for r in range(ker.rows)]
            rows.append(alg.weight_vector(i))
            assert got == Subspace.from_rows(alg, rows)


def test_certified_subspaces_commutative_and_contain_center():
    violations = []
    for alg in (A2, A3):
        certified = [r.subspace for r in orbit.torus_fixed_points(alg)]
        certified += [c.base_point for c in orbit.boundary_components(alg)]
        rng = random.Random(0)
        for _ in range(5):
            word = [
                (i, Fraction(rng.randint(-3, 3)))
                for i in rng.sample(range(alg.n), k=2)
            ]
            moved = orbit.act(alg, word, orbit.torus_subspace(alg))
            if orbit.membership(alg, moved).certified:
                certified.append(moved)
        center = alg.center()
        for v in certified:
            if not orbit.is_commutative_subalgebra(alg, v):
                violations.append((alg.fingerprint(), "commutativity"))
            for r in range(center.rows):
                if not v.contains(list(center.row(r)) + [0] * alg.n):
                    violations.append((alg.fingerprint(), "center"))
    assert violations == []


def test_determinantal_dimensions_and_primality():
    start = time.monotonic()
    for s in (2, 3, 4):
        p, _, _ = determinantal_P(s)
        assert ideals.hilbert_dimension(p) == s + 1
        out = ideals.primality_crosscheck_P(s)
        assert all(c.verdict == rep.PROVEN for c in out.checks)
    assert time.monotonic() - start < 30.0


def test_column_minor_identity_reduces_to_zero():
    for s in (2, 3, 4):
        _, p_prime, _ = determinantal_P(s)
        for j in range(1, s + 1):
            for k in range(j + 1, s + 1):
                f = f"T1*(u{j}*T{k} - u{k}*T{j})"
                assert p_prime.normal_form(f) == 0


def test_chart_suite_a2_both_base_points():
    start = time.monotonic()
    for recd in orbit.group_fixed_points(A2):
        chart = ideals.chart_ideal(A2, recd.subspace)
        assert ideals.chart_dimension(chart) == A2.n
        rel = ideals.verify_chart_relation(chart)
        assert not rel.has_refutation()
        for wi in recd.r_v_set:
            gamma = A2.weights[wi]
            seq = [
                ideals.u_function(chart, i, gamma)
                for i in ideals.i_gamma(chart, gamma)
            ]
            out = ideals.regular_sequence_check(chart.ideal, seq)
            assert all(c.verdict == rep.PROVEN for c in out.checks)
    assert time.monotonic() - start < 60.0


def test_nilpotent_cone_dimensions_a2():
    for recd in orbit.group_fixed_points(A2):
        chart = ideals.chart_ideal(A2, recd.subspace)
        d, n = A2.t_dim, A2.n
        assert ideals.nilcone_dimension(chart) == n
        for subset in [(), (1,), (2,)]:
            assert ideals.nilcone_dimension(chart, subset) == n + d - len(subset)


def test_nilpotent_locus_bound_a2():
    for recd in orbit.group_fixed_points(A2):
        chart = ideals.chart_ideal(A2, recd.subspace)
        assert ideals.nilpotent_locus_dimension(chart) <= A2.n - A2.t_dim == 1


def test_pair_relation_hundred_samples_per_weight():
    for w in A2.weights:
        out = orbit.verify_pair_relation(A2, w, samples=100, seed=0)
        check = out.checks[0]
        assert check.verdict == rep.SAMPLED
        assert check.details["samples"] >= 100
        assert check.details["counterexamples"] == []


def test_property_p_consequences_both_builtins():
    for alg in (A2, A3):
        out = cli.cmd_property_p(alg, 0)
        check = out.checks[0]
        assert check.verdict == rep.PROVEN
        assert check.details["refuted"] == 0
        # a witness curve was constructed in every compatible case
        assert check.details["consequence_checked"] == 0
        assert check.details["proven"] > 0


def test_suite_reports_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        code = cli.main(
            [
                "suite",
                "--builtin",
                "borel-nilradical-A2",
                "--seed",
                "0",
                "--output",
                str(dest),
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["summary"]["worst"] == "proven"
