"""A fixed-point record holds its weight set S, its verified limit
z_S + a_S and its witness curve, and nothing derived from them: the
record is the one memoised value of its weight set, which no other
memo family keeps a curve or a limit of, the torus is the subspace of
the record of (), the group-fixed points are the torus records
themselves, and the `z_v_dim` and `fixed_under` of the report are
printed from the record and its list."""

import dataclasses
import itertools

import pytest

import witness_reference
from test_weight_walks import CASES, borel_nilradical

from orbitvar import cli, orbit
from orbitvar import report as rep
from orbitvar.linalg import RankDeficientError


def test_a_record_has_three_fields():
    assert [f.name for f in dataclasses.fields(orbit.FixedPointRecord)] == ["subspace", "r_v_set", "witness"]


@pytest.mark.parametrize("name", [*CASES, "borel-nilradical-A5"])
def test_each_fact_is_held_once(name):
    alg = borel_nilradical(5) if name == "borel-nilradical-A5" else CASES[name]()
    torus = orbit.torus_fixed_points(alg)
    group = orbit.group_fixed_points(alg)
    by_subset = {r.r_v_set: r for r in torus}
    assert all(by_subset[r.r_v_set] is r for r in group)
    for r in torus:
        assert orbit.fixed_point_record(alg, r.r_v_set) is r
    assert orbit.torus_subspace(alg) is torus[0].subspace and torus[0].r_v_set == ()
    # the weight-set families are the kernels and the records alone
    assert {k[0] for k in alg._memo if isinstance(k, tuple) and isinstance(k[-1], tuple)} == {"kernel", "fixed-point-record"}
    checks = cli.cmd_fixed_points(alg, 0).to_json()["checks"]
    for check, records, under in zip(checks, (torus, group), ("torus", "group")):
        printed = check["details"]["records"]
        assert len(printed) == len(records)
        assert [item["z_v_dim"] for item in printed] == [alg.kernel(r.r_v_set).rows for r in records]
        assert {item["fixed_under"] for item in printed} <= {under}


# -- the records against the curves and limits kept per weight set -----------------

DIFFERENTIAL = [*CASES, "borel-nilradical-A5"]  # the builtins, A4, the central extensions


def build(name):
    return borel_nilradical(5) if name == "borel-nilradical-A5" else CASES[name]()


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_every_record_is_the_reference_curve_and_limit(name):
    alg, ref = build(name), build(name)
    for r in orbit.torus_fixed_points(alg):
        assert r.witness.rows == witness_reference.witness_curve(ref, r.r_v_set).rows, r.r_v_set
        assert r.subspace == witness_reference.witness_limit(ref, r.r_v_set), r.r_v_set


def checks_of(fn, alg, data, v):
    try:
        return fn(alg, data, v, orbit.graded_subset(alg, v))
    except orbit.OrbitError as e:
        return type(e), str(e)


def unrecorded_points(alg, kept):
    """(S, V, whether V is a limit) for each weight subset S of at most
    three weights that indexes no record: V is z_S + a_S, z_S = ker W_S,
    whose graded set is S, and the limit of the reference curve over S."""
    pad = (0,) * alg.n
    for s in itertools.chain.from_iterable(itertools.combinations(range(alg.n), k) for k in (1, 2, 3)):
        if s not in kept:
            rows = [row + pad for row in alg.kernel(s).entries] + [alg.weight_vector(i) for i in s]
            yield s, orbit.Subspace.from_rows(alg, rows), False
            try:
                yield s, witness_reference.witness_limit(alg, s), True
            except RankDeficientError:
                pass


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_property_p_checks_are_the_reference_checks(name):
    """On every pair the `property-p` command walks, and on the points of
    the subsets that index no record, each against the flat of its
    a-support, so that it passes the precondition.  Such a subset is
    never the graded set of its reference limit, so the limit is proven
    only when it is another set's record."""
    alg = build(name)
    records = orbit.torus_fixed_points(alg)
    proven = 0
    for lam in alg.complete_subsets():
        data = orbit.torus_element_data(alg, lam)
        for r in records:
            if set(r.r_v_set) <= set(lam):
                got = checks_of(orbit.property_P_checks, alg, data, r.subspace)
                assert got == checks_of(witness_reference.property_P_checks, alg, data, r.subspace)
                proven += got[-1].verdict == rep.PROVEN
    assert proven >= len(records)
    for s, v, limit in unrecorded_points(alg, {r.r_v_set for r in records}):
        support = {k for row in v.basis.entries for k, c in enumerate(alg.a_part(row)) if c}
        data = orbit.torus_element_data(alg, alg.closure(sorted(support)))
        got = checks_of(orbit.property_P_checks, alg, data, v)
        assert got == checks_of(witness_reference.property_P_checks, alg, data, v)
        if limit:
            assert orbit.graded_subset(alg, v) != s
        else:
            assert got[-1].verdict != rep.PROVEN
