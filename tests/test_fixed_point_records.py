"""A fixed-point record holds its weight set S, its verified limit
z_S + a_S and its witness curve, and nothing derived from them: the
subspace is the memoised `witness_limit` object itself, the group-fixed
points are the torus records themselves, and the `z_v_dim` and
`fixed_under` of the report are printed from the record and its list."""

import dataclasses

import pytest

from test_weight_walks import CASES, borel_nilradical

from orbitvar import cli, orbit


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
        assert r.subspace is orbit.witness_limit(alg, r.r_v_set)
        assert r.witness is orbit.witness_curve(alg, r.r_v_set)
    checks = cli.cmd_fixed_points(alg, 0).to_json()["checks"]
    for check, records, under in zip(checks, (torus, group), ("torus", "group")):
        printed = check["details"]["records"]
        assert len(printed) == len(records)
        assert [item["z_v_dim"] for item in printed] == [alg.kernel(r.r_v_set).rows for r in records]
        assert {item["fixed_under"] for item in printed} <= {under}
