"""Byte pins for outputs the benchmark's golden digests do not cover:
the A3 `chart` and `nilcone` reports, which run the weighted-grevlex
bases and the Hilbert-series regular sequences at base point (3,4,5),
and the grevlex remainders on that chart, whose output depends on the
term order.  The digests were recorded before either route existed.

The nine `chart`, `nilcone` and `ps-check` reports of the benchmark's
`charts` workload are pinned here too, with the digests and exit codes
of `perfbench/golden.json`, so that a changed report byte fails the
tests as well as the benchmark."""

import hashlib
import itertools

import pytest

from orbitvar import cli, models, orbit
from orbitvar.ideals import _Basis, chart_ideal

A3_REPORTS = {
    ("chart", "json"): "fe4b5ef4fbb1be5dbc93b3d870b22f4a35ddd26f2b58fdd7c1529ba118e7ef61",
    ("nilcone", "json"): "ce5f6a2eb9b8bdd328854e99630410cb77b9e3219b94d75b4bd001562173dada",
    ("chart", "markdown"): "1c6d16dfb051c1ee4bdce4f06b216ffd1adb8fbf212fd92590ed5f6a7b86c991",
    ("nilcone", "markdown"): "7824e16430217a24e9db11660f6bf34cc51ac534d7add44022eff14f6f6a2a4b",
}


@pytest.mark.parametrize("command, fmt", sorted(A3_REPORTS))
def test_a3_report_bytes_and_exit_code(command, fmt, tmp_path):
    out = tmp_path / "report"
    code = cli.main([command, "--builtin", "borel-nilradical-A3", "--format", fmt, "--output", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == A3_REPORTS[command, fmt]


CHART_REPORTS = {
    ("chart", "borel-nilradical-A2"): (0, "e8037c9c5efa00e460d0a3921331b45b86654dea4832a7d86325426b6d079eb0"),
    ("chart", "heisenberg-3"): (0, "96b83b25bb158604ba513c71baa7380b9e0bc1ac4c10556b443c159c53c5a2e3"),
    ("chart", "abelian:3"): (0, "2d6d67e837bd33517912e4ed6d20fe2c3cd10284c90247f8488430b44e926d3e"),
    ("nilcone", "borel-nilradical-A2"): (0, "424ea05a8e75f98136730635f93ce5148f51649d0e261c4850e34e1c6f8d9219"),
    ("nilcone", "heisenberg-3"): (0, "77d29830996b68e79a933ffc78f21830a53546f1df49ca6f1198c59412674f28"),
    ("nilcone", "abelian:3"): (0, "1fff8bb581136b64fd85ce6455e9455920e5ca6195444913ec17a889815d3b6a"),
    ("ps-check", "borel-nilradical-A2"): (0, "b9e80c81cff2b62bfb5aa2e31b2777a27e8cde7dc58a7da3ed0c4ddca6bd677d"),
    ("ps-check", "heisenberg-3"): (0, "be29a9dbf434cecb78e24875b0ce19b712aa0b77cb0dd958d21d06ff352e53ec"),
    ("ps-check", "abelian:3"): (0, "f8c52b06760073617033610a629525a6fad1cad3740ac7489df4eb483c426770"),
}


@pytest.mark.parametrize("command, name", sorted(CHART_REPORTS))
def test_charts_workload_report_bytes_and_exit_code(command, name, tmp_path):
    out = tmp_path / "report"
    code = cli.main([command, "--builtin", name, "--output", str(out)])
    exit_code, digest = CHART_REPORTS[command, name]
    assert code == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_normal_forms_on_the_a3_345_chart():
    """The remainder of every cubic monomial in the chart's ring on
    division by the kernel's grevlex basis (a `_Basis`), one
    remainder per line as it prints, all nonzero."""
    alg = models.builtin("borel-nilradical-A3")
    recd = next(r for r in orbit.group_fixed_points(alg) if r.r_v_set == (3, 4, 5))
    ideal = chart_ideal(alg, recd.subspace).ideal
    n = len(ideal.ring.variables)
    grevlex = _Basis(n, ideal.polys, (1,) * n)
    cubics = itertools.combinations_with_replacement(ideal.ring.gens, 3)
    forms = [grevlex.reduce(a * b * c) for a, b, c in cubics]
    assert len(forms) == 1140 and all(f != 0 for f in forms)
    digest = hashlib.sha256("\n".join(map(str, forms)).encode()).hexdigest()
    assert digest == "e7d6399de8a561e573eedc6027f3ff39a1d02f3834673cd5c1ae4695831bc686"
