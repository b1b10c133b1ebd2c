"""Byte pins for outputs the benchmark's golden digests do not cover:
the A3 `chart` and `nilcone` reports, which run the weighted-grevlex
bases and the Hilbert-series regular sequences at base point (3,4,5),
and the grevlex remainders on that chart, whose output depends on the
term order.  The digests were recorded before either route existed."""

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
