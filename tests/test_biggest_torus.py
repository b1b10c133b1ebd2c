"""`orbit.biggest_torus` reads L off the torus parts of the semisimple
parts directly; the route it replaced row-reduced their span, projected
the canonical rows to t and row-reduced again.  Both routes are pinned
to agree, errors included, on the inputs of the `queries` workload and
on drawn subspaces of drawn algebras."""

import importlib.util
import os
import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from test_certify_first import ALGEBRAS, INPUTS
from test_memo import outcome

from orbitvar import models, orbit
from orbitvar.liealg import NotClosedUnderJordanError
from orbitvar.linalg import Matrix, row_space_basis

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_biggest_torus(alg, v):
    """The two-reduction route: the canonical basis of the semisimple
    span, its rows cut to the torus and reduced again, and the weights
    vanishing on every reduced row."""
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
    span = row_space_basis(Matrix.from_rows(s_parts))
    proj = (
        row_space_basis(Matrix.from_rows([list(span.row(r))[: alg.t_dim] for r in range(span.rows)]))
        if span.rows
        else Matrix(0, alg.t_dim, ())
    )
    lam = tuple(i for i, w in enumerate(alg.weights) if all(w(proj.row(r)) == 0 for r in range(proj.rows)))
    if alg.kernel(lam).rows != span.rows:
        raise orbit.OrbitError("semisimple span does not match a torus kernel dimension")
    return lam


def load_workloads(monkeypatch):
    """`perfbench/workloads.py`, which imports only the package, loaded
    without touching `sys.path`; its `sys.modules` entry, which its
    dataclasses need, is taken out after the test."""
    spec = importlib.util.spec_from_file_location("bench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_queries_inputs(monkeypatch):
    """The `queries` workload's two generators, orbit points and
    fixed points, 150 draws each on each of its three algebras: L
    ranges from () (a generic orbit point) to every weight."""
    workloads = load_workloads(monkeypatch)
    seen = set()
    for name in ("borel-nilradical-A2", "heisenberg-3", "borel-nilradical-A3"):
        alg = models.builtin(name)
        rng = random.Random(name)
        for make in (workloads.orbit_point, workloads.fixed_point):
            for _ in range(150):
                v = make(alg, rng)
                got = outcome(orbit.biggest_torus, alg, v)
                assert got == outcome(reference_biggest_torus, alg, v), (name, v.basis.entries)
                seen.add(got[1])
    assert {(), (0, 1, 2, 3, 4, 5)} <= seen and len(seen) >= 10


@settings(max_examples=200)
@given(ALGEBRAS, st.data())
def test_drawn_subspaces(alg, data):
    v = data.draw(st.sampled_from(INPUTS))(data, alg)
    assert outcome(orbit.biggest_torus, alg, v) == outcome(reference_biggest_torus, alg, v)
