"""The benchmark's tracer (`perfbench/tracer.py`) wraps functions of the
package that it looks up by name.  Installing and restoring it here
makes a deleted or renamed name fail this suite, not only a traced
benchmark run (`perfbench/run.py --trace 1`)."""

import importlib.util
import os

import pytest

pytest.importorskip("sympy")  # the tracer wraps sympy.groebner as well

from orbitvar import linalg, orbit

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_name_it_looks_up():
    """`install` raises for a name that is gone; `orbit`'s imports of
    `rref` and `plucker_limit` are wrapped too, as the benchmark's own
    restore test requires; `restore` puts every original back."""
    before = {name: getattr(orbit, name) for name in ("rref", "plucker_limit")}
    assert before == {name: getattr(linalg, name) for name in before}
    tr = load_tracer().Tracer()
    try:
        tr.install()
        for name, fn in before.items():
            assert getattr(orbit, name) is not fn, name
    finally:
        tr.restore()
    assert {name: getattr(orbit, name) for name in before} == before
