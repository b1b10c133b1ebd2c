"""Span tracer installed from outside the package.

Wraps the public functions of each layer (`linalg`, `liealg`, `orbit`,
`ideals`, `report`, `cli`) so every call records a span: name, start,
end, parent span and operation id.  Spans stay in memory until the run
ends.  `restore()` puts every original function back, so an untraced
run never sees a wrapper.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

BENCH = "bench"  # layer name of the benchmark's own operation spans


class Tracer:
    def __init__(self):
        # one tuple per span: (name, start, end, parent index or -1, op id)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_fixed: set = set()
        self._seen_groebner: set = set()

    # -- recording ----------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id: int, fn):
        """Run one benchmark operation under a root span of its own."""
        self.op = op_id
        try:
            return self.wrap(f"{BENCH}.op", fn)()
        finally:
            self.op = -1

    # -- installing ---------------------------------------------------

    def _patch(self, owner, attr: str, name: str, observe=None):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def _patch_function(self, modules, home, attr: str, name: str, observe=None):
        """Patch `home.attr` and every `from home import attr` binding."""
        fn = getattr(home, attr)
        for mod in modules:
            if mod.__dict__.get(attr) is fn:
                self._patch(mod, attr, name, observe)

    def install(self):
        import sympy

        from orbitvar import cli, ideals, liealg, linalg, orbit, report

        mods = (linalg, liealg, orbit, ideals, report, cli)
        for fn in ("det", "plucker_limit", "exp_nilpotent", "rref"):
            self._patch_function(mods, linalg, fn, f"linalg.{fn}")
        self._patch(linalg.Matrix, "__matmul__", "linalg.matmul")

        alg = liealg.WeightedLieAlgebra
        for meth in ("bracket", "ad", "center", "jordan_decompose", "validate"):
            self._patch(alg, meth, f"liealg.{meth}")

        self._patch_function(mods, orbit, "torus_fixed_points", "orbit.torus_fixed_points",
                             self._observe_fixed_points)
        for fn in ("act", "multipoint_membership", "biggest_torus"):
            self._patch_function(mods, orbit, fn, f"orbit.{fn}")
        self._patch_function(mods, orbit, "membership", "orbit.membership", self._observe_membership)
        self._patch_function(mods, orbit, "verify_pair_relation", "orbit.verify_pair_relation",
                             self._observe_pair_relation)
        self._patch(orbit.CurveSubspace, "limit", "orbit.curve_limit")

        self._patch(ideals.Ideal, "groebner", "ideals.Ideal.groebner")
        self._patch(ideals.Ideal, "normal_form", "ideals.normal_form")
        for fn in ("hilbert_dimension", "eliminate", "ideal_quotient", "chart_ideal"):
            self._patch_function(mods, ideals, fn, f"ideals.{fn}")
        # the Buchberger kernel, reached from Ideal.groebner and eliminate
        self._patch(sympy, "groebner", "ideals.groebner", self._observe_groebner)

        for meth in ("render_json", "render_markdown"):
            self._patch(report.VerificationReport, meth, "report.render", self._observe_render)
        self._patch_function(mods, cli, "main", "cli.main")

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- waste counters -------------------------------------------------

    def _observe_fixed_points(self, args, kwargs, result):
        key = args[0].fingerprint()
        self.counts["orbit.torus_fixed_points.repeat"] += key in self._seen_fixed
        self._seen_fixed.add(key)

    def _observe_groebner(self, args, kwargs, result):
        gens, syms = args[0], args[1:]
        key = (tuple(map(str, syms)), kwargs.get("order"), tuple(sorted(map(str, gens))))
        self.counts["ideals.groebner.repeat"] += key in self._seen_groebner
        self._seen_groebner.add(key)

    def _observe_membership(self, args, kwargs, result):
        self.counts["orbit.membership.certified"] += result.certified

    def _observe_pair_relation(self, args, kwargs, result):
        details = result.checks[-1].details
        self.counts["orbit.pair_relation.decided"] += details["samples"]
        self.counts["orbit.pair_relation.skipped"] += details["skipped"]

    def _observe_render(self, args, kwargs, result):
        self.counts["report.bytes"] += len(result.encode())

    # -- output ---------------------------------------------------------

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration less the part its child spans cover.
    Spans nest strictly: the program is single-threaded."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, counts) -> dict:
    """Per-name call counts and inclusive seconds, per-layer self seconds,
    and the waste counters with their bases."""
    calls: Counter = Counter()
    incl: dict = defaultdict(float)
    layer_self: dict = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
    # inclusive time counts only outermost spans of a name, so a
    # recursive or re-entrant call is not counted twice
    for name, start, end, parent, _ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += end - start
    return {"calls": dict(calls), "s": dict(incl), "self_s": dict(layer_self), "counts": dict(counts)}
