"""Seeded inputs for the three workloads, with the ground truth each
operation is checked against.

Every workload is a list of `Op`s run in order by one client in a closed
loop.  `Op.call` is the timed call into the program; `Op.check` inspects
its result afterwards and returns `(ok, decided)`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from orbitvar import cli, ideals, models, orbit
from orbitvar.liealg import WeightedLieAlgebra

WORKLOADS = ("geometry", "charts", "queries")
VARIANTS = 4  # generated algebras come in this many presentations; seed % VARIANTS picks one
QUERIES_PER_SECOND = 15  # queries stream length per second of --seconds
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, bool]]
    needs: str | None = None  # input that must have passed validation first
    meta: dict = field(default_factory=dict)


# -- generated algebras -----------------------------------------------


def borel_nilradical_a4(variant: int) -> WeightedLieAlgebra:
    """Strictly upper triangular 5x5 matrices, [e_ij, e_jk] = e_ik, in a
    presentation (basis order) chosen by the variant."""
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


def heisenberg_central_extension(variant: int) -> WeightedLieAlgebra:
    """heisenberg-3 with one more torus direction that every weight
    kills, so the center has dimension 1; the variant picks which torus
    coordinate is central and the basis order."""
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


GENERATED = {
    "borel-nilradical-A4": (borel_nilradical_a4, ("validate", "boundary")),
    # `boundary` on this algebra is a recorded defect (an uncaught
    # PreconditionFailedError, exit 1) and is left out: no operation of
    # a workload may fail at the commit that defines the benchmark
    "heisenberg-3-central": (heisenberg_central_extension, ("validate", "fixed-points", "property-p")),
}
GEOMETRY_BUILTINS = ("sl2-borel", "borel-nilradical-A2", "heisenberg-3", "abelian:3", "borel-nilradical-A3")
GEOMETRY_COMMANDS = ("validate", "fixed-points", "boundary", "property-p")
CHART_BUILTINS = ("borel-nilradical-A2", "heisenberg-3", "abelian:3")
CHART_COMMANDS = ("chart", "nilcone", "ps-check")
# A3 chart base points run through the library: (weight subset, whether
# the regular-sequence checks run).  The regular sequences at (3, 4, 5)
# take ~30 s on their own and are left out to fit the run budget.
A3_CHART_POINTS = (((0, 3, 5), True), ((2, 4, 5), True), ((3, 4, 5), False))


# -- CLI operations and golden digests ----------------------------------


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def cli_op(key: str, argv: list[str], out_path: str, golden: dict, needs=None) -> Op:
    """One in-process CLI command, checked against its golden digest and
    exit code.  A crash propagates to the caller, which counts it as a
    failure: it is never read as exit status 1 ("refuted")."""
    argv = argv + ["--output", out_path]

    def call():
        if os.path.exists(out_path):
            os.remove(out_path)
        try:
            return cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            return e.code

    def check(code):
        want = golden.get(key)
        if want is None or code != want["exit"]:
            return False, False
        with open(out_path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest() == want["sha256"], True

    return Op(key, call, check, needs)


def cli_ops(workload: str, seed: int, out_dir: str, golden: dict) -> list[Op]:
    variant = seed % VARIANTS
    out = os.path.join(out_dir, "report.json")
    ops = []
    if workload == "geometry":
        for b in GEOMETRY_BUILTINS:
            for c in GEOMETRY_COMMANDS:
                ops.append(cli_op(f"{c} {b}", [c, "--builtin", b], out, golden))
        for name, (make, commands) in GENERATED.items():
            path = os.path.join(out_dir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(make(variant).to_json(), fh, sort_keys=True)
            for c in commands:
                needs = None if c == "validate" else name
                key = f"{c} {name} v{variant}"
                ops.append(cli_op(key, [c, "--input", path], out, golden, needs))
                ops[-1].meta["validates"] = name if c == "validate" else None
    elif workload == "charts":
        for b in CHART_BUILTINS:
            for c in CHART_COMMANDS:
                ops.append(cli_op(f"{c} {b}", [c, "--builtin", b], out, golden))
    return ops


# -- charts at the A3 base points, through the library -----------------


def a3_chart_op(alg: WeightedLieAlgebra, base: tuple[int, ...], regular: bool) -> Op:
    v0 = orbit.Subspace.from_rows(alg, [alg.weight_vector(i) for i in base])

    def call():
        chart = ideals.chart_ideal(alg, v0)
        dim = ideals.chart_dimension(chart)
        relation = ideals.verify_chart_relation(chart)
        sequences = []
        if regular:
            for gi in base:
                gamma = alg.weights[gi]
                idx = ideals.i_gamma(chart, gamma)
                if idx:
                    seq = [ideals.u_function(chart, i, gamma) for i in idx]
                    sequences.append(ideals.regular_sequence_check(chart.ideal, seq))
        return dim, relation, sequences

    def check(result):
        dim, relation, sequences = result
        ok = dim == alg.n and not relation.has_refutation()
        ok = ok and all(not s.has_refutation() for s in sequences)
        return ok, True

    label = "-".join(map(str, base))
    return Op(f"chart borel-nilradical-A3 @{label}" + ("" if regular else " (no sequences)"), call, check)


# -- the query stream ----------------------------------------------------

# (algebra, kind, share of the stream).  Every query's ground truth is
# known from how its input was made.  A3 queries cost 10-50x an A2 one,
# so they stay well under the 10% above p90 and the percentile stays
# among the cheap queries on every seed.
_SMALL_MIX = (
    ("member-orbit", 0.155),
    ("member-fixed", 0.07),
    ("member-random", 0.05),
    ("multipoint-generic", 0.05),
    ("multipoint-graded", 0.04),
    ("biggest-torus-orbit", 0.03),
    ("biggest-torus-graded", 0.03),
    ("pair-relation", 0.05),
)
QUERY_MIX = tuple(
    (alg, kind, share) for alg in ("borel-nilradical-A2", "heisenberg-3") for kind, share in _SMALL_MIX
) + (
    ("borel-nilradical-A3", "member-orbit", 0.02),
    ("borel-nilradical-A3", "member-fixed", 0.005),
    ("borel-nilradical-A3", "multipoint-generic", 0.01),
    ("borel-nilradical-A3", "multipoint-graded", 0.005),
    ("borel-nilradical-A3", "biggest-torus-orbit", 0.005),
    ("borel-nilradical-A3", "biggest-torus-graded", 0.005),
)


def query_counts(n: int) -> list[int]:
    """Split n queries over QUERY_MIX by largest remainder, so every
    seed runs the same number of queries of each kind."""
    raw = [share * n for _, _, share in QUERY_MIX]
    counts = [int(r) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))


def orbit_point(alg, rng: random.Random):
    """t moved by a random exp-word of length 1 to 3."""
    word = [(rng.randrange(alg.n), _small(rng)) for _ in range(rng.randint(1, 3))]
    return orbit.act(alg, word, orbit.torus_subspace(alg))


def fixed_point(alg, rng: random.Random):
    """z_S + a_S for a random independent weight subset S whose weight
    spaces commute: a torus-fixed point of the closure."""
    while True:
        subset = tuple(i for i in range(alg.n) if rng.random() < 0.5)
        ws = [alg.weights[i] for i in subset]
        if ws and alg.torus_kernel(ws).rows != alg.t_dim - len(ws):
            continue
        if any(any(alg.pair_bracket(i, j)) for i, j in itertools.combinations(subset, 2)):
            continue
        ker = alg.torus_kernel(ws)
        rows = [list(r) + [Fraction(0)] * alg.n for r in ker.entries]
        rows += [alg.weight_vector(i) for i in subset]
        return orbit.Subspace.from_rows(alg, rows)


def random_subspace(alg, rng: random.Random):
    while True:
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)] for _ in range(alg.t_dim)]
        v = orbit.Subspace.from_rows(alg, rows)
        if v.dim == alg.t_dim:
            return v


def points_of(v, rng: random.Random, k: int = 2):
    """k random integer combinations of the basis of v."""
    out = []
    for _ in range(k):
        coefs = [Fraction(rng.randint(-3, 3)) for _ in range(v.dim)]
        out.append(tuple(sum(c * row[j] for c, row in zip(coefs, v.basis.entries)) for j in range(v.basis.cols)))
    return out


def generic_points(alg, rng: random.Random):
    """Two points of an orbit point, the first of them regular: the
    call decides through the centralizer of a regular point."""
    while True:
        pts = points_of(orbit_point(alg, rng), rng)
        if alg.regular_test(pts[0]):
            return pts


def graded_points(alg, rng: random.Random):
    """Two points of a torus-fixed point, neither regular: the call takes
    its fallback route through the fixed-point enumeration."""
    while True:
        pts = points_of(fixed_point(alg, rng), rng)
        if not any(alg.regular_test(p) for p in pts):
            return pts


def _certificate_ok(alg, v, verdict) -> bool:
    """Re-verify a membership certificate independently of the verdict."""
    if verdict.kind == "orbit":
        return orbit.act(alg, list(verdict.params), orbit.torus_subspace(alg)) == v
    if verdict.kind == "limit":
        return verdict.witness.limit() == v
    return True


def query_op(alg, kind: str, rng: random.Random) -> Op:
    if kind in ("member-orbit", "member-fixed", "member-random"):
        v = {"member-orbit": orbit_point, "member-fixed": fixed_point, "member-random": random_subspace}[kind](alg, rng)

        def check(verdict):
            if not _certificate_ok(alg, v, verdict):
                return False, True
            if kind == "member-orbit":
                return verdict.kind == "orbit", verdict.kind != "unknown"
            if kind == "member-fixed":
                return verdict.certified, verdict.kind != "unknown"
            return True, verdict.kind != "unknown"

        return Op(kind, lambda: orbit.membership(alg, v), check, meta={"input": v.to_json()})
    if kind in ("multipoint-generic", "multipoint-graded"):
        pts = (generic_points if kind == "multipoint-generic" else graded_points)(alg, rng)

        def check(result):
            verdict, mp = result
            if verdict == "proven" and not all(mp.witness.contains(p) for p in pts):
                return False, True
            return verdict != "refuted", verdict != "unknown"

        return Op(kind, lambda: orbit.multipoint_membership(alg, pts), check, meta={"input": [list(map(str, p)) for p in pts]})
    if kind in ("biggest-torus-orbit", "biggest-torus-graded"):
        member = (orbit_point if kind == "biggest-torus-orbit" else fixed_point)(alg, rng)

        def check(lam):
            return all(0 <= i < alg.n for i in lam), True

        return Op(kind, lambda: orbit.biggest_torus(alg, member), check, meta={"input": member.to_json()})
    if kind == "pair-relation":
        alpha = alg.weights[rng.randrange(alg.n)]
        pseed = rng.randrange(1 << 30)

        def check(rep):
            c = rep.checks[-1]
            return c.verdict != "refuted" and not c.details["counterexamples"], c.verdict != "unknown"

        return Op(
            kind,
            lambda: orbit.verify_pair_relation(alg, alpha, samples=4, seed=pseed),
            check,
            meta={"input": [alpha.as_strings(), pseed]},
        )
    raise ValueError(f"unknown query kind {kind!r}")


def query_ops(seed: int, seconds: int) -> list[Op]:
    rng = random.Random(seed)
    algebras = {name: models.builtin(name) for name in {a for a, _, _ in QUERY_MIX}}
    plan = [
        (alg_name, kind)
        for (alg_name, kind, _), count in zip(QUERY_MIX, query_counts(QUERIES_PER_SECOND * seconds))
        for _ in range(count)
    ]
    rng.shuffle(plan)
    ops = []
    for alg_name, kind in plan:
        op = query_op(algebras[alg_name], kind, rng)
        op.key = f"{kind} {alg_name}"
        ops.append(op)
    return ops


def build(workload: str, seed: int, seconds: int, out_dir: str) -> list[Op]:
    """Every operation of one run, in the order the client sends them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "queries":
        return query_ops(seed, seconds)
    ops = cli_ops(workload, seed, out_dir, load_golden())
    if workload == "charts":
        a3 = models.builtin("borel-nilradical-A3")
        ops += [a3_chart_op(a3, base, regular) for base, regular in A3_CHART_POINTS]
    return interleave(ops, seed)


def interleave(ops: list[Op], seed: int) -> list[Op]:
    """A seeded order that spreads the short operations among the long
    ones, so the latency percentiles sample the whole run rather than its
    first seconds.  A generated input's `validate` still comes before
    every other command on that input."""
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    for i, op in enumerate(ops):
        if op.needs is not None:
            v = next(j for j, o in enumerate(ops) if o.meta.get("validates") == op.needs)
            if v > i:
                ops.insert(i, ops.pop(v))
    return ops
