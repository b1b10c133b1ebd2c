"""Command-line entry point: load an algebra, run verification
commands, emit a deterministic report.

Exit codes: 0 no refutation, 1 refutation found, 2 input error, a
weight-subset enumeration past `liealg.ENUMERATION_CAP` (no report is
written), or a `suite` stage that raised instead of reporting (the
report is still written).

`load_algebra` returns one shared instance per distinct algebra value
(`shared_algebra`), so every later command of the process on an equal
algebra, by `--builtin`, by `--input` or in `suite`, reads the memo
the earlier ones filled: the `validate` table, which the check before
every other command and the Jordan preconditions read, the center, the
adjoint table, the kernels and the fixed-point records, each with its
witness curve and limit.  A memoised value depends only on the
algebra's fields and is immutable, and a computation that raises is not
kept (`liealg.memoised`), so a report built from a shared
memo is byte-identical to one built from a fresh one.  Each witness
limit is still compared with its subspace once, before its record is
kept, as within one command.  The library is unchanged: `build`,
`from_json` and `models.builtin` return fresh instances with their own
memos.

The process also keeps the `ps-check` section of each P_s
(`ps_section`), which reads no algebra: every later `ps-check` and
`suite` report takes its checks from it, with `details` of its own.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import models, orbit
from . import report as rep
from .liealg import AlgebraError, EnumerationCapError, WeightedLieAlgebra

STAGE_PREFIX = "stage-"  # names the suite check recorded for a stage that raised
# Each cached algebra keeps its whole memo alive (about 53 MB of RSS for
# the A6 Borel nilradical after `fixed-points`), so the cache is bounded; 16
# holds every algebra that one benchmark run or one session of
# tests/test_cli_session.py loads (at most 12).
ALGEBRA_CACHE_SIZE = 16


class InputError(Exception):
    pass


@functools.lru_cache(maxsize=ALGEBRA_CACHE_SIZE)
def shared_algebra(alg: WeightedLieAlgebra) -> WeightedLieAlgebra:
    """The instance kept for alg's value, or alg itself, then kept, when
    no equal algebra is among the `ALGEBRA_CACHE_SIZE` values loaded
    most recently.  `==` and `hash` read the fields, not the memo."""
    return alg


@functools.cache
def ps_section(s: int) -> tuple[rep.Check, ...]:
    """The `ps-check` checks on the minor ideal P_s: its dimension, then
    `ideals.primality_crosscheck_P`'s checks.  Kept once per s for the
    process, and never handed out: each report takes copies
    (`cmd_ps_check`).  A computation that raises is not kept."""
    from . import ideals  # only the chart commands need the polynomial ring

    p = ideals.minor_ideal(s)
    dim = ideals.hilbert_dimension(p)
    checks = [
        rep.Check(
            f"dimension-P{s}",
            rep.PROVEN if dim == s + 1 else rep.REFUTED,
            "the minor ideal has dimension one more than its base",
            details={"s": s, "dimension": dim, "expected": s + 1},
        )
    ]
    for c in ideals.primality_crosscheck_P(s, p).checks:
        checks.append(dataclasses.replace(c, name=f"{c.name}-P{s}"))
    return tuple(checks)


def load_algebra(args) -> WeightedLieAlgebra:
    """The algebra named by --builtin or read from --input, as the
    process's shared instance of its value (`shared_algebra`)."""
    if args.builtin and args.input:
        raise InputError("give either --input or --builtin, not both")
    if args.builtin:
        try:
            return shared_algebra(models.builtin(args.builtin))
        except models.UnknownBuiltinError as e:
            raise InputError(str(e)) from e
    if args.input:
        try:
            with open(args.input) as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as e:  # bad JSON, bad UTF-8, an int past Python's digit limit, deep nesting
            raise InputError(f"cannot read algebra: {e}") from e
        try:
            return shared_algebra(WeightedLieAlgebra.from_json(data))
        except (AlgebraError, ZeroDivisionError) as e:
            raise InputError(f"cannot parse algebra: {e}") from e
    raise InputError("an algebra is required: --input PATH or --builtin NAME")


def cmd_validate(alg: WeightedLieAlgebra, seed: int) -> rep.VerificationReport:
    out = rep.VerificationReport("validate", alg.fingerprint(), seed=seed)
    for name, ok, detail in alg.validate():
        out.add(name, rep.PROVEN if ok else rep.REFUTED, detail)
    return out


def cmd_fixed_points(alg: WeightedLieAlgebra, seed: int) -> rep.VerificationReport:
    out = rep.VerificationReport("fixed-points", alg.fingerprint(), seed=seed)
    torus = orbit.torus_fixed_points(alg)
    group = orbit.group_fixed_points(alg)
    out.add(
        "torus-fixed",
        rep.PROVEN,
        "all torus-fixed points enumerated with verified witness limits",
        details={"count": len(torus), "records": [r.to_json("torus") for r in torus]},
    )
    out.add(
        "group-fixed",
        rep.PROVEN,
        "group-fixed points are the central-part-exact commutative ideals",
        details={"count": len(group), "records": [r.to_json("group") for r in group]},
    )
    return out


def cmd_boundary(alg: WeightedLieAlgebra, seed: int) -> rep.VerificationReport:
    out = rep.VerificationReport("boundary", alg.fingerprint(), seed=seed)
    comps = orbit.boundary_components(alg)
    ok = all(c.orbit_dim == alg.n - 1 for c in comps)
    out.add(
        "boundary-components",
        rep.PROVEN if ok else rep.REFUTED,
        "one boundary component per weight, each an orbit of dimension n-1",
        details={
            "count": len(comps),
            "components": [c.to_json(alg) for c in comps],
        },
    )
    return out


def cmd_property_p(alg: WeightedLieAlgebra, seed: int) -> rep.VerificationReport:
    """Property (P) consequences for every torus-fixed V = z_V + a_S and
    every complete weight set L containing S, with s a torus element whose
    vanishing weights are exactly L; what the checks read of s depends on
    L alone (`orbit.torus_element_data`), so no s is searched for.  V is
    torus-stable and V meets a in a_S, so `orbit.graded_subset` of V is S:
    the checks take S from the record.  Only verdict counts leave the
    loop: each pair's checks come from `orbit.property_P_checks`, with the
    data computed once per L, so no sub-report is built and no witness
    curve is rendered."""
    out = rep.VerificationReport("property-p", alg.fingerprint(), seed=seed)
    refuted = 0
    proven = 0
    checked = 0
    records = orbit.torus_fixed_points(alg)
    for lam in alg.complete_subsets():
        data = orbit.torus_element_data(alg, lam)
        inside = set(lam)
        for recd in records:
            if not inside.issuperset(recd.r_v_set):
                continue
            for c in orbit.property_P_checks(alg, data, recd.subspace, recd.r_v_set):
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


def cmd_chart(alg: WeightedLieAlgebra, seed: int) -> rep.VerificationReport:
    from . import ideals  # only the chart commands need the polynomial ring

    out = rep.VerificationReport("chart", alg.fingerprint(), seed=seed)
    for recd in orbit.group_fixed_points(alg):
        chart = ideals.chart_ideal(alg, recd.subspace)
        dim = ideals.chart_dimension(chart)
        label = "-".join(str(i) for i in recd.r_v_set)
        out.add(
            f"chart-dimension-{label}",
            rep.PROVEN if dim == alg.n else rep.REFUTED,
            "the chart cut out by the commutator relations has the orbit-closure dimension",
            details={"dimension": dim, "expected": alg.n},
        )
        if chart.m >= 1:
            sub = ideals.verify_chart_relation(chart)
            for c in sub.checks:
                out.add(f"{c.name}-{label}", c.verdict, c.claim, c.witness, c.details)
        # u-form regular sequences are checked for the base-point weights;
        # the coupling weight's own family degenerates on the minor relation
        for gi in recd.r_v_set:
            gamma = alg.weights[gi]
            idx = ideals.i_gamma(chart, gamma)
            if not idx:
                continue
            seq = [ideals.u_function(chart, i, gamma) for i in idx]
            sub = ideals.regular_sequence_check(chart.ideal, seq)
            verdict = rep.REFUTED if sub.has_refutation() else rep.PROVEN
            out.add(
                f"regular-sequence-{label}-w{gi}",
                verdict,
                "the torus linear forms attached to a weight form a regular sequence on the chart",
                details={"weight": gamma.as_strings(), "length": len(seq)},
            )
    return out


def cmd_nilcone(alg: WeightedLieAlgebra, seed: int) -> rep.VerificationReport:
    from . import ideals  # only the chart commands need the polynomial ring

    out = rep.VerificationReport("nilcone", alg.fingerprint(), seed=seed)
    for recd in orbit.group_fixed_points(alg):
        chart = ideals.chart_ideal(alg, recd.subspace)
        label = "-".join(str(i) for i in recd.r_v_set)
        dim = ideals.nilcone_dimension(chart)
        out.add(
            f"nilcone-dimension-{label}",
            rep.PROVEN if dim == alg.n else rep.REFUTED,
            "the fiberwise vanishing of all torus coordinate forms has dimension n",
            details={"dimension": dim, "expected": alg.n},
        )
        nil = ideals.nilpotent_locus_dimension(chart)
        bound = alg.n - alg.t_dim
        out.add(
            f"nilpotent-locus-{label}",
            rep.PROVEN if nil <= bound else rep.REFUTED,
            "chart points lying inside the nilpotent part form a locus of dimension at most n-d",
            details={"dimension": nil, "bound": bound},
        )
    return out


def cmd_ps_check(alg: WeightedLieAlgebra, seed: int) -> rep.VerificationReport:
    """P_s has dimension s + 1 and is prime, for s = 2, 3, 4.  No check
    reads the algebra, whose fingerprint only heads the report, so each
    P_s section is computed once per process (`ps_section`) and sharing
    it is exact: every report gets copies of the same checks, each with
    a `details` dict of its own."""
    out = rep.VerificationReport("ps-check", alg.fingerprint(), seed=seed)
    for s in (2, 3, 4):
        for c in ps_section(s):
            out.checks.append(dataclasses.replace(c, details=None if c.details is None else dict(c.details)))
    return out


def cmd_suite(alg: WeightedLieAlgebra, seed: int) -> rep.VerificationReport:
    """Every other command of `RUNNERS`, in its order, as one report."""
    out = rep.VerificationReport("suite", alg.fingerprint(), seed=seed)
    for fn in RUNNERS.values():
        if fn is cmd_suite:
            continue
        try:
            sub = fn(alg, seed)
        except Exception as e:  # propagate module errors as report entries
            out.add(
                fn.__name__.replace("cmd_", STAGE_PREFIX),
                rep.UNKNOWN,
                "stage raised instead of reporting",
                details={"error": f"{type(e).__name__}: {e}"},
            )
            continue
        for c in sub.checks:
            out.add(f"{sub.command}/{c.name}", c.verdict, c.claim, c.witness, c.details)
    return out


RUNNERS = {
    "validate": cmd_validate,
    "fixed-points": cmd_fixed_points,
    "boundary": cmd_boundary,
    "property-p": cmd_property_p,
    "chart": cmd_chart,
    "nilcone": cmd_nilcone,
    "ps-check": cmd_ps_check,
    "suite": cmd_suite,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves it
    unchanged, so one serves every `main` call of a process."""
    parser = argparse.ArgumentParser(
        prog="orbitvar",
        description="exact verification toolkit for torus-orbit closures in the Grassmannian",
    )
    parser.add_argument("command", choices=tuple(RUNNERS))
    parser.add_argument("--input", help="path to an algebra JSON file")
    parser.add_argument(
        "--builtin", help="builtin algebra name: " + ", ".join(models.BUILTIN_NAMES)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "markdown"), default="json")
    parser.add_argument("--output", help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        alg = load_algebra(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.command not in ("ps-check", "validate") and not alg.is_valid():
        print("error: algebra fails validation; run the validate command", file=sys.stderr)
        return 2

    try:
        report = RUNNERS[args.command](alg, args.seed)
    except EnumerationCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = report.render_json() if args.format == "json" else report.render_markdown()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if any(c.name.startswith(STAGE_PREFIX) for c in report.checks):
        return 2
    return 1 if report.has_refutation() else 0


if __name__ == "__main__":
    raise SystemExit(main())
