"""The witness curve and its limit of any weight subset, each kept in the
algebra's memo under a key of its own, as `orbit` once kept them beside
its fixed-point records.  `orbit.fixed_point_record` now builds the
curve itself, from the curve of its longest kept prefix, and keeps the
limit in the record; these are the reference its rows and limits are
checked against, and they also answer for weight subsets that are not
records.

`witness_curve` grows the curve of S from the memoised curve of S less
its largest index (`memoised(grown=True)` fills the missing prefixes
first), so it keeps a curve for every prefix of every subset it is
asked for.  Its keys are owned by this module, not by `orbitvar`.
`property_P_checks` is `orbit.property_P_checks` as it read them."""

from typing import Sequence

from orbitvar import report as rep
from orbitvar.liealg import WeightedLieAlgebra, memoised
from orbitvar.orbit import CurveSubspace, PreconditionFailedError, Subspace, _exp_row, _own


@memoised("witness-curve", grown=True)
def witness_curve(alg: WeightedLieAlgebra, subset: Sequence[int]) -> CurveSubspace:
    """exp(z ad x_i) ... exp(z ad x_j) t over a commuting `subset`: the
    curve of S is exp(z ad x_j), j = max(S), applied row by row
    (`_exp_row`) to the memoised curve of S - {j}."""
    if not subset:
        return CurveSubspace(alg, tuple((alg.basis_vector(i),) for i in range(alg.t_dim)))
    j = subset[-1]
    return CurveSubspace(alg, tuple(tuple(_exp_row(alg, j, row)) for row in witness_curve(alg, subset[:-1]).rows))


@memoised("witness-limit", subset=True)
def witness_limit(alg: WeightedLieAlgebra, subset: Sequence[int]) -> Subspace:
    """The limit of `witness_curve(alg, subset)` at infinity; a limit that
    raises (`RankDeficientError`) is not kept."""
    return witness_curve(alg, subset).limit()


def property_P_checks(alg: WeightedLieAlgebra, data, v: Subspace, graded) -> list:
    """`orbit.property_P_checks` as it read these families: a graded V
    whose weight set lam holds is witnessed by `witness_curve(alg,
    graded)` whenever `witness_limit(alg, graded)` is V, whether or not
    the graded set indexes a fixed-point record."""
    _own(alg, v)
    _own(alg, data)
    lam = set(data.lam)
    d = alg.t_dim
    if any(c and k not in lam for row in v.basis.entries for k, c in enumerate(row[d:])):
        raise PreconditionFailedError("V is not inside the centralizer of s")
    ok = all(v.contains(r) for r in data.center)
    checks = [
        rep.Check(
            "center-containment",
            rep.PROVEN if ok else rep.REFUTED,
            "the center of the centralizer of s lies inside V",
            details={"lambda": [list(w) for w in data.lam_strings]},
        )
    ]
    if not ok:
        return checks
    if graded is not None and set(graded) <= lam and witness_limit(alg, graded) == v:
        checks.append(
            rep.Check(
                "witness-curve",
                rep.PROVEN,
                "a curve inside the centralizer of s degenerates to V",
                witness=witness_curve(alg, graded),
            )
        )
    else:
        checks.append(
            rep.Check("witness-curve", rep.CONSEQUENCE_CHECKED, "no constructive witness; necessary conditions hold")
        )
    return checks
