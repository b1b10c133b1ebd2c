"""The full-ring route an `Ideal` took before it solved its linear
generators: one reduced basis of J itself, in weighted grevlex by the
ideal's `_free_weights` on every variable of the ring, read for the
dimension, the unit ideal, membership, the Hilbert-series numerators,
and the regular-sequence verdicts, by numerators and by colons.  The
tests pin the route through the image J' in fewer variables to it."""

import operator
from fractions import Fraction

from orbitvar.ideals import (
    Ideal,
    Poly,
    UnitIdealError,
    _Basis,
    _hilbert_numerator,
    _min_cover_size,
    _parse,
    _times_one_minus,
)


class FullRingIdeal:
    """An ideal with its basis in the full ring, as `Ideal` kept it."""

    def __init__(self, ring, polys, weights=None):
        self.ring, self.polys = ring, tuple(polys)
        self.ideal = Ideal(ring, self.polys)
        self.weights = weights or self.ideal._free_weights
        self.basis = _Basis(len(ring.variables), self.polys, self.weights)

    def extended(self, f) -> "FullRingIdeal":
        """ideal + (f), its basis computed afresh in its own weights."""
        return FullRingIdeal(self.ring, self.polys + ((f,) if f else ()))

    def dimension(self) -> int:
        lms, n = self.basis.lms, len(self.ring.variables)
        if not lms:
            return n
        if self.is_unit():
            raise UnitIdealError("the ideal is the whole ring")
        return n - _min_cover_size([frozenset(i for i, e in enumerate(lm) if e) for lm in lms])

    def is_unit(self) -> bool:
        return self.basis.is_unit()

    def contains(self, f) -> bool:
        return not self.basis.reduce(_parse(self.ring, f))

    def numerator(self, weights) -> dict:
        return _hilbert_numerator(self.basis.lms, weights)

    def colon(self, f) -> list:
        """Generators of (J : f), by the homogeneous colon of
        `ideals.ideal_quotient` from this basis."""
        r, n = self.ring, len(self.ring.variables)
        elems = [{m + (0,): c for m, c in g.items()} for _, g in self.basis.monic]
        elems.append({(0,) * n + (1,): Fraction(1), **{m + (0,): -c for m, c in f.items()}})
        homogenized = []
        for e in elems:
            d = max(sum(m) for m in e)
            homogenized.append({m[:n] + (d - sum(m), m[n]): c for m, c in e.items()})
        out, powers = [], [r.one]
        for _, p in _Basis(n + 2, homogenized, (1,) * (n + 2)).monic:
            shift = 1 if all(m[-1] > 0 for m in p) else 0
            by_power: dict = {}
            for m, c in p.items():
                by_power.setdefault(m[-1] - shift, {})[m[:n]] = c
            g = r.zero
            for e, part in by_power.items():
                while len(powers) <= e:
                    powers.append(powers[-1] * f)
                g += Poly(r, part) * powers[e]
            out.append(g)
        return out


def verdicts(ideal: FullRingIdeal, seq, route: str) -> list:
    """The verdict of each step of a regular-sequence check on the full
    ring: "unit", "zerodivisor" or "regular", decided by Hilbert-series
    numerators where J + (f) has a positive grading (route "numerator")
    or always by the colon (J : f) ⊆ J (route "colon")."""
    out, current = [], ideal
    for f in seq:
        f = _parse(ideal.ring, f)
        extended = current.extended(f)
        if extended.is_unit():
            return out + ["unit"]
        w = extended.ideal.grading
        if not f:
            regular = False
        elif route == "numerator" and w is not None:
            delta = sum(map(operator.mul, w, next(iter(f))))
            regular = extended.numerator(w) == _times_one_minus(current.numerator(w), delta)
        else:
            regular = all(current.contains(g) for g in current.colon(f))
        if not regular:
            return out + ["zerodivisor"]
        out.append("regular")
        current = extended
    return out
