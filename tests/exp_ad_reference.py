"""exp(ad u) of a vector for any u, by brackets, and the sum of its
terms: the general-u route the Jordan conjugation took before it peeled
single weights, and that built the exp(ad) chains before they were
summed from the adjoint table.  Kept as references for the tests."""

from typing import Sequence

from orbitvar.liealg import AlgebraError
from orbitvar.linalg import exact_div, lowered


def exp_ad_terms(alg, u: Sequence, v: Sequence) -> tuple[tuple, ...]:
    """The terms (ad u)^k v / k! of exp(ad u) v, from k = 0 up to the
    last nonzero one.  ad u is nilpotent for u in a on an algebra that
    passes `validate`, so at most dim terms are nonzero; a chain that
    has not ended by then raises `AlgebraError`.  Each 1/k is an
    `exact_div`."""
    terms = [tuple(v)]
    for k in range(1, alg.dim + 1):
        term = alg.bracket(u, terms[-1])
        if not any(term):
            return tuple(terms)
        terms.append(tuple(exact_div(c, k) if c else c for c in term))
    raise AlgebraError(f"exp(ad u) did not end within {alg.dim} terms")


def vector_sum(vectors: Sequence[tuple]) -> tuple:
    """Coordinatewise sum of equally long vectors, adding only the nonzero
    entries."""
    out = [0] * len(vectors[0])
    for v in vectors:
        for j, c in enumerate(v):
            if c:
                out[j] += c
    return lowered(out)
