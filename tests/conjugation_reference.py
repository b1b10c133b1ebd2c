"""The Jordan conjugation as it was before it walked `factor_order` in
one pass, kept as the reference that `tests/test_one_pass_conjugation.py`
pins the one pass to: passes over `weight_order`, each clearing every
coordinate of the current vector whose weight does not vanish at the
torus part, repeated until a pass finds nothing to clear, and at most
n + 1 of them.  `jordan_decompose` and `orbit._conjugated_centralizer`
are kept here on top of it, as they read it."""

from orbitvar.linalg import Matrix, exact_div, lowered
from orbitvar.liealg import AlgebraError
from orbitvar.orbit import Subspace, torus_subspace


def multipass_conjugation(alg, x, lam):
    """(v, word) with v = g x = x_t + n_0 and g the product of the word's
    factors (k, z), in the order they are applied; or None when n + 1
    passes leave a coordinate to clear."""
    d = alg.t_dim
    order = [k for k in alg.weight_order() if lam[k]]
    v = tuple(x)
    word = []
    for _ in range(alg.n + 1):
        cleared = False
        for k in order:
            c = v[d + k]
            if c:
                z = exact_div(c, lam[k])
                (v,) = alg._word_rows(((k, z),), (v,))
                word.append((k, z))
                cleared = True
        if not cleared:
            return v, tuple(word)
    return None


def multipass_jordan(alg, x):
    """`jordan_decompose` on the multi-pass conjugation: s is the inverse
    word applied to x_t, n = x - s."""
    if len(x) != alg.dim:
        raise alg._length_error(x)
    alg.check_jordan_preconditions()
    d = alg.t_dim
    xt = alg.torus_part(x)
    if not any(x[d:]) or not any(xt):
        s = xt + (0,) * alg.n
        return s, lowered([a - b for a, b in zip(x, s)])
    conjugated = multipass_conjugation(alg, x, [w(xt) for w in alg.weights])
    if conjugated is None:
        raise AlgebraError(f"jordan conjugation did not settle in {alg.n + 1} passes")
    inverse = tuple((k, -z) for k, z in conjugated[1])
    (s,) = alg._word_rows(inverse, (xt + (0,) * alg.n,))
    n = lowered([a - b for a, b in zip(x, s)])
    if any(c != 0 for c in alg.bracket(s, n)):
        raise AlgebraError("jordan parts fail to commute")
    return s, n


def multipass_centralizer(alg, p, lam):
    """`orbit._conjugated_centralizer` on the multi-pass conjugation: the
    inverse word applied to t's basis rows, or None when the passes do
    not settle."""
    conjugated = multipass_conjugation(alg, p, lam)
    if conjugated is None:
        return None
    inverse = tuple((k, -z) for k, z in conjugated[1])
    rows = alg._word_rows(inverse, torus_subspace(alg).basis.entries)
    return Subspace(alg, Matrix(alg.t_dim, alg.dim, tuple(rows)))
