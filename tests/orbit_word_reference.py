"""The orbit certificate and the commutativity test as they were before
`membership` built its word forward from t and `commuting` summed one
output coordinate at a time, kept as references:

- `peel_orbit` strips V's rows down to t, one weight per factor, lowest
  height first, and returns the inverse word;
- `peel_membership` is `membership` with that word re-applied to t's
  rows and compared with V's rows;
- `pairwise_commuting` sums each bracket from `ad_table` over the pair's
  nonzero coordinates into a dense vector and tests it whole."""

from orbitvar import orbit
from orbitvar.linalg import exact_div
from orbitvar.orbit import DimensionMismatchError, MembershipVerdict


def peel_orbit(alg, v):
    """For a torus-graph V, whose canonical rows are e_i + phi(e_i):
    strip one weight component per exponential factor, lowest height
    first (`weight_order`).  Each factor leaves the torus part e_i of
    row i, so the weight values on the rows are the coordinates of the
    weight.  Returns the word or None; each z is one `exact_div`.

    The coefficients c_i must be z w(e_i): with f the first row where
    w(e_f) is nonzero, z = c_f / w(e_f), and c_i = z w(e_i) is
    c_i w(e_f) = c_f w(e_i), compared in integers through numerators and
    denominators, which also asks c_i = 0 where w(e_i) is 0."""
    d = alg.t_dim
    rows = v.basis.entries
    weights = alg.weights
    applied = []
    for k in alg.weight_order():
        col = d + k
        wvals = weights[k].coords
        first = None
        for row, wv in zip(rows, wvals):
            if wv:
                first = row[col], wv
                break
        if first is None:
            if any(row[col] for row in rows):
                return None
            continue
        cf, wf = first
        if not cf:
            if any(row[col] for row in rows):
                return None
            continue
        fn, fd = cf.numerator, cf.denominator * wf
        for row, wv in zip(rows, wvals):
            c = row[col]
            if c.numerator * fd != fn * wv * c.denominator if wv else c:
                return None
        zc = exact_div(cf, wf)
        # E(z) t = t - z w(t) x, so E(zc) clears the column and the
        # inverse factor E(-zc) belongs to the certificate word
        rows = alg._word_rows(((k, zc),), rows)
        applied.append((k, -zc))
    if any(any(row[d:]) for row in rows):
        return None
    # exp(-z_m)...exp(-z_1) V = t, so V = exp(z_1)...exp(z_m) t
    return applied


def peel_membership(alg, v):
    """`membership` with the peeled word re-applied to t's basis rows and
    the image rows compared with V's canonical rows."""
    orbit._own(alg, v)
    if v.dim != alg.t_dim:
        raise DimensionMismatchError(f"dim {v.dim} != {alg.t_dim}")
    if not pairwise_commuting(alg, v.basis.entries):
        return MembershipVerdict("refuted", reason="not a commutative subalgebra")
    if v.dim and alg.center().rows == 0:
        alg.check_jordan_preconditions()
    if v.pivots == tuple(range(alg.t_dim)):
        params = peel_orbit(alg, v)
        if params is not None and tuple(alg._word_rows(params, orbit.torus_subspace(alg).basis.entries)) == v.basis.entries:
            return MembershipVerdict("orbit", params=tuple(params))
        unknown = "torus-graph subspace without orbit certificate"
    else:
        graded = orbit.graded_subset(alg, v)
        recd = orbit.fixed_point_of(alg, v, graded)
        if recd is not None:
            return MembershipVerdict("limit", witness=recd.witness)
        unknown = "no certificate route applies" if graded is None else "graded but not of fixed-point shape"
    reason = orbit._refutation(alg, v)
    return MembershipVerdict("refuted" if reason else "unknown", reason=reason or unknown)


def pairwise_commuting(alg, vectors):
    """True when every two of the vectors commute, each bracket summed
    from `ad_table` over the nonzero coordinates of the pair into a
    dense vector that is then tested whole."""
    table = alg.ad_table()
    dim = len(table)
    supports = []
    for v in vectors:
        if len(v) != dim:
            raise alg._length_error(v)
        supports.append([(j, c) for j, c in enumerate(v) if c])
    for a, xs in enumerate(supports):
        for ys in supports[a + 1 :]:
            out = [0] * dim
            for i, c in xs:
                op = table[i]
                for j, e in ys:
                    col = op[j]
                    if col:
                        ce = c * e
                        for k, f in col:
                            out[k] += ce * f
            if any(out):
                return False
    return True
