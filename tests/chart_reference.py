"""The chart path before it worked term by term: `chart_ideal`'s
generators from `Poly` products of the graph basis's linear forms, and
`_solve` substituting each solved variable into every remaining
generator and value.  The tests pin the term-by-term assembly and the
support-tracking solve to these, term order included, because
`ideals._solvable` picks the variable to solve from that order.  Also
here: the minor ideal P_s with its variants P'_s and P''_s, which no
command needs."""

import operator

from orbitvar import orbit
from orbitvar.ideals import (
    Ideal,
    IdealError,
    NotGroupFixedError,
    Poly,
    PolyRing,
    _lie_order_complement,
    _minor,
    _solvable,
    minor_ideal,
)
from linalg_reference import solve

from orbitvar.linalg import Matrix, exact_div


def chart_generators(alg, v0) -> tuple[PolyRing, list, list]:
    """The chart ideal's ring, generators and dual torus basis (one
    `solve` per dual vector) at the group-fixed base point v0, the
    generators from `Poly` products, with `chart_ideal`'s refusals."""
    base = next(r for r in orbit.group_fixed_points(alg) if r.subspace == v0).r_v_set
    d = alg.t_dim
    if len(base) != d:
        raise NotGroupFixedError("base-point weights do not form a torus basis")
    comp = _lie_order_complement(alg, base)
    m = len(comp)
    wmat = Matrix.from_rows([list(alg.weights[i].coords) for i in base])
    duals = [solve(wmat, [int(k == j) for k in range(d)]) for j in range(d)]
    if None in duals:
        raise NotGroupFixedError("base-point weights do not form a torus basis")
    names = tuple(f"z{i}_{j}" for i in range(1, d + 1) for j in range(1, d + 1)) + tuple(
        f"a{i}_{j}" for i in range(1, d + 1) for j in range(1, m + 1)
    )
    r = PolyRing(names)
    rows = []
    for i in range(d):
        row = {d + base[i]: r.one}
        for k in range(d):
            row[k] = sum((r.gens[i * d + j] * duals[j][k] for j in range(d) if duals[j][k]), r.zero)
        for j in range(m):
            row[d + comp[j]] = r.gens[d * d + i * m + j]
        rows.append({k: v for k, v in row.items() if v})
    table = alg.ad_table()
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            br: dict = {}
            for e, x in rows[i].items():
                for f, y in rows[j].items():
                    if table[e][f]:
                        xy = x * y
                        for k, c in table[e][f]:
                            br[k] = br.get(k, r.zero) + xy * c
            gens += [br[k] for k in sorted(br) if br[k]]
    if any((0,) * len(names) in g for g in gens):
        raise IdealError("chart generators do not vanish at the base point")
    return r, gens, duals


def _substitute(p: Poly, x: int, value: Poly) -> Poly:
    if not any(m[x] for m in p):
        return p
    out: dict = {}
    powers = {1: value}
    for m, c in p.items():
        e = m[x]
        if not e:
            out[m] = out.get(m, 0) + c
            continue
        if e not in powers:
            powers[e] = value**e
        others = m[:x] + (0,) + m[x + 1 :]
        for k, v in powers[e].items():
            k = tuple(map(operator.add, k, others))
            out[k] = out.get(k, 0) + c * v
    return Poly(p.ring, {k: v for k, v in out.items() if v})


def solve_linear(ring: PolyRing, polys) -> tuple:
    """(kept, images, rest) as `ideals._solve` found them, every value
    substituted into every remaining generator and value."""
    n = len(ring.variables)
    rest = [(g, _solvable(g)) for g in polys]
    images: dict = {}
    while (k := next((k for k, (_, x) in enumerate(rest) if x is not None), None)) is not None:
        g, x = rest.pop(k)
        unit = ring.gens[x]
        (e,) = unit
        value = unit - g * exact_div(1, g[e])
        images = {y: _substitute(v, x, value) for y, v in images.items()}
        images[x] = value
        changed = ((_substitute(p, x, value), p, y) for p, y in rest)
        rest = [(q, y if q is p else _solvable(q)) for q, p, y in changed if q]
    kept = tuple(i for i in range(n) if i not in images)
    image_ring = PolyRing(tuple(ring.variables[i] for i in kept))

    def restrict(p: Poly) -> Poly:
        return Poly(image_ring, {tuple(m[i] for i in kept): c for m, c in p.items()})

    return kept, {x: restrict(v) for x, v in sorted(images.items())}, tuple(restrict(g) for g, _ in rest)


def determinantal_P(s: int) -> tuple[Ideal, Ideal, Ideal]:
    """The 2x2-minor ideal P_s (`minor_ideal`), together with the
    one-column variant P'_s and the recursive variant P''_s, in its
    ring."""
    p = minor_ideal(s)
    p_prime = Ideal.make(p.ring, [_minor(p.ring, s, j, 0) for j in range(1, s)])
    rec = [_minor(p.ring, s, j, k) for j in range(s - 1) for k in range(j + 1, s - 1)]
    p_dbl = Ideal.make(p.ring, rec + ([_minor(p.ring, s, s - 1, 0)] if s >= 2 else []))
    return p, p_prime, p_dbl
