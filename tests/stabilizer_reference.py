"""The bracket and rank routes that `orbit`'s support scans replaced, kept
as the references the tests pin them to: the boundary orbit dimension as
the rank of a residue matrix, which holds for any subspace, torus
stability as the bracket of every torus basis vector with every row,
the ideal test as the bracket of every basis vector with every row
(`group_fixed_points` reads it off the weights), the containment of
one subspace in another row by row, and the centralizer t + a_lam of a
torus element as a subspace (`property_P_checks` reads V's a-support
instead)."""

from orbitvar.linalg import Matrix, rank, reduce_mod_rowspace
from orbitvar.orbit import Subspace


def orbit_dim_by_rank(alg, v):
    """n - dim(N(V) cap a), N(V) = {y : [y, V] in V}: the stabilizer of V
    in a is the kernel of y -> ([y, row] mod V over the basis rows of V)
    on a, so the orbit dimension is the rank of that map.  Its matrix has
    one row per a-basis vector, the residues of its brackets side by side,
    each bracket summed from the vector's `ad_table` column; rows that are
    0 add no rank and are left out, so when V is all of r the matrix is
    empty and the rank is 0."""
    rows = []
    for op in alg.ad_table()[alg.t_dim :]:
        res = ()
        for row in v.basis.entries:
            br = [0] * alg.dim
            for j, c in enumerate(row):
                if c:
                    for i, a in op[j]:
                        br[i] += a * c
            res += reduce_mod_rowspace(br, v.basis, v.pivots)
        if any(res):
            rows.append(res)
    return rank(Matrix(len(rows), v.dim * alg.dim, tuple(rows)))


def graded_subset_by_brackets(alg, v):
    """The weights whose vectors V contains when [t_k, V] lies in V for
    every torus basis vector t_k, and None otherwise."""
    if not all(v.contains(alg.bracket(alg.basis_vector(k), row)) for k in range(alg.t_dim) for row in v.basis.entries):
        return None
    return tuple(i for i in range(alg.n) if v.contains(alg.weight_vector(i)))


def is_ideal(alg, v):
    """[e_k, V] lies in V for every basis vector e_k of r, each bracket
    taken with every basis row of V."""
    return all(v.contains(alg.bracket(alg.basis_vector(k), row)) for k in range(alg.dim) for row in v.basis.entries)


def contains_subspace(big, small):
    """Every basis row of `small` lies in `big`."""
    return all(big.contains(row) for row in small.basis.entries)


def centralizer_of(alg, lam):
    """t + a_lam, the centralizer of a torus element vanishing on exactly
    the weights lam: the torus basis vectors and the weight vectors of
    sorted(lam) are unit rows on increasing columns, handed to
    `Subspace` as its canonical basis, which it checks."""
    rows = tuple(alg.basis_vector(i) for i in range(alg.t_dim)) + tuple(alg.weight_vector(i) for i in sorted(lam))
    return Subspace(alg, Matrix(len(rows), alg.dim, rows))
