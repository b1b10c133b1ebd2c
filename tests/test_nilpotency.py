"""The nilpotency verdict of `WeightedLieAlgebra`: the walk over the
bracket table's support (`_nilpotent`, for tables whose every entry has
one term) against the lower central series by row spaces
(`_nilpotent_by_rows`), on drawn tables, non-nilpotent ones included,
and on the builtins, the four A4 variants, A5 and A6."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from test_property_p import BUILTINS, VARIANTS, borel_nilradical_a4
from test_weight_walks import borel_nilradical

from orbitvar import liealg, models
from orbitvar.liealg import WeightedLieAlgebra

COEFFS = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))


@st.composite
def tables(draw, max_terms=1):
    """An algebra on n <= 7 basis vectors whose table has an entry for a
    drawn set of pairs.  With `upper`, each entry's terms lie past both
    indices, so a is nilpotent; otherwise any index may appear, cycles
    such as [a_0, a_1] = a_0 among them.  The weights play no part."""
    n = draw(st.integers(0, 7))
    upper = draw(st.booleans())
    names = [f"a{i}" for i in range(n)]
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            targets = range(j + 1, n) if upper else range(n)
            if not targets or not draw(st.booleans()):
                continue
            ks = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=max_terms, unique=True))
            brackets.append((names[i], names[j], {names[k]: draw(COEFFS) for k in ks}))
    return WeightedLieAlgebra.build(1, names, {nm: [1] for nm in names}, brackets)


def no_row_reduction(monkeypatch):
    def refuse(*args):
        raise AssertionError("the support walk took a row reduction")

    monkeypatch.setattr(liealg, "row_space_basis", refuse)


@settings(max_examples=300)
@given(alg=tables())
def test_walk_matches_row_spaces_on_single_term_tables(alg):
    assert alg._nilpotent() == alg._nilpotent_by_rows()


@settings(max_examples=100)
@given(alg=tables(max_terms=3))
def test_verdict_matches_row_spaces_on_any_table(alg):
    assert alg._nilpotent() == alg._nilpotent_by_rows()


def test_cycles_are_not_nilpotent(monkeypatch):
    loop = WeightedLieAlgebra.build(1, ["x", "y"], {"x": [1], "y": [1]}, [("x", "y", {"x": 1})])
    chain = WeightedLieAlgebra.build(
        1, ["x", "y", "z"], {nm: [1] for nm in "xyz"}, [("x", "y", {"z": 2}), ("y", "z", {"y": -1})]
    )
    for alg in (loop, chain):
        assert not alg._nilpotent_by_rows()
        no_row_reduction(monkeypatch)
        assert not alg._nilpotent()
        assert ("nilpotency", False, "a is not nilpotent") in alg.validate()
        monkeypatch.undo()


def test_multi_term_table_takes_the_row_route():
    """C^2 is spanned by a_2 + a_3 and [a_0, a_2 + a_3] = a_2 + a_3, so a
    is not nilpotent, though no entry has a_3 as its first term: a walk
    over first terms would end at once."""
    alg = WeightedLieAlgebra.build(
        1,
        ["a0", "a1", "a2", "a3"],
        {f"a{i}": [1] for i in range(4)},
        [("a0", "a1", {"a2": 1, "a3": 1}), ("a0", "a3", {"a2": 1, "a3": 1})],
    )
    assert not alg._nilpotent_by_rows()
    assert not alg._nilpotent()


@pytest.mark.parametrize(
    "alg",
    [models.builtin(name) for name in BUILTINS]
    + [borel_nilradical_a4(v) for v in VARIANTS]
    + [borel_nilradical(5), borel_nilradical(6)],
    ids=[*BUILTINS, *(f"A4-v{v}" for v in VARIANTS), "A5", "A6"],
)
def test_nilpotent_without_row_reduction(alg, monkeypatch):
    assert alg._nilpotent_by_rows()
    no_row_reduction(monkeypatch)
    assert alg._nilpotent()
    assert ("nilpotency", True, "lower central series of a terminates") in alg.validate()
