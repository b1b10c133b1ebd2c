"""The polynomial text reader of `ideals` (`_read`, reached through
`_parse`) against sympy: on drawn texts it gives
`sympy.expand(sympy.sympify(text, rational=True))`, a decimal exactly
as written, unless a product or power in the text passes the reader's
budget, which it refuses with `ScaleExceededError`.  What it does not
read (a call, `^`, a foreign name, a float, a sympy expression) raises
`IdealError` at every entry point."""

import ast
import math
import time
from fractions import Fraction

import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitvar import ideals
from orbitvar.ideals import Ideal, IdealError, PolyRing, ScaleExceededError, _parse
from orbitvar.linalg import bounded_fraction
from sympy_reference import from_sympy
from test_groebner import ENTRY_POINTS

RING = PolyRing(("x", "y", "z"))


@st.composite
def decimals(draw) -> str:
    """Decimal literals: digits on either side of the point, or on both,
    with or without an exponent."""
    whole = draw(st.sampled_from(("", "0", "1", "3", "12", "250")))
    frac = draw(st.sampled_from(("", "5", "25", "125", "07", "1")))
    text = f"{whole or '1'}.{frac}" if not frac else f"{whole}.{frac}"
    return text + draw(st.sampled_from(("", "", "e-2", "e1", "E+2", "e0")))


NONZERO = st.one_of(
    st.integers(1, 9).map(str),
    st.builds(lambda p, q: f"({p}/{q})", st.integers(1, 9), st.integers(1, 9)),
    decimals().filter(lambda t: Fraction(t) != 0),
)
LEAVES = st.one_of(
    st.sampled_from(RING.variables),
    st.integers(0, 30).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 20), st.integers(1, 9)),
    decimals(),
)


def grow(inner):
    """Sums, differences, products, signs, quotients by nonzero constants
    and powers 0-3, parenthesised or not."""
    wrap = st.sampled_from(("({})", "{}"))
    return st.one_of(
        st.builds(lambda a, op, b, w: w.format(f"{a} {op} {b}"), inner, st.sampled_from("+-*"), inner, wrap),
        st.builds(lambda a, s: f"{s}({a})", inner, st.sampled_from("+-")),
        st.builds(lambda a, c: f"({a})/{c}", inner, NONZERO),
        st.builds(lambda a, k, w: f"{w.format(a)}**{k}", inner, st.integers(0, 3), wrap),
    )


TEXTS = st.recursive(LEAVES, grow, max_leaves=8)


def past_the_budget(text: str) -> bool:
    """Whether reading text forms a product or a power past the reader's
    budget, found by sympy on the same syntax tree, each operand read
    before the operation: a product a*b with len(a)·len(b) past
    `_READ_WORK`; a power a**k, a of t >= 2 terms, with C(k + t - 1, t - 1)
    squared past it; or a power with k·(⌈log2 S⌉ + ⌈log2 L⌉) past
    `_READ_BITS`, L the lcm of a's denominators and S the sum of |c|·L
    over a's coefficients c."""

    def value(node):
        return sympy.sympify(ast.get_source_segment(text, node), rational=True)

    def ceil_log2(v: int) -> int:
        return (v - 1).bit_length() if v > 1 else 0

    def past(node) -> bool:
        if any(past(child) for child in ast.iter_child_nodes(node)):
            return True
        if not isinstance(node, ast.BinOp) or type(node.op) not in (ast.Mult, ast.Pow):
            return False
        a = from_sympy(RING, value(node.left))
        if type(node.op) is ast.Mult:
            return len(a) * len(from_sympy(RING, value(node.right))) > ideals._READ_WORK
        k, t = int(value(node.right)), len(a)
        if t >= 2 and (k >= ideals._READ_WORK or math.comb(k + t - 1, t - 1) ** 2 > ideals._READ_WORK):
            return True
        den = math.lcm(*(c.denominator for c in a.values()))
        size = sum(abs(c.numerator) * (den // c.denominator) for c in a.values())
        return k * (ceil_log2(size) + ceil_log2(den)) > ideals._READ_BITS

    return past(ast.parse(text.strip(), mode="eval"))


@settings(max_examples=300)
@given(TEXTS)
def test_reader_matches_sympy_on_drawn_texts(text):
    if past_the_budget(text):
        with pytest.raises(ScaleExceededError):
            _parse(RING, text)
    else:
        assert _parse(RING, text) == from_sympy(RING, sympy.expand(sympy.sympify(text, rational=True)))


def test_a_product_or_power_past_the_budget_is_refused_before_it_is_formed():
    """A power tower such as `3/3**3**3**3` (3 to the 3**27), drawn by
    the property test above, expanded for hours; it and the other texts
    past the budget are refused at once, through `_parse` and
    `Ideal.make`.  Texts at or near the budget's edges are read as sympy
    reads them."""
    refused = ("3/3**3**3**3", "(x + 1)**(10**9)", "2**65537", "(14/3**3**3**2)**3", "(x + y)**1024", "(x + y + 1)**44")
    for text in refused:
        assert past_the_budget(text)
        with pytest.raises(ScaleExceededError, match="could have"):
            _parse(RING, text)
    with pytest.raises(ScaleExceededError):
        Ideal.make(PolyRing(("x", "y")), ["x - 1", "3/3**3**3**3"])
    # 1,100 terms times 1,000: 1,100,000 term products, past 2**20
    product = "({})*({})".format(" + ".join(f"x**{i}" for i in range(1, 1101)), " + ".join(f"y**{i}" for i in range(1, 1001)))
    with pytest.raises(ScaleExceededError, match="term products"):
        _parse(RING, product)
    within = ("2**65536", "14/3**3**3**2", "x**(3**27)", "x**40000 - y", "(x + y + 1)**20", "(x/3 + 2*z)**100", "(x + y + z + 1)**5*(x - z)**7")
    for text in within:
        assert not past_the_budget(text)
        assert _parse(RING, text) == from_sympy(RING, sympy.expand(sympy.sympify(text, rational=True)))


def test_a_literal_past_the_bits_is_refused_before_it_is_formed():
    """`1e9999999*x` formed 10**9999999 for seconds before it was read.
    A literal whose numerator or denominator would pass `_READ_BITS`
    bits is refused, its decimal exponent checked first; at the edge the
    literal is read exactly."""
    bits, x = ideals._READ_BITS, RING.gens[0]
    top = math.floor(bits * math.log10(2))  # the largest k with 10**k of at most `bits` bits
    assert (10**top).bit_length() <= bits < (10 ** (top + 1)).bit_length()
    within = {
        f"1e{top}*x": x * 10**top,
        f"-1e-{top}*x": x * Fraction(-1, 10**top),
        # 5 / 10**(top + 1) is 1 / (2 * 10**top), of at most `bits` bits
        f"5e-{top + 1}*x": x * Fraction(1, 2 * 10**top),
        f"0x{'f' * (bits // 4)}*x": x * (2**bits - 1),
        # the mantissa's zeros cancel 2,000 powers of ten of the denominator
        f"1{'0' * 2000}e-{top + 2000}*x": x * Fraction(1, 10**top),
        "0e9999999*x": RING(0),
        "1_0.2_5e1_0*x": x * 102500000000,
    }
    for text, value in within.items():
        start = time.perf_counter()
        assert _parse(RING, text) == value, text[:20]
        assert time.perf_counter() - start < 1, text[:20]
    refused = (f"1e{top + 1}*x", f"1e-{top + 1}*x", f"12e{top}*x", f"0x1{'0' * (bits // 4)}*x", "1e9999999*x", "x - 1e-9999999")
    for text in refused:
        start = time.perf_counter()
        with pytest.raises(ScaleExceededError, match="a literal"):
            _parse(RING, text)
        # forming 10**9999999 alone takes seconds
        assert time.perf_counter() - start < 1, text[:20]


@settings(max_examples=300)
@given(
    mantissa=st.from_regex(r"[-+]?[0-9]{0,4}0{0,60}(\.[0-9]{0,4})?", fullmatch=True),
    e=st.sampled_from("eE"),
    exponent=st.integers(-150, 150).map(lambda k: f"+{k}" if k > 0 and k % 2 else str(k)),
    below=st.integers(1, 10**60),
)
def test_bounded_fraction_is_fraction_within_its_bound(mantissa, e, exponent, below):
    """The exponent check refuses only what the exact comparison would."""
    text = f"{mantissa}{e}{exponent}"
    try:
        want = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError):
            bounded_fraction(text, below)
        return
    within = abs(want.numerator) < below and want.denominator < below
    assert bounded_fraction(text, below) == (want if within else None)


def test_a_decimal_is_read_exactly():
    assert _parse(RING, "(0.25 + 4)**3/3") == Fraction(4913, 192)
    assert Ideal.make(RING, ["(0.25 + 4)**3/3"]).polys == (RING(Fraction(4913, 192)),)
    assert _parse(RING, "0.1*x") == RING.gens[0] * Fraction(1, 10)


def test_a_long_sum_is_read_without_deep_recursion():
    """A sum or product of 2,000 terms nests 2,000 deep in the syntax
    tree; the reader walks such a chain by a loop instead of recursing
    once per term, so it reads what sympy's parser reads."""
    x, y, z = RING.gens
    assert _parse(RING, " + ".join(["x*y"] * 2000)) == x * y * 2000
    assert _parse(RING, "*".join(["x"] * 2000)) == x**2000
    p = sum((x**i * y ** (i % 7) * Fraction(i, 3) for i in range(1, 1500)), RING.zero) - z
    assert _parse(RING, str(p)) == p


def test_text_too_deep_for_the_parser_is_refused():
    """A sum of 3,000 terms is deeper than `ast.parse` builds: a typed
    refusal, through `_parse` and `Ideal.make`, not a `RecursionError`."""
    text = " + ".join(["x*y"] * 3000)
    with pytest.raises(IdealError, match="too deep to parse"):
        _parse(RING, text)
    with pytest.raises(IdealError, match="too deep to parse"):
        Ideal.make(PolyRing(("x", "y")), [text])


def test_a_recursion_error_past_the_parser_stays_loud(monkeypatch):
    """Only the parse is guarded: a `RecursionError` while the tree is
    read is a fault, and it propagates."""

    def runaway(self, other):
        raise RecursionError("raised in ring arithmetic")

    monkeypatch.setattr(ideals.Poly, "__mul__", runaway)
    with pytest.raises(RecursionError, match="raised in ring arithmetic"):
        _parse(RING, "x*y")


@pytest.mark.parametrize("text", ("sqrt(2)*x", "x^2", "True*x", "1j*x", "x/y", "x/0", "x**-1", "x**(1/2)", "x**y", ""))
def test_what_is_not_a_polynomial_is_refused(text):
    with pytest.raises(IdealError, match="not a polynomial"):
        _parse(RING, text)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("gens", ([], ["x**2 - y"]), ids=("zero", "nonzero"))
@pytest.mark.parametrize("value", (0.1, 2.0, sympy.Symbol("x"), sympy.Rational(1, 2)), ids=("float", "whole-float", "symbol", "rational"))
def test_a_float_or_a_sympy_object_is_refused_at_every_entry_point(entry, gens, value):
    ideal = Ideal.make(PolyRing(("x", "y")), gens)
    with pytest.raises(IdealError):
        ENTRY_POINTS[entry](ideal, value)


@pytest.mark.parametrize("value", (0.1, {(1, 0, 0): 0.5}, {(1, 0, 0): 1, (0, 0, 0): 2.0}), ids=("number", "dict", "dict-whole"))
def test_the_ring_refuses_a_float(value):
    with pytest.raises(IdealError, match="ints or Fractions"):
        RING(value)
    assert RING(Fraction(1, 10)) == Fraction(1, 10) and RING({(1, 0, 0): Fraction(1, 2)}) == RING.gens[0] * Fraction(1, 2)
