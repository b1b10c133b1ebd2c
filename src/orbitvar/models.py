"""Built-in algebras: type-A Borel nilradicals, the Heisenberg algebra,
abelian models, and the two-dimensional solvable example."""

from __future__ import annotations

from .liealg import WeightedLieAlgebra


class UnknownBuiltinError(Exception):
    pass


# `fixed-points` on abelian:d records 2^d fixed points and `property-p`
# walks about 3^d (point, flat) pairs; at d = 10 every command ends in a
# few seconds (README), so larger sizes are refused before anything is built
ABELIAN_MAX = 10


def borel_nilradical_a2() -> WeightedLieAlgebra:
    return WeightedLieAlgebra.build(
        2,
        ["xa", "xb", "xab"],
        {"xa": [1, 0], "xb": [0, 1], "xab": [1, 1]},
        [("xa", "xb", {"xab": 1})],
    )


def borel_nilradical_a3() -> WeightedLieAlgebra:
    # strictly upper triangular 4x4 model: x1=e12, x2=e23, x3=e34,
    # x12=e13, x23=e24, x123=e14; all surviving constants are +1
    return WeightedLieAlgebra.build(
        3,
        ["x1", "x2", "x3", "x12", "x23", "x123"],
        {
            "x1": [1, 0, 0],
            "x2": [0, 1, 0],
            "x3": [0, 0, 1],
            "x12": [1, 1, 0],
            "x23": [0, 1, 1],
            "x123": [1, 1, 1],
        },
        [
            ("x1", "x2", {"x12": 1}),
            ("x2", "x3", {"x23": 1}),
            ("x1", "x23", {"x123": 1}),
            ("x12", "x3", {"x123": 1}),
        ],
    )


def heisenberg_3() -> WeightedLieAlgebra:
    return WeightedLieAlgebra.build(
        2,
        ["p", "q", "c"],
        {"p": [1, 0], "q": [0, 1], "c": [1, 1]},
        [("p", "q", {"c": 1})],
    )


def abelian(d: int) -> WeightedLieAlgebra:
    names = [f"x{i}" for i in range(1, d + 1)]
    weights = {
        names[i]: [1 if j == i else 0 for j in range(d)] for i in range(d)
    }
    return WeightedLieAlgebra.build(d, names, weights, [])


def sl2_borel() -> WeightedLieAlgebra:
    return WeightedLieAlgebra.build(1, ["xa"], {"xa": [1]}, [])


def builtin(name: str) -> WeightedLieAlgebra:
    if name == "borel-nilradical-A2":
        return borel_nilradical_a2()
    if name == "borel-nilradical-A3":
        return borel_nilradical_a3()
    if name == "heisenberg-3":
        return heisenberg_3()
    if name == "sl2-borel":
        return sl2_borel()
    if name.startswith("abelian:"):
        size = name.split(":", 1)[1]
        # int() would also read "+3", "1_0", " 3" and non-ASCII digits
        if not (size.isascii() and size.isdigit()):
            raise UnknownBuiltinError(f"bad abelian size in {name!r}")
        digits = size.lstrip("0") or "0"  # compared by length first, so no long string is converted
        if len(digits) > len(str(ABELIAN_MAX)) or int(digits) > ABELIAN_MAX:
            raise UnknownBuiltinError(f"abelian size must be at most {ABELIAN_MAX}")
        d = int(digits)
        if d < 1:
            raise UnknownBuiltinError("abelian size must be positive")
        return abelian(d)
    raise UnknownBuiltinError(f"unknown builtin {name!r}")


BUILTIN_NAMES = (
    "borel-nilradical-A2",
    "borel-nilradical-A3",
    "heisenberg-3",
    "abelian:<d>",
    "sl2-borel",
)

