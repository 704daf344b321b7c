"""Worked-example data reused by the CLI replay suite and the tests.

The cubic field here is Q[t]/(t^3 - t^2 - 2t - 8): discriminant -2012
over the power basis, fundamental number -503, with 2 splitting into
three degree-one primes (hence a common index divisor).  The companion
quartic t^4 - t^3 + t^2 - 2t + 4 has fundamental number 13^2*17, and
Q(sqrt 2) at p = 7 carries the deliberately-skewed generator 25+27*sqrt2.
"""

from .orders import Order, order_from_polynomial
from .zpoly import ZPoly

CUBIC_POLY = "t^3 - t^2 - 2*t - 8"
QUARTIC_POLY = "t^4 - t^3 + t^2 - 2*t + 4"
SQRT2_POLY = "t^2 - 2"

CUBIC_DISC = -2012
CUBIC_FUNDAMENTAL = -503
QUARTIC_FUNDAMENTAL = 2873  # 13^2 * 17


def cubic_poly():
    return ZPoly.from_text(CUBIC_POLY)


def quartic_poly():
    return ZPoly.from_text(QUARTIC_POLY)


def maximal_cubic_order():
    """Basis 1, a, b with b = (a^2 - a - 2)/2: a^2 = 2+a+2b, ab = 4, b^2 = -2+2a-b."""
    table = [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 1, 0), (2, 1, 2), (4, 0, 0)],
        [(0, 0, 1), (4, 0, 0), (-2, 2, -1)],
    ]
    return Order(table, labels=("1", "a", "b"))


def sqrt2_order():
    return order_from_polynomial(ZPoly.from_text(SQRT2_POLY), labels=("1", "r"))


# Prime ideals above 2 in the maximal cubic order, keyed by the letters
# used in the worked tables.
CUBIC_PRIMES_ABOVE_2 = {
    "a": ((2, 0, 0), (0, 1, 0), (1, 0, 1)),
    "b": ((2, 0, 0), (1, 1, 0), (0, 0, 1)),
    "c": ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
}

# The six pairwise products, as canonical bases.
CUBIC_SIX_PRODUCTS = {
    ("a", "a"): ((4, 0, 0), (0, 1, 0), (3, 0, 1)),
    ("b", "b"): ((4, 0, 0), (1, 1, 0), (0, 0, 1)),
    ("c", "c"): ((4, 0, 0), (2, 1, 0), (2, 0, 1)),
    ("b", "c"): ((2, 0, 0), (0, 2, 0), (0, 0, 1)),
    ("c", "a"): ((2, 0, 0), (0, 1, 0), (0, 0, 2)),
    ("a", "b"): ((2, 0, 0), (0, 2, 0), (1, 1, 1)),
}

# The ten principal ideals: exponent word, canonical basis, generator coords.
CUBIC_TEN_PRINCIPAL = (
    ("abc", ((2, 0, 0), (0, 2, 0), (0, 0, 2)), (2, 0, 0)),
    ("aac", ((4, 0, 0), (0, 1, 0), (2, 0, 2)), (0, 1, 0)),
    ("bbc", ((4, 0, 0), (2, 2, 0), (0, 0, 1)), (0, 0, 1)),
    ("acc", ((4, 0, 0), (2, 1, 0), (0, 0, 2)), (-2, 1, 0)),
    ("bcc", ((4, 0, 0), (0, 2, 0), (2, 0, 1)), (2, 0, -1)),
    ("aab", ((4, 0, 0), (0, 2, 0), (3, 1, 1)), (3, 1, 1)),
    ("abb", ((4, 0, 0), (2, 2, 0), (1, 1, 1)), (1, 1, 1)),
    ("aaa", ((8, 0, 0), (4, 1, 0), (3, 0, 1)), (3, 2, 1)),
    ("bbb", ((8, 0, 0), (1, 1, 0), (4, 0, 1)), (1, 1, 0)),
    ("ccc", ((8, 0, 0), (2, 1, 0), (2, 0, 1)), (-4, 1, 1)),
)

# Verifiable relations among the ten generators, written as
# (product of generator coords) == (product of generator coords).
# The source prints a sixth relation for alpha*beta whose right-hand
# side is typographically corrupted; it is omitted here and covered by
# a reconstruction check in the tests.
CUBIC_MU_RELATIONS = (
    ("a(a-2)(1+a) = 2^3", ((0, 1, 0), (-2, 1, 0), (1, 1, 0)), ((2, 0, 0), (2, 0, 0), (2, 0, 0))),
    ("(a-2)(3+a+b) = 2a", ((-2, 1, 0), (3, 1, 1)), ((2, 0, 0), (0, 1, 0))),
    ("a(2-b) = 2(a-2)", ((0, 1, 0), (2, 0, -1)), ((2, 0, 0), (-2, 1, 0))),
    ("(a-2)(3+2a+b) = a^2", ((-2, 1, 0), (3, 2, 1)), ((0, 1, 0), (0, 1, 0))),
    ("a(a+b-4) = (a-2)^2", ((0, 1, 0), (-4, 1, 1)), ((-2, 1, 0), (-2, 1, 0))),
)

# Index form of the maximal cubic order in its x, y coordinates.
CUBIC_INDEX_FORM_TERMS = {(3, 0): 2, (2, 1): -1, (1, 2): -1, (0, 3): -2}

# Good generator of Q(sqrt 2) built for p = 7 from the prime functions t, t-1.
SQRT2_GENERATOR_COORDS = (25, 27)
SQRT2_GENERATOR_CHARPOLY = "t^2 - 50*t - 833"
SQRT2_GENERATOR_INDEX = 27
