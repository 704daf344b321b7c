"""Symbolic index form of an order.

For a generic element w = x*e1 + y*e2 + ... of an order with basis
e0 = 1, e1, ..., e(n-1), the coordinate matrix of its powers 1, w, ...,
w^(n-1) has a determinant that is homogeneous of degree n(n-1)/2 in the
non-identity coordinates x_1..x_v (v = n-1); its value at an element's
coordinates is (up to sign) that element's index.  Adding an integer to
w is a unimodular row operation, so the identity coordinate is left out
(``Order`` checks e0 is the identity).

The kernel substitutes x_(v-1) -> 2^W y and x_v -> y (Kronecker), a ring
map that commutes with the determinant: slot c of the coefficient at
y^s holds that of x_(v-1)^c x_v^(s-c).  With A the largest L1 norm of
multiplication by a basis element on the non-identity coordinates, the
coordinates of w^r have norms summing to at most A^r, and a determinant
is at most the product of its rows' norms, so no coefficient exceeds
A^(n(n-1)/2) < 2^(W-1) in size, and each is read back as a balanced
base-2^W digit.  In the v-1 outer variables each entry and minor of
the power matrix is a dense list of ints over the monomials of one
degree, fixed by its rows, multiplied through memoised monomial-position
tables; the determinant is a Laplace expansion row by row over 2^(n-1)
column subsets, not the (n-1)! sub-expansions of a cofactor recursion.

common_value_divisor decides whether p divides every value by reducing
exponents with x^p = x, not by evaluating at all p^v points; when p
exceeds the total degree no exponent needs reducing.

format_multipoly only puts the terms in graded-lex order, from the
memoised monomial texts of an index form or by sorting any other
MultiPoly; textfmt.signed_sum writes the signs and coefficients.
"""

import functools
import itertools

from .fppoly import as_modulus
from .textfmt import signed_sum

_VAR_ALPHABET = ("x", "y", "w", "v", "u")


class MultiPoly:
    """Sparse multivariate integer polynomial with graded-lex term order.

    The value ``index_form`` returns: it is evaluated, printed and tested
    for common value divisors, and carries no ring arithmetic.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        self.terms = {tuple(exps): c for exps, c in (terms or {}).items() if c}

    def is_zero(self):
        return not self.terms

    def evaluate(self, point):
        """Exact integer value at an integer point."""
        if len(point) != len(self.vars):
            raise ValueError("need %d coordinates" % len(self.vars))
        total = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def ordered_terms(self):
        """Terms in graded-lexicographic order (highest first)."""
        return sorted(
            self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True
        )

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return "MultiPoly(%s)" % self

    def __str__(self):
        return format_multipoly(self)


def format_multipoly(f):
    """Compact rendering like ``2x^3 - x^2y - xy^2 - 2y^3``, terms in graded-lex order."""
    terms = f.terms
    v = len(f.vars)
    degrees = set(map(sum, terms))
    d = max(degrees, default=0)
    if len(degrees) == 1 and f.vars == _VAR_ALPHABET[:v] and d <= _MAX_FORM_DEGREE:
        # a form in index-form variables: graded-lex order is the order of
        # _monomials(v, d), and each monomial's text is rendered once
        coeffs = map(terms.get, _monomials(v, d), itertools.repeat(0))
        return signed_sum(zip(coeffs, _monomial_texts(v, d)))
    return signed_sum(
        [(c, _monomial_text(f.vars, exps)) for exps, c in f.ordered_terms()]
    )


def _monomial_text(names, exps):
    """``x^2yw`` for names (x, y, w) and exponents (2, 1, 1); empty for a constant."""
    return "".join(
        name if e == 1 else "%s^%d" % (name, e) for name, e in zip(names, exps) if e
    )


@functools.cache
def _monomial_texts(v, d):
    """The text of each monomial of _monomials(v, d) in the first v index-form variables."""
    names = _VAR_ALPHABET[:v]
    return tuple(_monomial_text(names, exps) for exps in _monomials(v, d))


# one variable per non-identity coordinate; with v <= 5 variables and degree
# d <= n(n-1)/2 <= 15, the memoised tables below and _monomial_texts are a
# fixed set of a few hundred
MAX_RANK = len(_VAR_ALPHABET) + 1
_MAX_FORM_DEGREE = MAX_RANK * (MAX_RANK - 1) // 2


@functools.cache
def _monomials(v, d):
    """Exponent tuples of the degree-d monomials in v variables, in a fixed order."""
    if v == 0:
        return ((),) if d == 0 else ()
    return tuple(
        (e,) + rest for e in range(d, -1, -1) for rest in _monomials(v - 1, d - e)
    )


@functools.cache
def _product_table(v, d1, d2):
    """Row i, column j: the position of monomial i of degree d1 times monomial j of degree d2.

    Exponent tuples are packed as the base-(d1 + d2 + 1) digits of one
    integer, a base no product's exponent reaches, so monomials multiply
    by one integer addition.
    """
    base = d1 + d2 + 1

    def packed(e):
        return functools.reduce(lambda acc, x: acc * base + x, e, 0)

    position = {packed(e): k for k, e in enumerate(_monomials(v, d1 + d2))}
    right = [packed(e) for e in _monomials(v, d2)]
    return tuple(
        tuple([position[k1 + k2] for k2 in right])
        for k1 in map(packed, _monomials(v, d1))
    )


def _mul_into(out, a, b, table, sign=1):
    """out += sign * a * b, where table = _product_table(v, deg a, deg b)."""
    for c, row in zip(a, table):
        if c:
            c *= sign
            for k, bj in zip(row, b):
                out[k] += c * bj


def _determinant(m, v):
    """Determinant of the power matrix m, whose row r has degree r + 1.

    The minor on rows 0..k is built once per (k+1)-column subset (keyed
    by its bitmask) from the minors on rows 0..k-1, so each large
    late-row entry meets the small minor of the rows before it.  Zero
    minors are left out.
    """
    size = len(m)
    minors = {0: [1]}
    for k, row in enumerate(m):
        degree = (k + 1) * (k + 2) // 2
        table = _product_table(v, degree - k - 1, k + 1)
        built = {}
        for cols in itertools.combinations(range(size), k + 1):
            mask = sum(1 << c for c in cols)
            acc = [0] * len(_monomials(v, degree))
            for pos, c in enumerate(cols):
                rest = minors.get(mask ^ (1 << c))
                if rest is not None:
                    _mul_into(acc, rest, row[c], table, -1 if (k + pos) % 2 else 1)
            if any(acc):
                built[mask] = acc
        minors = built
    return minors.get((1 << size) - 1)


def index_form(order):
    """Index of the generic element as a polynomial in its non-identity coordinates.

    Homogeneous of degree n(n-1)/2; its value at a concrete element's
    coordinates is that element's index up to sign.
    """
    n = order.n
    if n < 2:
        raise ValueError("index form needs rank >= 2, got rank %d" % n)
    if n > MAX_RANK:
        raise ValueError("index form rank %d exceeds MAX_RANK = %d" % (n, MAX_RANK))
    names = _VAR_ALPHABET[: n - 1]
    v = n - 1
    u = max(v - 1, 1)  # x_1..x_(v-2), y; the tail x_u..x_v folds into y
    degree = v * n // 2
    table = order.table
    a = max(sum(map(abs, itertools.chain.from_iterable(row[1:]))) for row in table)
    width = (a**degree).bit_length() + 1

    # w * e_i = sum_k L[i][k] e_k, each L[i][k] a linear form in the outer
    # variables; Horner over the tail puts x_j at 2^(width(v-j)) y
    linear = []
    for row in table:
        tail = row[u]
        for vec in row[u + 1 :]:
            tail = [(x << width) + y for x, y in zip(tail, vec)]
        linear.append(list(zip(*row[1:u], tail)))
    acc = linear[0]  # w * e0 = w
    powers = [acc]
    for r in range(2, n):
        step = _product_table(u, 1, r - 1)
        out = [[0] * len(_monomials(u, r)) for _ in range(n)]
        for ai, forms in zip(acc, linear):
            if any(ai):
                for o, form in zip(out, forms):
                    _mul_into(o, form, ai, step)
        acc = out
        powers.append(acc)
    # power 0 = (1, 0, ..., 0) leads the full matrix, so its determinant is
    # the minor on the higher powers' non-identity coordinates
    det = _determinant([row[1:] for row in powers], u)

    # the digits at y^s, top slot first, are the coefficients at x_u^c x_v^(s-c)
    # for c = s..0 (x_1^s alone at v = 1): the order of _monomials(v, degree)
    half, mask = 1 << (width - 1), (1 << width) - 1
    coefficients = []
    for (*_, s), packed in zip(_monomials(u, degree), det or ()):
        digits = []
        for _ in _monomials(n - u, s):
            packed += half
            digits.append((packed & mask) - half)
            packed >>= width
        assert not packed
        coefficients += reversed(digits)
    return MultiPoly(names, dict(zip(_monomials(v, degree), coefficients)))


def common_value_divisor(f, modulus):
    """True when f vanishes at every point of GF(p)^v, for a prime p.

    Over GF(p), x^p = x, so each nonzero exponent e reduces to
    1 + (e-1) mod (p-1); the reduced polynomial is the unique one of
    degree < p in each variable with the same values, so f vanishes
    everywhere exactly when every reduced coefficient is 0 mod p.
    """
    p = as_modulus(modulus).p
    # total degree bounds every exponent; below p, x^p = x reduces none of them
    top = max(map(sum, f.terms), default=0)
    if top < p:
        return not any(c % p for c in f.terms.values())
    exponent = [0] + [1 + (e - 1) % (p - 1) for e in range(1, top + 1)]
    reduced = {}
    for exps, c in f.terms.items():
        c %= p
        if c:
            key = tuple(map(exponent.__getitem__, exps))
            reduced[key] = reduced.get(key, 0) + c
    return not any(c % p for c in reduced.values())
