"""Symbolic index form of an order.

For a generic element w = x*e1 + y*e2 + ... of an order with basis
e0 = 1, e1, ..., e(n-1), the coordinate matrix of its powers 1, w, ...,
w^(n-1) has a determinant that is homogeneous of degree n(n-1)/2 in the
non-identity coordinates; its value at a concrete element's
coordinates is (up to sign) that element's index.  Adding an integer
to w changes the matrix by a unimodular row operation, so the identity
coordinate is left out: ``Order`` checks that the first basis element
is the identity and that the table is commutative and associative.

The kernel does not use MultiPoly.  It holds each polynomial as a dict
from a packed exponent (one fixed-width bit field per variable, so a
monomial product is a single int addition) to its coefficient, and
takes the determinant by a Laplace expansion that builds each minor on
the trailing columns once per row subset: 2^(n-1) minors instead of
the (n-1)! sub-expansions of a cofactor recursion.  Only the finished
form is converted to a MultiPoly.

common_value_divisor decides whether p divides every value by reducing
exponents with x^p = x, not by evaluating at all p^v points.
"""

import itertools

from .fppoly import is_prime

_VAR_ALPHABET = ("x", "y", "w", "v")


class MultiPoly:
    """Sparse multivariate integer polynomial with graded-lex term order."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def variable(cls, variables, name):
        i = tuple(variables).index(name)
        exps = tuple(1 if k == i else 0 for k in range(len(variables)))
        return cls(variables, {exps: 1})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.vars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return MultiPoly(self.vars, out)

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.vars, out)

    __rmul__ = __mul__

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

    def total_degrees(self):
        return {sum(e) for e in self.terms}

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
    """Compact rendering like ``2x^3 - x^2y - xy^2 - 2y^3``."""
    if f.is_zero():
        return "0"
    parts = []
    for exps, c in f.ordered_terms():
        body = ""
        for name, e in zip(f.vars, exps):
            if e == 1:
                body += name
            elif e > 1:
                body += "%s^%d" % (name, e)
        mag = abs(c)
        if not body:
            chunk = str(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = "%d%s" % (mag, body)
        if not parts:
            parts.append("-" + chunk if c < 0 else chunk)
        else:
            parts.append(("- " if c < 0 else "+ ") + chunk)
    return " ".join(parts)


def parse_multipoly_vars(n):
    if n - 1 > len(_VAR_ALPHABET):
        raise ValueError("rank %d exceeds the supported variable alphabet" % n)
    return _VAR_ALPHABET[: n - 1]


# Kernel polynomials are {packed exponent: coefficient} dicts: variable i
# owns bits [_FIELD*i, _FIELD*(i+1)) of the key, so a monomial product is
# one int addition.  Total degree is at most n(n-1)/2 = 10 < 2^_FIELD.
_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1


def _add_product(out, a, b, sign):
    """out += sign * a * b on packed polynomials (zero coefficients may remain)."""
    get = out.get
    for e1, c1 in a.items():
        c1 *= sign
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2


def _nonzero(poly):
    return {e: c for e, c in poly.items() if c}


def _det_packed(m):
    """Determinant of a square matrix of packed polynomials.

    Laplace expansion along the leading column of each trailing block:
    the minor on the trailing k columns is built once per k-row subset
    (keyed by its bitmask) from the minors on k-1 columns, so an s x s
    matrix costs 2^s minors rather than s! recursive sub-expansions.
    """
    size = len(m)
    minors = {0: {0: 1}}
    for col in range(size - 1, -1, -1):
        built = {}
        for rows in itertools.combinations(range(size), size - col):
            mask = sum(1 << r for r in rows)
            acc = {}
            for pos, r in enumerate(rows):
                entry = m[r][col]
                rest = minors.get(mask ^ (1 << r))
                if entry and rest:
                    _add_product(acc, entry, rest, -1 if pos % 2 else 1)
            acc = _nonzero(acc)
            if acc:
                built[mask] = acc
        minors = built
    return minors.get((1 << size) - 1, {})


def index_form(order):
    """Index of the generic element as a polynomial in its non-identity coordinates.

    Homogeneous of degree n(n-1)/2.  The index does not depend on the
    identity coordinate, so the generic element has none.  Evaluating
    at a concrete element's coordinates gives that element's index up
    to sign.
    """
    n = order.n
    if n > 5:
        raise ValueError("index form is limited to rank <= 5")
    names = parse_multipoly_vars(n)
    table = order.table

    # powers of the generic element x*e1 + y*e2 + ..., coordinate i >= 1 of
    # the generic element being the packed variable 1 << (_FIELD * (i - 1))
    acc = [{0: 1}] + [{}] * (n - 1)
    powers = []
    for _ in range(n - 1):
        out = [{} for _ in range(n)]
        for i, ai in enumerate(acc):
            if not ai:
                continue
            for j in range(1, n):
                var = 1 << (_FIELD * (j - 1))
                for k, t in enumerate(table[i][j]):
                    if t:
                        _add_product(out[k], ai, {var: t}, 1)
        acc = [_nonzero(o) for o in out]
        powers.append(acc)
    # the power 1 = (1, 0, ..., 0) leads the full matrix: its determinant is
    # the minor of the higher powers on the non-identity coordinates
    det = _det_packed([row[1:] for row in powers])
    return MultiPoly(
        names,
        {
            tuple((e >> (_FIELD * i)) & _FIELD_MASK for i in range(n - 1)): c
            for e, c in det.items()
        },
    )


def common_value_divisor(f, modulus):
    """True when f vanishes at every point of GF(p)^v, for a prime p.

    Over GF(p), x^p = x, so each nonzero exponent e reduces to
    1 + (e-1) mod (p-1); the reduced polynomial is the unique one of
    degree < p in each variable with the same values, so f vanishes
    everywhere exactly when every reduced coefficient is 0 mod p.  No
    point is evaluated, so the cost does not grow with p^v.
    """
    p = int(modulus)
    if not is_prime(p):
        raise ValueError("modulus %d is not prime" % p)
    reduced = {}
    for exps, c in f.terms.items():
        key = tuple(1 + (e - 1) % (p - 1) if e else 0 for e in exps)
        reduced[key] = (reduced.get(key, 0) + c) % p
    return not any(reduced.values())
