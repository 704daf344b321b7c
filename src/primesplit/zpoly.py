"""Integer-coefficient univariate polynomials with exact arithmetic.

Provides the discriminant through the subresultant PRS (Collins 1967;
Brown-Traub 1971; Cohen, GTM 138, Alg. 3.3.7), the
integer roots by Hensel lifting, reduction to and lifting from prime
fields, and the cofactor polynomial of a lifted factorization: the
integer polynomial M with

    f = (product of the lifted factors to their exponents) - p*M.

Zero has no degree here; ``degree`` is None for the zero polynomial and
callers must treat that case explicitly.
"""

from math import gcd

from .fppoly import FpPoly, as_modulus, binary_power, fp_gcd, is_prime
from .textfmt import DEFAULT_VAR, format_poly, parse_poly

# integer_roots takes the squarefree part of f, a gcd over Z, only when
# f mod q has a repeated factor at every prime q up to this one
_LAST_PRIME_BEFORE_GCD = 29


class ZPoly:
    """Dense univariate polynomial over the rational integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_text(cls, text, var=DEFAULT_VAR):
        return cls(parse_poly(text, var))

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ZPoly(out)

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return ZPoly(out)

    def __neg__(self):
        return ZPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return ZPoly(out)

    def scale(self, c):
        return ZPoly([c * x for x in self.coeffs])

    def __pow__(self, e):
        return binary_power(self, e, ZPoly.__mul__, ZPoly((1,)))

    def __divmod__(self, other):
        """Quotient and remainder; the divisor must be monic."""
        if not other.is_monic():
            raise ValueError("division requires a monic divisor")
        b = other.coeffs
        db = len(b) - 1
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                q[i - db] = c
                for j, bj in enumerate(b):
                    rem[i - db + j] -= c * bj
        return ZPoly(q), ZPoly(rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return ZPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        y = 0
        for c in reversed(self.coeffs):
            y = y * x + c
        return y

    def __eq__(self, other):
        return isinstance(other, ZPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("ZPoly", self.coeffs))

    def __repr__(self):
        return "ZPoly(%s)" % format_poly(self.coeffs)

    def __str__(self):
        return format_poly(self.coeffs)


def bareiss_determinant(matrix):
    """Exact determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _prem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, on coefficient lists.

    Lists run from the constant term up, b is nonzero, and the result
    carries no trailing zeros (empty for zero).
    """
    r, lb, db = list(a), b[-1], len(b) - 1
    for i in range(len(r) - 1, db - 1, -1):
        c, shift = r[i], i - db
        r = [lb * x for x in r[:i]]
        if c:
            for j in range(db):
                r[shift + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def resultant(f, g):
    """Resultant of f and g by the subresultant PRS.

    With the contents out, each step maps (A, B) to (B, prem(A, B) /
    (g * h^delta)); the divisions are exact and the coefficients stay
    the size of Sylvester minors, for O(n^2) coefficient operations
    (Collins, J. ACM 14 (1967); Brown-Traub, J. ACM 18 (1971); Cohen,
    GTM 138, Alg. 3.3.7).
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of a zero polynomial")
    n, m = f.degree, g.degree
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    ca, cb = gcd(*f.coeffs), gcd(*g.coeffs)
    a = [x // ca for x in f.coeffs]
    b = [x // cb for x in g.coeffs]
    t = ca**m * cb**n
    if n < m:
        a, b = b, a
        if n & m & 1:
            t = -t
    lead = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            t = -t
        r = _prem(a, b)
        if not r:
            return 0
        divisor = lead * h**delta
        a, b = b, [x // divisor for x in r]
        lead = a[-1]
        if delta:
            h = lead**delta // h ** (delta - 1)
    da = len(a) - 1
    return t * (b[0] ** da // h ** (da - 1))


def discriminant(f):
    """Discriminant of a monic f: (-1)**(n(n-1)/2) times res(f, f')."""
    if not f.is_monic():
        raise ValueError("discriminant requires a monic polynomial")
    n = f.degree
    if n < 1:
        raise ValueError("discriminant requires degree >= 1")
    if n == 1:
        return 1
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative())


def _primitive(cs):
    """Coefficients divided by their content, leading coefficient positive."""
    c = gcd(*cs)
    if cs[-1] < 0:
        c = -c
    return [x // c for x in cs]


def _primitive_gcd(a, b):
    """gcd of two nonzero integer polynomials by a primitive PRS.

    Each pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b has its
    content removed before the next step, which keeps the coefficients
    polynomial in the bit length of the inputs.  The result is the
    primitive gcd with positive leading coefficient, which ignores the
    contents of a and b.
    """
    a, b = _primitive(a.coeffs), _primitive(b.coeffs)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return ZPoly(b)
        a, b = b, _primitive(r)
    return ZPoly((1,))


def integer_roots(f):
    """Distinct integer roots of a monic f with nonzero constant term a0.

    Takes the first prime q at which f mod q is squarefree, finds the
    roots of f mod q by evaluation (each is simple) and Newton-lifts
    each one to a modulus m > 2|a0|; every integer root divides a0, so
    its symmetric residue mod m is the root itself (Cohen, GTM 138, 3.5;
    von zur Gathen-Gerhard, Modern Computer Algebra, ch. 15).  When f
    has a repeated factor no q works, but a squarefree f seldom fails at
    every prime up to 29, so only then is f replaced by f / gcd(f, f'),
    which is squarefree with the same roots.  Only the primes dividing
    its nonzero discriminant fail afterwards, so the cost is polynomial
    in the bit length of f.

    Returns the roots in the order |r| ascending, r before -r.
    """
    if not f.is_monic():
        raise ValueError("integer roots require a monic polynomial")
    a0 = f.coeffs[0]
    if a0 == 0:
        raise ValueError("integer roots require a nonzero constant term")
    g, q = f, 1
    while True:
        q += 1
        if not is_prime(q):
            continue
        g_q = reduce_mod(g, q)
        if fp_gcd(g_q, g_q.derivative()).is_one():
            break
        if q == _LAST_PRIME_BEFORE_GCD:
            g = g // _primitive_gcd(g, g.derivative())
    dg = g.derivative()
    roots = []
    for r in range(q):
        if g(r) % q:
            continue
        m = q
        while m <= 2 * abs(a0):
            m *= m
            r = (r - g(r) * pow(dg(r), -1, m)) % m
        c = r - m if 2 * r > m else r
        if c and a0 % c == 0 and f(c) == 0:
            roots.append(c)
    return sorted(roots, key=lambda r: (abs(r), -r))


def reduce_mod(f, modulus):
    """Reduce an integer polynomial to canonical form over GF(p)."""
    modulus = as_modulus(modulus)
    return FpPoly(modulus, f.coeffs)


def lift(g):
    """Lift an FpPoly to the integer polynomial with coefficients in [0, p)."""
    return ZPoly(g.coeffs)


def cofactor_m(f, modulus, lifts):
    """Cofactor polynomial M with f = prod(lift**exp) - p*M.

    `lifts` is a sequence of (monic ZPoly, exponent) pairs whose product
    must be congruent to f mod p; any integer lifts are accepted, not
    just coefficients in [0, p).  Raises ValueError when the congruence
    fails (the division by p is then not exact).
    """
    modulus = as_modulus(modulus)
    if not f.is_monic():
        raise ValueError("cofactor requires monic f")
    p = modulus.p
    prod = ZPoly((1,))
    for g, e in lifts:
        if not g.is_monic():
            raise ValueError("lifted factors must be monic")
        prod = prod * g**e
    diff = prod - f
    out = []
    for c in diff.coeffs:
        if c % p:
            raise ValueError(
                "lift product is not congruent to f mod %d" % p
            )
        out.append(c // p)
    return ZPoly(out)
