"""Univariate polynomial arithmetic and factorization over prime fields.

Polynomials are immutable: a modulus and an ascending tuple of
coefficients in [0, p) with no trailing zero (empty tuple for the zero
polynomial).  Everything here is a pure function, so values can be
shared freely; the only randomized step (equal-degree splitting) draws
from a caller-supplied seed.

Factorization runs squarefree separation, then distinct-degree
splitting, then seeded equal-degree splitting (with the trace-map
variant in characteristic 2).  Factors are reported in a canonical
order, sorted by (degree, coefficient tuple), so results are
reproducible across runs and seeds.

The p-th power map is GF(p)-linear on GF(p)[x]/(f), so each
factorization computes x**p mod f once and builds the Frobenius matrix
with rows x**(i*p) mod f (Berlekamp's Q-matrix; Cohen, GTM 138, 3.4).
Distinct-degree splitting then takes x**(p**d) from x**(p**(d-1)) by
one matrix-vector product, and equal-degree splitting for odd p takes
a**((p**d - 1)/2) as a (p-1)/2 power and d - 1 such products (von zur
Gathen-Shoup, "Computing Frobenius maps and factoring polynomials",
Comput. Complexity 2 (1992)).  For f of degree n that is one x**p and
about n products in place of about n/2 powerings by p.
"""

import itertools
import random

from .textfmt import DEFAULT_VAR, format_poly, parse_poly

MAX_MODULUS = 2**31

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def binary_power(base, e, mul, one):
    """base**e for e >= 0 by left-to-right binary powering with product `mul`.

    Returns `one` only when e == 0.  Scanning the bits of e from the top
    takes floor(lg e) squarings and popcount(e) - 1 multiplications by
    base (Cohen, GTM 138, Alg. 1.2.2), so e == 1 makes no product at
    all.  `mul` must be associative on the powers of base.
    """
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:
        return one
    result = base
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


def is_prime(n):
    """Deterministic primality test for n < 2**31 (strong tests to base 2,3,5,7)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # bases 2,3,5,7 are conclusive below 3215031751 > 2**31
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeModulus:
    """A rational prime below 2**31, validated at construction."""

    __slots__ = ("p",)

    def __init__(self, p):
        if not isinstance(p, int):
            raise TypeError("modulus must be an int")
        if p >= MAX_MODULUS:
            raise ValueError("modulus %d out of range (must be < 2**31)" % p)
        if not is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p

    def __int__(self):
        return self.p

    def __eq__(self, other):
        return isinstance(other, PrimeModulus) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeModulus", self.p))

    def __repr__(self):
        return "PrimeModulus(%d)" % self.p


class FpPoly:
    """Dense univariate polynomial over GF(p), canonical reduced form."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus, coeffs):
        if not isinstance(modulus, PrimeModulus):
            modulus = PrimeModulus(modulus)
        p = modulus.p
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.modulus = modulus
        self.coeffs = tuple(cs)

    @classmethod
    def from_text(cls, modulus, text, var=DEFAULT_VAR):
        return cls(modulus, parse_poly(text, var))

    @property
    def p(self):
        return self.modulus.p

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self):
        if not self.coeffs:
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        inv = pow(lc, -1, self.p)
        return FpPoly(self.modulus, [c * inv for c in self.coeffs])

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other):
        if not isinstance(other, FpPoly):
            raise TypeError("expected FpPoly, got %r" % type(other).__name__)
        if other.modulus != self.modulus:
            raise ValueError(
                "modulus mismatch: %d vs %d" % (self.p, other.p)
            )

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FpPoly(self.modulus, out)

    def __sub__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return FpPoly(self.modulus, out)

    def __neg__(self):
        return FpPoly(self.modulus, [-c for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FpPoly(self.modulus, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return FpPoly(self.modulus, out)

    def scale(self, c):
        return FpPoly(self.modulus, [c * x for x in self.coeffs])

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        p = self.p
        b = other.coeffs
        inv = pow(b[-1], -1, p)
        rem = list(self.coeffs)
        db = len(b) - 1
        q = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i] % p
            if c:
                f = c * inv % p
                q[i - db] = f
                for j, bj in enumerate(b):
                    rem[i - db + j] -= f * bj
        return FpPoly(self.modulus, q), FpPoly(self.modulus, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        return binary_power(self, e, FpPoly.__mul__, fp_one(self.modulus))

    def derivative(self):
        return FpPoly(
            self.modulus, [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def __eq__(self, other):
        return (
            isinstance(other, FpPoly)
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return "FpPoly(%d, %s)" % (self.p, format_poly(self.coeffs))

    def __str__(self):
        return format_poly(self.coeffs)

    def sort_key(self):
        """(degree, coefficient tuple) used for the canonical factor order."""
        return (len(self.coeffs), self.coeffs)


def fp_x(modulus):
    return FpPoly(modulus, (0, 1))


def fp_one(modulus):
    return FpPoly(modulus, (1,))


def fp_powmod(base, e, mod):
    """base**e reduced mod the polynomial `mod` (binary powering)."""
    return binary_power(
        base % mod, e, lambda a, b: a * b % mod, fp_one(mod.modulus)
    )


def fp_gcd(a, b):
    """Monic greatest common divisor; inputs must not both be zero."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    a._check(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def fp_extgcd(a, b):
    """Return (g, u, v) with u*a + v*b = g, g the monic gcd."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    a._check(b)
    mod = a.modulus
    r0, r1 = a, b
    u0, u1 = fp_one(mod), FpPoly(mod, ())
    v0, v1 = FpPoly(mod, ()), fp_one(mod)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    lc = r0.leading()
    if lc != 1:
        inv = pow(lc, -1, mod.p)
        r0, u0, v0 = r0.scale(inv), u0.scale(inv), v0.scale(inv)
    return r0, u0, v0


def _frobenius_rows(f):
    """Rows x**(i*p) mod f for i < deg f: the matrix of r -> r**p on GF(p)[x]/(f).

    One powering builds x**p; every further row is one product by it.
    """
    xp = fp_powmod(fp_x(f.modulus), f.p, f)
    rows = [fp_one(f.modulus)]
    for _ in range(f.degree - 1):
        rows.append(rows[-1] * xp % f)
    return rows


def _frobenius(r, rows):
    """r**p mod f from f's Frobenius rows, for r reduced mod f.

    Over GF(p), (sum r_i x**i)**p = sum r_i x**(i*p), so the p-th power
    is one matrix-vector product with no powering.
    """
    out = [0] * len(rows)
    for c, row in zip(r.coeffs, rows):
        if c:
            for j, a in enumerate(row.coeffs):
                out[j] += c * a
    return FpPoly(r.modulus, out)


def fp_is_irreducible(f):
    """Distinct-degree irreducibility test over GF(p).

    f is irreducible of degree n iff x**(p**n) == x mod f and
    gcd(x**(p**(n/q)) - x, f) = 1 for every prime q dividing n.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    n = f.degree
    if n == 0:
        raise ValueError("constant polynomials are not classified")
    if n == 1:
        return True
    f = f.monic()
    rows = _frobenius_rows(f)
    x = fp_x(f.modulus)
    checked = {n // q for q in _prime_divisors(n)}
    r = x
    for d in range(1, n + 1):
        r = _frobenius(r, rows)  # x**(p**d) mod f
        if d in checked and not fp_gcd(r - x, f).is_one():
            return False
    return r == x


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _pth_root(f):
    # f = g(x**p) over GF(p) implies g has coefficients f[i*p]
    p = f.p
    return FpPoly(f.modulus, f.coeffs[::p])


def _factor_squarefree(f, rng):
    """Factor a squarefree monic f: distinct-degree then equal-degree split.

    r = x**(p**d) stays reduced mod the f the loop started with, which is
    valid mod every divisor of it; only the gcd sees the shrinking f.
    """
    if f.degree < 2:
        return [f]
    factors = []
    rows = _frobenius_rows(f)
    r = x = fp_x(f.modulus)
    d = 0
    while not f.is_one():
        d += 1
        if 2 * d > (f.degree or 0):
            factors.append(f)
            break
        r = _frobenius(r, rows)
        g = fp_gcd(r - x, f) if not (r - x).is_zero() else f.monic()
        if not g.is_one():
            factors.extend(_equal_degree_split(g, d, rng, rows))
            f = (f // g).monic()
    return factors


def _equal_degree_split(g, d, rng, rows):
    """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles.

    `rows` are the Frobenius rows of a multiple of g.  For odd p,
    a**((p**d - 1)/2) is the product of c**(p**i) for i < d with
    c = a**((p - 1)/2), so one short powering and d - 1 Frobenius steps
    replace a powering by a d*lg(p)-bit exponent.
    """
    if g.degree == d:
        return [g]
    p = g.p
    mod = g.modulus
    n = g.degree
    if p != 2 and d > 1:
        rows = [row % g for row in rows[:n]]
    while True:
        a = FpPoly(mod, [rng.randrange(p) for _ in range(n)])
        if a.degree is None or a.degree < 1:
            continue
        if p == 2:
            # trace map a + a^2 + a^4 + ... + a^(2^(d-1))
            t = a % g
            acc = t
            for _ in range(d - 1):
                t = t * t % g
                acc = acc + t
            h = fp_gcd(acc, g) if not acc.is_zero() else g
        else:
            t = acc = fp_powmod(a, (p - 1) // 2, g)
            for _ in range(d - 1):
                t = _frobenius(t, rows)
                acc = acc * t % g
            b = acc - fp_one(mod)
            h = fp_gcd(b, g) if not b.is_zero() else g
        if h.is_one() or h.degree == g.degree:
            continue
        rest = (g // h).monic()
        return _equal_degree_split(h, d, rng, rows) + _equal_degree_split(
            rest, d, rng, rows
        )


def _factor_monic(f, rng):
    """Factor monic f into {irreducible: multiplicity} by separating repeated parts."""
    if f.is_one():
        return {}
    fd = f.derivative()
    if fd.is_zero():
        inner = _factor_monic(_pth_root(f), rng)
        return {g: e * f.p for g, e in inner.items()}
    u = fp_gcd(f, fd)
    if u.is_one():
        return {g: 1 for g in _factor_squarefree(f, rng)}
    out = _factor_monic(u, rng)
    for g, e in _factor_monic((f // u).monic(), rng).items():
        out[g] = out.get(g, 0) + e
    return out


def fp_factor(f, seed=0):
    """Factor nonzero f into monic irreducibles.

    Returns a list of (factor, exponent) pairs sorted by
    (degree, coefficient tuple); the product of factor**exponent times
    the leading coefficient of f reconstructs f exactly.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    rng = random.Random(seed)
    fac = _factor_monic(f.monic(), rng)
    return sorted(fac.items(), key=lambda ge: ge[0].sort_key())


def _mobius(n):
    m = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    if n > 1:
        m = -m
    return m


def count_monic_irreducibles(modulus, f):
    """Number of monic irreducibles of degree f over GF(p) (Mobius/necklace count)."""
    if f < 1:
        raise ValueError("degree must be >= 1")
    p = int(modulus)
    total = 0
    d = 1
    while d * d <= f:
        if f % d == 0:
            total += _mobius(d) * p ** (f // d)
            if d != f // d:
                total += _mobius(f // d) * p**d
        d += 1
    assert total % f == 0
    return total // f


def enumerate_monic_irreducibles(modulus, f):
    """Yield all monic irreducibles of degree f in lexicographic coefficient order."""
    if f < 1:
        raise ValueError("degree must be >= 1")
    if not isinstance(modulus, PrimeModulus):
        modulus = PrimeModulus(modulus)
    p = modulus.p
    # ascending-coefficient tuples compared position 0 first
    for lower in itertools.product(range(p), repeat=f):
        cand = FpPoly(modulus, lower + (1,))
        if f == 1 or fp_is_irreducible(cand):
            yield cand
