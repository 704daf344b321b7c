"""Univariate polynomial arithmetic and factorization over prime fields.

Polynomials are immutable: a modulus and an ascending tuple of
coefficients in [0, p) with no trailing zero (empty tuple for the zero
polynomial).  Everything here is a pure function, so values can be
shared freely; the only randomized step (equal-degree splitting) draws
from a caller-supplied seed.

Products use Kronecker substitution (von zur Gathen-Gerhard, Modern
Computer Algebra, ch. 8; Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput. 44 (2009)).
A polynomial with coefficients c_i in [0, p) is packed little-endian
into the integer sum c_i * 2**(w*i), one w-bit slot per coefficient.
The integer product of two packed polynomials is the packed polynomial
product as long as no coefficient sum overflows its slot, so a product
of polynomials with at most n coefficients costs O(n) interpreter steps
to pack and unpack plus one big-integer multiplication.

ResidueRing computes in GF(p)[x]/(f) for monic f of degree n, on
packed elements.  It precomputes the reduction table T_k = x**k mod f
for n <= k <= 2n - 2, packed.  A product is one integer product c, an
unpack of its n - 1 high slots mod p into a_k, and the packed sum of
c's n low slots and a_k * T_k, whose n slots one more unpack mod p
reduces.  Each of those slots holds at most (2n - 1) * (p - 1)**2, so
the slot width is w = 2 * bitlen(p - 1) + bitlen(n) + 1.

Factorization runs squarefree separation, then distinct-degree
splitting, then seeded equal-degree splitting (with the trace-map
variant in characteristic 2).  Factors are reported in a canonical
order, sorted by (degree, coefficient tuple), so results are
reproducible across runs and seeds.

The p-th power map is GF(p)-linear on GF(p)[x]/(f), so each
factorization computes x**p mod f once and builds the Frobenius matrix
with rows x**(i*p) mod f (Berlekamp's Q-matrix; Cohen, GTM 138, 3.4),
kept packed.  Distinct-degree splitting then takes x**(p**d) from
x**(p**(d-1)) as one linear combination of the packed rows, and
equal-degree splitting for odd p takes a**((p**d - 1)/2) as a
(p-1)/2 power and d - 1 such steps (von zur Gathen-Shoup, "Computing
Frobenius maps and factoring polynomials", Comput. Complexity 2
(1992)).  For f of degree n that is one x**p and about n products in
place of about n/2 powerings by p.
"""

import itertools
import operator
import random

from .textfmt import DEFAULT_VAR, format_poly, parse_poly

MAX_MODULUS = 2**31

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (bound, bases): strong tests to these bases are conclusive below the
# bound (Pomerance-Selfridge-Wagstaff, Math. Comp. 35 (1980);
# Sorenson-Webster, Math. Comp. 86 (2017)).  is_prime raises at and
# above the last bound, PRIMALITY_BOUND.
_MILLER_RABIN_BASES = (
    (3215031751, (2, 3, 5, 7)),
    (3317044064679887385961981, _SMALL_PRIMES),
)
PRIMALITY_BOUND = _MILLER_RABIN_BASES[-1][0]


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


def _slot_width(p, n):
    """Bits per packed coefficient: room for 2n - 1 products of residues mod p."""
    return 2 * (p - 1).bit_length() + n.bit_length() + 1


def _pack(coeffs, w):
    """sum c_i * 2**(w*i) for coefficients 0 <= c_i < 2**w."""
    v = 0
    for c in reversed(coeffs):
        v = (v << w) | c
    return v


def _unpack(v, w, count, p):
    """The first `count` w-bit slots of v, each reduced mod p."""
    mask = (1 << w) - 1
    return [((v >> s) & mask) % p for s in range(0, count * w, w)]


def is_prime(n):
    """Deterministic primality test for n < PRIMALITY_BOUND; raises from there on.

    Strong tests to the bases 2, 3, 5 and 7 below 3215031751, and to the
    13 primes up to 41 below PRIMALITY_BOUND (about 3.317e24).
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    for bound, bases in _MILLER_RABIN_BASES:
        if n < bound:
            break
    else:
        raise ValueError(
            "primality of %d is not decided: the test is conclusive only "
            "below %d" % (n, PRIMALITY_BOUND)
        )
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
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


def as_modulus(modulus):
    """`modulus` itself if it is a PrimeModulus, else PrimeModulus(modulus)."""
    if isinstance(modulus, PrimeModulus):
        return modulus
    return PrimeModulus(modulus)


class FpPoly:
    """Dense univariate polynomial over GF(p), canonical reduced form."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus, coeffs):
        modulus = as_modulus(modulus)
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
        p = self.p
        w = _slot_width(p, min(len(a), len(b)))
        c = _pack(a, w) * _pack(b, w)
        return FpPoly(self.modulus, _unpack(c, w, len(a) + len(b) - 1, p))

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


class ResidueRing:
    """GF(p)[x]/(f) for monic f of degree n >= 1, on packed elements.

    An element is the int packing its n coefficients in [0, p) into
    w-bit slots; the module docstring gives the product, its reduction
    table and the slot width.
    """

    __slots__ = ("f", "p", "n", "w", "_mask", "_low", "_high", "_down", "_table")

    def __init__(self, f):
        if f.degree is None or f.degree < 1 or not f.is_monic():
            raise ValueError("a residue ring needs a monic modulus of degree >= 1")
        p, n = f.p, f.degree
        w = _slot_width(p, n)
        self.f, self.p, self.n, self.w = f, p, n, w
        self._mask = (1 << w) - 1
        self._low = (1 << (n * w)) - 1
        self._high = range(n * w, (2 * n - 1) * w, w)
        self._down = range((n - 1) * w, -1, -w)
        # T_n = x**n = -(f_0 + ... + f_(n-1) x**(n-1)); T_(k+1) is x * T_k
        # with its x**n term replaced by a multiple of T_n
        xn = [-c % p for c in f.coeffs[:-1]]
        row, table = xn, []
        for _ in range(n - 1):
            table.append(_pack(row, w))
            top = row[-1]
            row = [(c + top * t) % p for c, t in zip([0] + row[:-1], xn)]
        self._table = table

    def pack(self, coeffs):
        """The element with these coefficients, which must lie in [0, p)."""
        return _pack(coeffs, self.w)

    def unpack(self, v):
        """The n coefficients, reduced mod p, of a packed sum with slots below 2**w."""
        return _unpack(v, self.w, self.n, self.p)

    def element(self, poly):
        """poly mod f, packed."""
        self.f._check(poly)
        if len(poly.coeffs) > self.n:
            poly = poly % self.f
        return _pack(poly.coeffs, self.w)

    def poly(self, v):
        """The FpPoly of a packed sum with slots below 2**w, reduced mod p."""
        return FpPoly(self.f.modulus, self.unpack(v))

    def mul(self, a, b):
        """a * b mod f for packed elements a, b."""
        c = a * b
        mask, p = self._mask, self.p
        high = [((c >> s) & mask) % p for s in self._high]
        v = sum(map(operator.mul, high, self._table), c & self._low)
        # unpack mod p and repack in one pass, top slot first
        w = self.w
        out = 0
        for s in self._down:
            out = (out << w) | ((v >> s) & mask) % p
        return out

    def power(self, a, e):
        """a**e mod f for a packed element a and e >= 0."""
        return binary_power(a, e, self.mul, 1)


def fp_powmod(base, e, mod):
    """base**e reduced mod the polynomial `mod` of degree >= 1."""
    ring = ResidueRing(mod.monic())
    return ring.poly(ring.power(ring.element(base), e))


def fp_gcd(a, b):
    """Monic greatest common divisor; inputs must not both be zero."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    a._check(b)
    p = a.p
    r, m = list(a.coeffs), list(b.coeffs)
    while m:
        # r mod m on coefficient lists: each step subtracts q * x**k * m
        # to clear the top coefficient of r
        inv = pow(m[-1], -1, p)
        low, n = m[:-1], len(m) - 1
        while len(r) > n:
            q = r.pop() * inv % p
            if q:
                k = len(r) - n
                r[k:] = [(x - q * y) % p for x, y in zip(r[k:], low)]
        while r and not r[-1]:
            r.pop()
        r, m = m, r
    return FpPoly(a.modulus, r).monic()


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


def _x_to_the_p(ring):
    """x**p mod f, packed: the one powering by p a factorization makes."""
    return ring.power(ring.element(fp_x(ring.f.modulus)), ring.p)


def _frobenius_rows(ring, xp):
    """Packed rows x**(i*p) mod f for i < deg f: the matrix of r -> r**p on ring.

    `xp` is x**p mod f, packed; every row after it is one product by it.
    """
    rows = [1, xp][: ring.n]
    while len(rows) < ring.n:
        rows.append(ring.mul(rows[-1], xp))
    return rows


def _frobenius(ring, rows, coeffs):
    """The coefficients of r**p mod f, from those of r reduced mod f.

    Over GF(p), (sum r_i x**i)**p = sum r_i x**(i*p), so the p-th power
    is one linear combination of the packed rows and one unpack.  Its
    slots hold at most n * (p - 1)**2.
    """
    return ring.unpack(sum(map(operator.mul, coeffs, rows)))


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
    ring = ResidueRing(f)
    rows = _frobenius_rows(ring, _x_to_the_p(ring))
    x = fp_x(f.modulus)
    checked = {n // q for q in _prime_divisors(n)}
    r = x.coeffs
    for d in range(1, n + 1):
        r = _frobenius(ring, rows, r)  # x**(p**d) mod f
        if d in checked and not fp_gcd(FpPoly(f.modulus, r) - x, f).is_one():
            return False
    return FpPoly(f.modulus, r) == x


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
    ring = ResidueRing(f)
    xp = _x_to_the_p(ring)
    rows = _frobenius_rows(ring, xp)
    x = fp_x(f.modulus)
    r = x.coeffs
    d = 0
    while not f.is_one():
        d += 1
        if 2 * d > (f.degree or 0):
            factors.append(f)
            break
        r = _frobenius(ring, rows, r)
        rx = FpPoly(f.modulus, r) - x
        g = fp_gcd(rx, f) if not rx.is_zero() else f.monic()
        if not g.is_one():
            factors.extend(_equal_degree_split(g, d, rng, ring.poly(xp)))
            f = (f // g).monic()
    return factors


def _equal_degree_split(g, d, rng, xp):
    """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles.

    `xp` is x**p mod a multiple of g.  For odd p, a**((p**d - 1)/2) is
    the product of c**(p**i) for i < d with c = a**((p - 1)/2), so one
    short powering and d - 1 Frobenius steps, on rows built from xp mod
    g, replace a powering by a d*lg(p)-bit exponent.
    """
    if g.degree == d:
        return [g]
    p = g.p
    mod = g.modulus
    n = g.degree
    ring = ResidueRing(g)
    if p != 2 and d > 1:
        xp = xp % g
        rows = _frobenius_rows(ring, ring.element(xp))
    while True:
        a = FpPoly(mod, [rng.randrange(p) for _ in range(n)])
        if a.degree is None or a.degree < 1:
            continue
        if p == 2:
            # trace map a + a^2 + a^4 + ... + a^(2^(d-1)); slots stay below d
            t = acc = ring.element(a)
            for _ in range(d - 1):
                t = ring.mul(t, t)
                acc += t
            b = ring.poly(acc)
        else:
            acc = ring.power(ring.element(a), (p - 1) // 2)
            c = ring.unpack(acc)
            for _ in range(d - 1):
                c = _frobenius(ring, rows, c)
                acc = ring.mul(acc, ring.pack(c))
            b = ring.poly(acc) - fp_one(mod)
        h = fp_gcd(b, g) if not b.is_zero() else g
        if h.is_one() or h.degree == g.degree:
            continue
        rest = (g // h).monic()
        return _equal_degree_split(h, d, rng, xp) + _equal_degree_split(
            rest, d, rng, xp
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


def count_monic_irreducibles(modulus, f):
    """Number of monic irreducibles of degree f over GF(p) (Mobius/necklace count).

    (1/f) sum_{d | f} mu(d) p^(f/d); mu(d) vanishes unless d is a
    product of k distinct primes dividing f, and is then (-1)^k.
    """
    if f < 1:
        raise ValueError("degree must be >= 1")
    p = int(modulus)
    signed = [(1, 1)]  # (squarefree divisor d, mu(d))
    for q in _prime_divisors(f):
        signed += [(d * q, -mu) for d, mu in signed]
    total = sum(mu * p ** (f // d) for d, mu in signed)
    assert total % f == 0
    return total // f


def enumerate_monic_irreducibles(modulus, f):
    """Yield all monic irreducibles of degree f in lexicographic coefficient order."""
    if f < 1:
        raise ValueError("degree must be >= 1")
    modulus = as_modulus(modulus)
    p = modulus.p
    # ascending-coefficient tuples compared position 0 first
    for lower in itertools.product(range(p), repeat=f):
        cand = FpPoly(modulus, lower + (1,))
        if f == 1 or fp_is_irreducible(cand):
            yield cand
