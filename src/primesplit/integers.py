"""Rational-integer arithmetic: primality, trial factoring and prime powers.

The package's one trial-division loop, its prime-power test, its
p-adic valuation and the extended gcd of ``hnf`` live here.  Nothing
here imports from the package.  PRIMALITY_BOUND is the package's one
bound on primes, DEGREE_BOUND its one bound on degrees.
"""

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

DEGREE_BOUND = 4096  # for parse_poly's exponents and a SplittingShape's degree

DEFAULT_TRIAL_BOUND = 10**6  # for the discriminant in maximal_order and the CLI


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


def trial_factor(n, bound):
    """Factor |n| by trial division up to `bound`; raises when the tail resists.

    Division stops as soon as the cofactor is a prime that ``is_prime``
    decides, tested on |n| and after each divisor is removed, so a prime
    cofactor costs one primality test rather than division up to
    min(sqrt(|n|), bound).  The tail after trial division is accepted
    when it is 1, a prime that ``is_prime`` decides (below
    PRIMALITY_BOUND), or a prime power (detected exactly); anything else
    exceeds the bound.  A bound of at least sqrt(|n|), such as |n|
    itself, always factors completely; the keys come out in increasing
    order.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out = {}
    prime = n < PRIMALITY_BOUND and is_prime(n)
    d = 2
    while not prime and d * d <= n and d <= bound:
        if n % d == 0:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            prime = n < PRIMALITY_BOUND and is_prime(n)
        d += 1 if d == 2 else 2
    if n > 1:
        power = (n, 1) if prime or d * d > n else prime_power(n)
        if power is None:
            raise ValueError(
                "factorization of %d exceeds the trial-division bound %d" % (n, bound)
            )
        root, e = power
        out[root] = out.get(root, 0) + e
    return out


def valuation(n, q):
    """The exponent of q in the nonzero integer n, for q >= 2; refuses n = 0."""
    if q < 2:
        raise ValueError("valuation needs q >= 2, got q = %d" % q)
    if n == 0:
        raise ValueError("the valuation of 0 is not finite")
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def prime_power(n):
    """(q, e) with n = q^e for a prime q below PRIMALITY_BOUND, else None.

    The largest e with an exact e-th root gives the only candidate q,
    so the cost depends on the bit length of n, not on q.  A q that
    ``is_prime`` cannot decide gives None.
    """
    for e in range(n.bit_length(), 0, -1):
        root = _integer_root(n, e)
        if root**e == n:
            return (root, e) if root < PRIMALITY_BOUND and is_prime(root) else None
    return None


def _integer_root(n, e):
    """The largest r >= 1 with r**e <= n, for n >= 1."""
    lo, hi = 1, 1 << (n.bit_length() // e + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**e <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def xgcd(a, b):
    """(g, x, y) with x*a + y*b = g, by the extended Euclidean algorithm."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0
