"""Exact arithmetic the benchmark needs, written independently of primesplit.

The corpus generator and the answer verifiers must not trust the code
they measure, so every fact they rely on (discriminants, the Dedekind
index criterion, irreducibility mod p, products mod p) is recomputed
here from first principles.  Integer polynomials are ascending
coefficient lists; polynomials over GF(p) are ascending lists with
entries in [0, p) and no trailing zero ([] is the zero polynomial).
"""

from fractions import Fraction

# -- integers -----------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound):
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(bound) if sieve[i]]


def bareiss_det(matrix):
    """Exact integer determinant by fraction-free elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * piv - aik * row_k[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1] if n else 1


def fraction_det(matrix):
    """Exact determinant of a rational matrix by Gaussian elimination."""
    a = [[Fraction(c) for c in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def solve_rational(rows, target):
    """x with sum(x_i * rows_i) = target for a square invertible rational matrix."""
    n = len(rows)
    # columns of the system are the rows, so solve rows^T x = target
    aug = [[Fraction(rows[j][i]) for j in range(n)] + [Fraction(target[i])] for i in range(n)]
    for k in range(n):
        piv = next(i for i in range(k, n) if aug[i][k])
        aug[k], aug[piv] = aug[piv], aug[k]
        inv = 1 / aug[k][k]
        aug[k] = [c * inv for c in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [aug[i][n] for i in range(n)]


# -- integer polynomials --------------------------------------------------------

def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def zp_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def zp_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def zp_mod_monic(a, f):
    """Remainder of a modulo the monic f (exact over Z)."""
    a = list(a)
    n = len(f) - 1
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k]
        if c:
            for i in range(n + 1):
                a[k - n + i] -= c * f[i]
    return trim(a[:n])


def discriminant(f):
    """Discriminant of a monic f: (-1)**(n(n-1)/2) * det Sylvester(f, f')."""
    n = len(f) - 1
    if n == 1:
        return 1
    df = [i * f[i] for i in range(1, n + 1)]
    size = 2 * n - 1
    fs, gs = f[::-1], df[::-1]
    rows = [[0] * i + fs + [0] * (size - n - 1 - i) for i in range(n - 1)]
    rows += [[0] * i + gs + [0] * (size - n - i) for i in range(n)]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * bareiss_det(rows)


def has_integer_root(f):
    """True when the monic f has a root in Z (the root divides f(0))."""
    a0 = abs(f[0])
    if a0 == 0:
        return True
    d = 1
    while d * d <= a0:
        if a0 % d == 0:
            for r in (d, -d, a0 // d, -(a0 // d)):
                if zp_eval(f, r) == 0:
                    return True
        d += 1
    return False


def format_zpoly(f, var="t"):
    """Text like ``t^3 - 2*t + 5`` that the CLI parses."""
    parts = []
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            x = var if e == 1 else "%s^%d" % (var, e)
            body = x if mag == 1 else "%d*%s" % (mag, x)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def parse_zpoly(text, var="t"):
    """Parse the CLI's univariate polynomial text into an ascending list."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    terms, start = [], 0
    for i in range(1, len(s) + 1):
        if i == len(s) or s[i] in "+-":
            terms.append(s[start:i])
            start = i
    out = {}
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        if var in body:
            head, _, tail = body.partition(var)
            head = head.rstrip("*")
            coeff = int(head) if head else 1
            exp = int(tail[1:]) if tail.startswith("^") else 1
            if tail and not tail.startswith("^"):
                raise ValueError("bad term %r" % term)
        else:
            coeff, exp = int(body), 0
        out[exp] = out.get(exp, 0) + sign * coeff
    return trim([out.get(i, 0) for i in range(max(out) + 1)])


# -- polynomials over GF(p) -----------------------------------------------------

def fp(f, p):
    return trim([c % p for c in f])


def fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % p for c in out]


def fp_divmod(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] * inv % p
        if c:
            q[k - db] = c
            for i in range(db + 1):
                a[k - db + i] = (a[k - db + i] - c * b[i]) % p
    return trim(q), trim(a[:db])


def fp_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def fp_gcd(a, b, p):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    return fp_monic(a, p) if a else []


def fp_powmod(base, e, mod, p):
    result, base = [1], fp_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = fp_divmod(fp_mul(result, base, p), mod, p)[1]
        base = fp_divmod(fp_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def fp_is_irreducible(f, p):
    """Berlekamp's test for a monic f over GF(p).

    f is irreducible exactly when it is squarefree and the Frobenius
    map x -> x^p fixes only GF(p) in GF(p)[x]/(f): rank(Q - I) = deg f - 1.
    """
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    df = trim([i * f[i] % p for i in range(1, n + 1)])
    if not df or len(fp_gcd(f, df, p)) > 1:
        return False
    xp = fp_powmod([0, 1], p, f, p)
    rows, power = [], [1]
    for i in range(n):
        row = power + [0] * (n - len(power))
        row[i] = (row[i] - 1) % p
        rows.append(row)
        power = fp_divmod(fp_mul(power, xp, p), f, p)[1]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(n):
            if r != rank and rows[r][col]:
                c = rows[r][col] * inv % p
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank == n - 1


def fp_radical(f, p):
    """Product of the distinct monic irreducible factors of a monic f over GF(p)."""
    rad = [1]
    g = list(f)
    while len(g) > 1:
        dg = trim([i * g[i] % p for i in range(1, len(g))])
        if not dg:  # g(x) = h(x^p) = h(x)^p over the prime field
            g = g[::p]
            continue
        w = fp_divmod(g, fp_gcd(g, dg, p), p)[0]
        rad = fp_mul(rad, w, p)
        while True:
            y = fp_gcd(g, w, p)
            if len(y) == 1:
                break
            g = fp_divmod(g, y, p)[0]
        g = fp_monic(g, p)
    return rad


def index_divisible(f, p):
    """Dedekind's criterion: does p divide [O_K : Z[theta]] for monic f?

    With fbar = f mod p, g the radical of fbar and h = fbar / g, write
    F = (lift(g) * lift(h) - f) / p.  Then p divides the index exactly
    when gcd(F mod p, g, h) is not 1 (Cohen, GTM 138, Thm 6.1.4).
    """
    fb = fp(f, p)
    g = fp_radical(fb, p)
    h = fp_divmod(fb, g, p)[0]
    diff = zp_mul(g, h)
    diff = diff + [0] * (len(f) - len(diff))
    big_f = [(a - b) // p for a, b in zip(diff, f)]
    return len(fp_gcd(fp_gcd(fp(big_f, p), g, p), h, p)) > 1


def count_monic_irreducibles(p, d):
    """Necklace count (1/d) * sum_{k | d} mu(k) * p^(d/k)."""

    def mobius(k):
        m, q = 1, 2
        while q * q <= k:
            if k % q == 0:
                k //= q
                if k % q == 0:
                    return 0
                m = -m
            q += 1
        return -m if k > 1 else m

    return sum(mobius(k) * p ** (d // k) for k in range(1, d + 1) if d % k == 0) // d
