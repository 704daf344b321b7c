"""Seeded query corpora for the three benchmark workloads.

``build(workload, seed)`` returns a list of Query objects.  The program
under test only ever sees ``Query.argv``; the other fields are what the
verifiers and the input-property report need.  Every random choice
comes from ``random.Random("<workload>:<seed>")``, so one seed always
yields the same corpus.

Each workload is stratified: the multiset of structural cells (command,
degree, size of the constant term, prime size, bad prime of the
field, ...) is the same for every seed and only the concrete
polynomials and primes inside a cell are random.  That keeps the cost
mix of a pass, and so the end-to-end figures, steady from seed to seed
without choosing any input by its measured time.
"""

import random
from dataclasses import dataclass

from perfbench import arith

ENUM_BOUND = 10**4  # the CLI's default p^n enumeration bound
LARGE_PRIME_MAX = 2**31 - 1
_SMALL_PRIMES = arith.primes_below(100)
_TRIAL_PRIMES = arith.primes_below(1000)


@dataclass(frozen=True)
class Query:
    argv: tuple  # passed to the CLI after "--json"
    f: tuple  # the polynomial, ascending integer coefficients
    p: int = None
    wasted: bool = False  # order-route: some r with r^2 | disc has Z[theta] r-maximal

    @property
    def command(self):
        return self.argv[0]

    @property
    def degree(self):
        return len(self.f) - 1


def _balanced(rng, values, count):
    """`count` items cycling through `values`, shuffled (exact shares per seed)."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _stratified(rng, lo, hi, count):
    """One uniform draw from each of `count` equal slices of [lo, hi), shuffled."""
    width = (hi - lo) / count
    out = [lo + (k + rng.random()) * width for k in range(count)]
    rng.shuffle(out)
    return out


def _random_prime(rng, log2):
    """A random prime near 2^log2, below 2^31."""
    bits = int(log2) + 1
    lo, hi = 1 << (bits - 1), min((1 << bits) - 1, LARGE_PRIME_MAX)
    while True:
        x = rng.randint(lo, hi) | 1
        while x <= hi and not arith.is_prime(x):
            x += 2
        if x <= hi:
            return x


# -- poly-route -------------------------------------------------------------------

POLY_COMMANDS = ("split-prime", "dedekind-criterion", "factor-mod-p", "discriminant")
POLY_DEGREES = tuple(range(4, 17))
POLY_A0_LOG2 = (0, 20)  # |a0| is log-uniform up to 2^20
POLY_LARGE_PRIME_LOG2 = (7, 31)  # large primes are log-uniform up to 2^31
POLY_PRIMES_PER_DEGREE = 5  # per command and degree: 5 small primes and 5 large ones


def _poly_route(rng):
    out = []
    for cmd in POLY_COMMANDS:
        # Stratified per command and degree, so the joint mix of degree and
        # prime size, which sets the cost of fp_factor, is the same for every seed.
        cells = []
        for n in POLY_DEGREES:
            cells += [(n, x) for x in _stratified(rng, *POLY_LARGE_PRIME_LOG2, POLY_PRIMES_PER_DEGREE)]
            cells += [(n, None)] * POLY_PRIMES_PER_DEGREE
        a0_log2 = _stratified(rng, *POLY_A0_LOG2, len(cells))
        for (n, p_log2), a0 in zip(cells, a0_log2):
            while True:
                f = [rng.choice((-1, 1)) * int(2**a0)]
                for _ in range(1, n):
                    bits = rng.randint(0, 20)
                    f.append(rng.choice((-1, 1)) * rng.randint(0, (1 << bits) - 1))
                f.append(1)
                if arith.has_integer_root(f):
                    continue
                disc = arith.discriminant(f)
                if disc:
                    break
            while True:
                p = rng.choice(_SMALL_PRIMES) if p_log2 is None else _random_prime(rng, p_log2)
                if disc % (p * p):
                    break
            text = arith.format_zpoly(f)
            argv = (cmd, text) if cmd == "discriminant" else (cmd, text, str(p))
            out.append(Query(argv, tuple(f), None if cmd == "discriminant" else p))
    rng.shuffle(out)
    return out


# -- order-route ------------------------------------------------------------------

# (degree, bad prime r, Z[theta] r-maximal?, maximal-order count, split-prime count).
# r is the largest prime whose square divides disc(f); smaller bad primes may
# occur.  A "wasted" field is r-maximal, so its p-enlargement scan at r finds
# nothing (the t^5 - 2 case); split-prime needs index_divisible at r, so those
# cells are "divisible" only.
ORDER_CELLS = (
    (3, 2, False, 8, 12),
    (3, 3, False, 6, 8),
    (3, 7, False, 8, 10),
    (3, 13, False, 8, 10),
    (3, 19, False, 6, 8),
    (3, 19, True, 6, 0),
    (4, 2, False, 6, 8),
    (4, 3, False, 8, 10),
    (4, 5, False, 8, 10),
    (4, 7, False, 6, 8),
    (4, 7, True, 6, 0),
    (5, 2, False, 8, 10),
    (5, 3, False, 6, 8),
    (5, 3, True, 6, 0),
    (5, 5, True, 2, 0),
    (6, 2, False, 2, 2),
    (6, 2, True, 2, 0),
)
# The cost of the factorial charpolys depends on how many table entries
# are zero, so candidates draw nonzero coefficients to keep it even.
_NONZERO = (-3, -2, -1, 1, 2, 3)


def _shift(f, s):
    """f(t + s)."""
    out = [0] * len(f)
    power = [1]
    for i, c in enumerate(f):
        if i:
            power = arith.zp_mul(power, [s, 1])
        for j, x in enumerate(power):
            out[j] += c * x
    return out


def _order_candidate(rng, n, r, wasted):
    if wasted:
        # Eisenstein at r: totally ramified, so Z[theta] is r-maximal
        k = [rng.choice(_NONZERO) for _ in range(n)]
        while k[0] % r == 0:
            k[0] = rng.choice(_NONZERO)
        f = [r * c for c in k] + [1]
    else:
        # f = (t-a)^2 g mod r with f(a) = 0 mod r^2: r divides the index
        a = rng.randrange(r)
        g = [rng.choice(_NONZERO) for _ in range(n - 2)] + [1]
        h = [rng.choice((-1, 1)) for _ in range(n)] + [0]
        f = arith.zp_mul(arith.zp_mul([-a, 1], [-a, 1]), g)
        f = [x + r * r * y for x, y in zip(f, h)]
    return _shift(f, rng.choice((-2, -1, 1, 2)))


def bad_primes(disc, n):
    """Primes r with r^2 | disc, or None when disc is out of the corpus' scope.

    Out of scope: a prime above the trial primes might divide disc twice
    (the cofactor left after trial division is composite and not proven
    squarefree), or some bad r has r^n above the CLI's enumeration bound.
    """
    d, bad = abs(disc), []
    for r in _TRIAL_PRIMES:
        if d % (r * r) == 0:
            bad.append(r)
        while d % r == 0:
            d //= r
    # d has no prime factor below 1000; below 10^9 it is 1, q, q*q' or q^2
    if d > 1 and not arith.is_prime(d):
        if d >= 10**9 or round(d**0.5) ** 2 == d:
            return None
    if any(r**n > ENUM_BOUND for r in bad):
        return None
    return bad


def _irreducible_over_q(f, disc):
    """Sufficient test: f is irreducible mod some small prime not dividing disc."""
    return any(
        arith.fp_is_irreducible(arith.fp(f, ell), ell)
        for ell in _SMALL_PRIMES[:15]
        if disc % ell
    )


def _order_field(rng, n, r, wasted):
    while True:
        f = _order_candidate(rng, n, r, wasted)
        if f[0] == 0:
            continue
        disc = arith.discriminant(f)
        if disc == 0:
            continue
        bad = bad_primes(disc, n)
        if not bad or max(bad) != r:
            continue
        if arith.index_divisible(f, r) == wasted:
            continue
        if not _irreducible_over_q(f, disc):
            continue
        any_wasted = any(not arith.index_divisible(f, q) for q in bad)
        return f, any_wasted


def _order_route(rng):
    out = []
    for n, r, wasted, n_max, n_split in ORDER_CELLS:
        for _ in range(n_max):
            f, any_wasted = _order_field(rng, n, r, wasted)
            argv = ("maximal-order", arith.format_zpoly(f))
            out.append(Query(argv, tuple(f), None, any_wasted))
        for _ in range(n_split):
            f, any_wasted = _order_field(rng, n, r, wasted)
            argv = ("split-prime", arith.format_zpoly(f), str(r))
            out.append(Query(argv, tuple(f), r, any_wasted))
    rng.shuffle(out)
    return out


# -- forms ----------------------------------------------------------------------------

FORM_RANKS = (3, 4, 5)
FORM_QUERIES_PER_RANK = 40
FORM_EVAL_BOUND = 10**6  # common_value_divisor's default p^(n-1) bound
FORM_MAX_PRIME = 50


def _forms(rng):
    out = []
    for n in FORM_RANKS:
        primes = [p for p in _SMALL_PRIMES if p <= FORM_MAX_PRIME and p ** (n - 1) <= FORM_EVAL_BOUND]
        for _ in range(FORM_QUERIES_PER_RANK):
            while True:
                f = [rng.randint(-9, 9) for _ in range(n)] + [1]
                if f[0] and arith.discriminant(f):
                    break
            p = rng.choice(primes)
            argv = ("index-form", arith.format_zpoly(f), "--divisor", str(p))
            out.append(Query(argv, tuple(f), p))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "poly-route": _poly_route,
    "order-route": _order_route,
    "forms": _forms,
}


def build(workload, seed):
    """The corpus of one workload for one seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))


def input_properties(workload, queries):
    """Shares of the input properties each workload is built to vary."""
    n = len(queries)
    hist = {}
    for q in queries:
        hist[q.degree] = hist.get(q.degree, 0) + 1
    props = {"queries": n, "degree_histogram": dict(sorted(hist.items()))}
    commands = {}
    for q in queries:
        commands[q.command] = commands.get(q.command, 0) + 1
    props["commands"] = commands
    if workload == "poly-route":
        props["share_abs_a0_gt_1e4"] = sum(abs(q.f[0]) > 10**4 for q in queries) / n
        props["share_p_ge_2^16"] = sum(q.p is not None and q.p >= 1 << 16 for q in queries) / n
    elif workload == "order-route":
        props["share_fields_with_wasted_p_enlarge_prime"] = sum(q.wasted for q in queries) / n
    return props
