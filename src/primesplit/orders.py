"""Rank-n commutative orders presented by integer multiplication tables.

An Order is a ring on a free Z-module of rank n: a basis whose first
element is the multiplicative identity, and structure constants giving
each product of basis elements as an integer coordinate vector.
Commutativity, the identity law, and associativity on all basis triples
are checked eagerly at construction, so a bad table fails fast.

Integer lattices in canonical triangular (Hermite normal) form live
here too: ``hnf``, the one HNF routine, which ideals use, and the
rational lattices of p-enlargement, kept as integer rows over one
common denominator.  Next to it sits the one GF(p) kernel (echelon
form and left kernel of integer rows mod p) on which the p-maximal
order is built by the Pohst-Zassenhaus Round 2: the p-radical is the
kernel of a Frobenius power, and its ring of multipliers is the next
order.  The same radical is what ``ideals.factor_p_in_order`` splits
into the primes above p.

Round 2 runs on bare multiplication tables, carried from prime to prime
by ``maximal_order``; only the order a call returns is an Order.

Orders and elements are immutable; every operation is a pure function.
Every enlarged order carries the canonical triangular basis of its
lattice, so equal orders have equal bases.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

from .criteria import (
    _dedekind_verdict,
    _rational_root_screen,
    factorization_with_cofactor,
)
from .fppoly import MAX_MODULUS, PRIMALITY_BOUND, PrimeModulus, as_modulus, binary_power, is_prime
from .zpoly import ZPoly, bareiss_determinant, discriminant


class Order:
    """Ring given by an integral basis and structure constants.

    ``table[i][j]`` is the coordinate vector of (basis i) * (basis j).
    ``basis_in_parent`` (when set) records the basis as rational rows in
    the coordinates of the order this one was enlarged from.
    """

    __slots__ = ("n", "labels", "table", "basis_in_parent")

    def __init__(self, table, labels=None, basis_in_parent=None):
        table = tuple(
            tuple(tuple(int(c) for c in vec) for vec in row) for row in table
        )
        n = len(table)
        if n < 1:
            raise ValueError("order must have positive rank")
        for row in table:
            if len(row) != n or any(len(vec) != n for vec in row):
                raise ValueError("multiplication table must be n x n of n-vectors")
        ident = tuple(tuple(1 if k == j else 0 for k in range(n)) for j in range(n))
        if table[0] != ident:
            raise ValueError("first basis element must act as the identity")
        for i in range(n):
            for j in range(i):
                if table[i][j] != table[j][i]:
                    raise ValueError("multiplication table is not symmetric")
        self.n = n
        self.table = table
        self.labels = _basis_labels(labels, n)
        self.basis_in_parent = basis_in_parent
        self._check_associativity()

    def _check_associativity(self):
        products = {
            (i, j): self.mul_matrix(self.table[i][j])
            for i, j in itertools.combinations_with_replacement(range(self.n), 2)
        }
        for i, j, k in itertools.combinations_with_replacement(range(self.n), 3):
            # (e_i e_j) e_k against (e_j e_k) e_i
            if products[i, j][k] != products[j, k][i]:
                raise ValueError(
                    "multiplication table is not associative at (%d,%d,%d)"
                    % (i, j, k)
                )

    def vec_mul(self, u, v):
        """Product of two coordinate vectors through the table."""
        return _vec_mul(self.table, u, v)

    def element(self, coords):
        return OrderElement(self, coords)

    def identity(self):
        return OrderElement(self, _unit(self.n, 0))

    def basis_element(self, i):
        return OrderElement(self, _unit(self.n, i))

    def zero(self):
        return OrderElement(self, (0,) * self.n)

    def mul_matrix(self, coords):
        """Rows are the coordinate vectors of coords * (each basis element)."""
        return _mul_matrix(self.table, coords)

    def __eq__(self, other):
        return isinstance(other, Order) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return "Order(rank=%d, basis=%s)" % (self.n, "/".join(self.labels))


def _vec_mul(table, u, v):
    """Product of two coordinate vectors through a multiplication table."""
    n = len(table)
    out = [0] * n
    for i, ui in enumerate(u):
        if not ui:
            continue
        ti = table[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            c = ui * vj
            tij = ti[j]
            for k in range(n):
                out[k] += c * tij[k]
    return tuple(out)


def _mul_matrix(table, coords):
    """Rows are the coordinate vectors of coords * (each basis element).

    Row j is sum_i coords_i * table[i][j].
    """
    n = len(table)
    rows = [[0] * n for _ in range(n)]
    for ci, ti in zip(coords, table):
        if not ci:
            continue
        for row, tij in zip(rows, ti):
            for k in range(n):
                row[k] += ci * tij[k]
    return rows


def _unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def _basis_labels(labels, n):
    """The given basis labels as a tuple, or 1, a, a^2, ... when none are given."""
    if labels:
        labels = tuple(labels)
    else:
        labels = ("1", "a")[:n] + tuple("a^%d" % i for i in range(2, n))
    if len(labels) != n:
        raise ValueError("need %d basis labels" % n)
    return labels


class OrderElement:
    """Element of an order as an integer coordinate vector."""

    __slots__ = ("order", "coords")

    def __init__(self, order, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != order.n:
            raise ValueError(
                "expected %d coordinates, got %d" % (order.n, len(coords))
            )
        self.order = order
        self.coords = coords

    def _check(self, other):
        if not isinstance(other, OrderElement):
            raise TypeError("expected OrderElement")
        if other.order is not self.order and other.order != self.order:
            raise ValueError("elements belong to different orders")

    def __add__(self, other):
        self._check(other)
        return OrderElement(
            self.order, [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other):
        self._check(other)
        return OrderElement(
            self.order, [a - b for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self):
        return OrderElement(self.order, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, int):
            return OrderElement(self.order, [other * a for a in self.coords])
        self._check(other)
        return OrderElement(self.order, self.order.vec_mul(self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, e):
        return binary_power(self, e, OrderElement.__mul__, self.order.identity())

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, OrderElement)
            and self.order == other.order
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.order, self.coords))

    def __repr__(self):
        return "OrderElement(%s)" % _bracket_entry(self.coords, self.order.labels)


def _bracket_entry(coords, labels):
    """Compact combination of basis labels, e.g. ``2+a-3b``."""
    parts = []
    for c, label in zip(coords, labels):
        if c == 0:
            continue
        mag = abs(c)
        if label == "1":
            body = str(mag)
        else:
            body = label if mag == 1 else "%d%s" % (mag, label)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts) if parts else "0"


def element_mul(a, b):
    return a * b


# -- characteristic polynomials ------------------------------------------

def charpoly_matrix(a):
    """Characteristic polynomial det(t*I - A) of a square integer matrix (ascending list).

    Berkowitz's algorithm (S. J. Berkowitz, IPL 18, 1984): the charpoly
    of each leading principal block follows from the previous one by a
    Toeplitz product, so it costs O(n^4) ring operations and no division.
    """
    n = len(a)
    cp = [1]  # descending coefficients for the leading r x r block
    for r in range(n):
        row = a[r][:r]
        block = [a[i][:r] for i in range(r)]
        v = [a[i][r] for i in range(r)]
        # first column of the Toeplitz matrix: 1, -a_rr, -R*S, -R*B*S, ..., -R*B^(r-1)*S
        toep = [1, -a[r][r]]
        for k in range(r):
            if k:
                v = [sum(x * y for x, y in zip(bi, v)) for bi in block]
            toep.append(-sum(x * y for x, y in zip(row, v)))
        cp = [
            sum(toep[i - j] * cp[j] for j in range(min(i, r) + 1))
            for i in range(r + 2)
        ]
    cp.reverse()
    return cp


def char_poly(elem):
    """Monic degree-n characteristic polynomial of an element as a ZPoly."""
    return ZPoly(charpoly_matrix(elem.order.mul_matrix(elem.coords)))


def element_trace(elem):
    """Trace of multiplication by elem: sum_i coords_i * sum_k table[i][k][k]."""
    return sum(
        c * sum(tik[k] for k, tik in enumerate(ti))
        for c, ti in zip(elem.coords, elem.order.table)
        if c
    )


def element_norm(elem):
    cp = charpoly_matrix(elem.order.mul_matrix(elem.coords))
    n = elem.order.n
    return cp[0] if n % 2 == 0 else -cp[0]


def order_discriminant(order):
    """Determinant of the trace form Tr(basis_i * basis_j), exact."""
    n = order.n
    traces = [
        [element_trace(OrderElement(order, order.table[i][j])) for j in range(n)]
        for i in range(n)
    ]
    return bareiss_determinant(traces)


# -- constructions ---------------------------------------------------------

def order_from_polynomial(f, labels=None):
    """Power-basis order Z[t]/(f) for a monic f of degree >= 2."""
    if not f.is_monic():
        raise ValueError("order requires a monic polynomial")
    if f.degree < 2:
        raise ValueError("order requires degree >= 2")
    return Order(_power_table(f), labels=labels)


def _power_table(f):
    """Multiplication table of the power basis of Z[t]/(f): t^i * t^j = t^(i+j) mod f."""
    n = f.degree
    powers = []
    acc = ZPoly((1,))
    for _ in range(2 * n - 1):
        powers.append(acc.coeffs + (0,) * (n - len(acc.coeffs)))
        acc = (acc * ZPoly((0, 1))) % f
    return [[powers[i + j] for j in range(n)] for i in range(n)]


def element_index(order, theta):
    """|det| of the coordinate matrix of 1, theta, ..., theta^(n-1); 0 if theta does not generate."""
    n = order.n
    rows = []
    acc = order.identity()
    for _ in range(n):
        rows.append(list(acc.coords))
        acc = acc * theta
    return abs(bareiss_determinant(rows))


# -- integer lattices --------------------------------------------------------
#
# A lattice of full rank n is kept as integer rows in the canonical
# triangular form: row i has its last nonzero entry at column i, the
# diagonal is positive and the entries before each pivot are reduced
# into [0, pivot).  A rational lattice is such rows over one positive
# denominator d, with (rows, d) in lowest terms, so equal lattices have
# equal (rows, d).


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hnf(rows, n=None):
    """Canonical triangular basis of the lattice spanned by integer rows.

    Each row is reduced by extended gcds of pivots (last nonzero
    entries) against the basis until it vanishes or takes a free column
    (Cohen, GTM 138, 2.4).  Then, from the highest column down, each
    pivot is made positive and the later rows' entries in its column
    are reduced into [0, pivot).  Requires the span to have full rank n
    (defaults to the row width); raises ValueError on rank deficiency.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("no generators given")
    if n is None:
        n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("rows have inconsistent width")
    basis = [None] * n  # basis[j]: the row with pivot j, cut after its pivot
    for v in rows:
        j = n - 1
        while True:
            while j >= 0 and not v[j]:
                j -= 1
            if j < 0:
                break
            r = basis[j]
            if r is None:
                basis[j] = v[: j + 1]
                break
            a, b = r[j], v[j]
            if b % a:
                g, s, t = _xgcd(a, b)
                basis[j] = [s * x + t * y for x, y in zip(r, v)]
                a, b = a // g, b // g
                v = [a * y - b * x for x, y in zip(r, v)]
            else:
                q = b // a
                v = [y - q * x for x, y in zip(r, v)]
    rank = n - basis.count(None)
    if rank != n:
        raise ValueError("generators span a rank-%d lattice, need %d" % (rank, n))
    for c in range(n - 1, -1, -1):
        r = basis[c]
        if r[c] < 0:
            r[:] = [-x for x in r]
        pivot = r[c]
        for s in basis[c + 1 :]:
            q = s[c] // pivot
            if q:
                s[: c + 1] = [x - q * y for x, y in zip(s, r)]
    return tuple(tuple(r) + (0,) * (n - 1 - i) for i, r in enumerate(basis))


def _lattice_coords(basis, vec):
    """Integer y with sum(y_i * basis_i) = vec in a canonical triangular basis, or None."""
    v = list(vec)
    y = [0] * len(basis)
    for i in range(len(basis) - 1, -1, -1):
        q, r = divmod(v[i], basis[i][i])
        if r:
            return None
        if q:
            y[i] = q
            for j in range(i + 1):
                v[j] -= q * basis[i][j]
    return y


def lattice_contains(basis, vec):
    """Membership of an integer vector in a canonical triangular lattice basis."""
    return _lattice_coords(basis, vec) is not None


def _lattice(rows, d):
    """Canonical (rows, d) of the lattice spanned by the integer rows divided by d."""
    return _lowest_terms(hnf(rows), d)


def _lowest_terms(rows, d):
    g = gcd(d, *(c for row in rows for c in row))
    return [[c // g for c in row] for row in rows], d // g


def _over_common_denominator(rows):
    """Rational rows as (integer rows, d), d the least common denominator."""
    rows = [[Fraction(c) for c in row] for row in rows]
    d = lcm(*(c.denominator for row in rows for c in row))
    return [[int(c * d) for c in row] for row in rows], d


def _rational_rows(rows, d):
    """(integer rows, d) as exact rational rows, the form of ``basis_in_parent``."""
    return tuple(tuple(Fraction(c, d) for c in row) for row in rows)


def _identity_rows(n):
    return [_unit(n, i) for i in range(n)]


# -- orders on rational lattices ----------------------------------------------

def order_from_rational_basis(order, rows, labels=None):
    """Build the order spanned by rational combinations of an existing basis.

    `rows` are coordinate vectors in `order`; the span must be a subring
    containing 1 (checked: the rebuilt multiplication table must be
    integral and pass the usual construction checks).  The result
    carries the canonical triangular basis in ``basis_in_parent``.
    """
    basis, d = _lattice(*_over_common_denominator(rows))
    table = _table_on_lattice(order.table, basis, d)
    return _order_on_lattice(order.labels, basis, d, table, labels)


def _table_on_lattice(table, basis, d):
    """Multiplication table of the lattice basis/d of a ring, from triangular solves."""
    n = len(table)
    # (basis_i/d) * (basis_j/d) has integer coordinates y in the new basis
    # exactly when y * (d*basis) = basis_i * basis_j has an integer solution
    scaled = [[d * c for c in row] for row in basis]
    out = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        coords = _lattice_coords(scaled, _vec_mul(table, basis[i], basis[j]))
        if coords is None:
            raise ValueError("span is not closed under multiplication")
        out[i][j] = out[j][i] = tuple(coords)  # the parent ring is commutative
    return out


def _order_on_lattice(parent_labels, basis, d, table, labels=None):
    """The Order with multiplication table `table` on the lattice basis/d of a parent."""
    return Order(
        table,
        labels=labels or _enlarged_labels(parent_labels, basis, d),
        basis_in_parent=_rational_rows(basis, d),
    )


def _enlarged_labels(parent_labels, basis, d):
    """A parent label for each basis row equal to d times a unit vector, else w<i>."""
    out = []
    for i, row in enumerate(basis):
        for j, label in enumerate(parent_labels):
            if all(c == (d if k == j else 0) for k, c in enumerate(row)):
                out.append(label)
                break
        else:
            out.append("w%d" % i)
    return tuple(out)


# -- linear algebra over GF(p) ----------------------------------------------

def _echelon_mod_p(rows, p):
    """Reduced row echelon form of integer rows over GF(p): (nonzero rows, pivots)."""
    out, pivots = [], []
    for vec in rows:
        v = [c % p for c in vec]
        for r, j in zip(out, pivots):
            if v[j]:
                c = v[j]
                v = [(x - c * y) % p for x, y in zip(v, r)]
        j = next((k for k, x in enumerate(v) if x), None)
        if j is None:
            continue
        inv = pow(v[j], -1, p)
        v = [x * inv % p for x in v]
        for i, r in enumerate(out):
            if r[j]:
                c = r[j]
                out[i] = [(x - c * y) % p for x, y in zip(r, v)]
        out.append(v)
        pivots.append(j)
    return out, pivots


def _left_kernel_mod_p(rows, p):
    """Basis over GF(p) of {x : sum_i x_i * rows_i = 0 mod p}, one vector per free column."""
    m = len(rows)
    echelon, pivots = _echelon_mod_p(zip(*rows), p)
    out = []
    for free in sorted(set(range(m)) - set(pivots)):
        x = [0] * m
        x[free] = 1
        for r, j in zip(echelon, pivots):
            x[j] = -r[free] % p
        out.append(x)
    return out


def _pow_mod_p(table, coords, e, p):
    """Coordinates of (coords-combination)^e modulo p, through a multiplication table."""
    return binary_power(
        tuple(c % p for c in coords),
        e,
        lambda a, b: tuple(c % p for c in _vec_mul(table, a, b)),
        _unit(len(table), 0),
    )


# -- p-maximal orders by Round 2 ----------------------------------------------
#
# The rings of Round 2 are tables, not Orders.  ``_table_on_lattice``
# checks each one closed under the parent's multiplication, so it is a
# subring and inherits commutativity and associativity; the Order built
# from the last one checks everything again.

def _radical_mod_p(table, p):
    """Canonical rows of the p-radical: p*order plus the kernel of x -> x^(p^k), p^k >= n.

    The kernel is taken on order/(p*order), where x^(p^k) vanishes
    exactly on the nilpotents.
    """
    n = len(table)
    q = p
    while q < n:
        q *= p
    frobenius = [_pow_mod_p(table, _unit(n, i), q, p) for i in range(n)]
    return hnf(
        [[p * c for c in unit] for unit in _identity_rows(n)]
        + _left_kernel_mod_p(frobenius, p)
    )


def _multipliers_mod_p(table, p, radical):
    """Basis mod p of U/(p*order), U = {x : x*I inside p*I}, I the p-radical.

    `radical` holds the canonical rows of I.  The ring of multipliers of
    I is U/p, so an empty result proves the order p-maximal (Cohen,
    GTM 138, 6.1.8 and 6.1.10).
    """
    # row i: basis_i * radical_j for every j, in radical coordinates mod p
    rows = [[] for _ in table]
    for v in radical:
        for row, prod in zip(rows, _mul_matrix(table, v)):
            row.extend(c % p for c in _lattice_coords(radical, prod))
    return _left_kernel_mod_p(rows, p)


def _p_maximal_lattice(table, p, basis, d, current):
    """Continue Round 2 at p from the ring on the lattice basis/d of `table`.

    `current` is that ring's own multiplication table.  Returns
    (rows, d, table'): the canonical lattice of the p-maximal ring over
    it, in `table`'s coordinates, and that ring's multiplication table.
    """
    n = len(table)
    while True:
        kernel = _multipliers_mod_p(current, p, _radical_mod_p(current, p))
        if not kernel:
            return basis, d, current
        # the next ring is (p*current + kernel)/p, written over table's basis
        rows = [[p * c for c in row] for row in basis] + [
            [sum(x * row[j] for x, row in zip(u, basis)) for j in range(n)]
            for u in kernel
        ]
        basis, d = _lattice(rows, d * p)
        current = _table_on_lattice(table, basis, d)


def p_enlarge(order, modulus):
    """Smallest p-maximal order containing this one, by Pohst-Zassenhaus Round 2.

    Each step replaces the order by the ring of multipliers of its
    p-radical, until that ring is the order itself.  The result's
    ``basis_in_parent`` holds its canonical triangular basis in the
    coordinates of the input order.
    """
    modulus = as_modulus(modulus)
    enlarged = _p_maximal_lattice(
        order.table, modulus.p, _identity_rows(order.n), 1, order.table
    )
    return _order_on_lattice(order.labels, *enlarged)


DEFAULT_TRIAL_BOUND = 10**6  # for the discriminant in maximal_order and the CLI


def trial_factor(n, bound):
    """Factor |n| by trial division up to `bound`; raises when the tail resists.

    The tail after trial division is accepted when it is 1, a prime
    that ``is_prime`` decides (below PRIMALITY_BOUND), or a prime power
    (detected exactly); anything else exceeds the bound.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out = {}
    d = 2
    while d * d <= n and d <= bound:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if d * d > n or n < PRIMALITY_BOUND and is_prime(n):
            out[n] = out.get(n, 0) + 1
            return out
        power = _prime_power(n)
        if power is None:
            raise ValueError(
                "factorization of %d exceeds the trial-division bound %d" % (n, bound)
            )
        root, e = power
        out[root] = out.get(root, 0) + e
    return out


def _prime_power(n):
    """(q, e) with n = q^e for a prime q < MAX_MODULUS, else None.

    The largest e with an exact e-th root gives the only candidate q,
    so the cost depends on the bit length of n, not on q.  A q of
    MAX_MODULUS or more is no usable modulus, so it gives None.
    """
    for e in range(n.bit_length(), 0, -1):
        root = _integer_nth_root(n, e)
        if root**e == n:
            return (root, e) if root < MAX_MODULUS and is_prime(root) else None
    return None


def _integer_nth_root(n, e):
    lo, hi = 1, 1 << (n.bit_length() // e + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**e <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def maximal_order(f, bound=DEFAULT_TRIAL_BOUND, labels=None):
    """Maximal order of Q[t]/(f) and its discriminant (the fundamental number).

    Runs Round 2 from Z[t]/(f) at every prime q whose square divides
    disc(f) and that Dedekind's criterion says divides the index of
    Z[t]/(f), each prime continuing from the ring the last one left;
    at the other primes the power basis is already q-maximal.  The
    discriminant must factor by trial division at the given bound.
    Returns (order, D); the order's ``basis_in_parent`` is its
    canonical triangular basis in power-basis coordinates (identity
    rows when no prime enlarges it).
    """
    if not f.is_monic():
        raise ValueError("maximal order requires a monic polynomial")
    _rational_root_screen(f)
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("polynomial has a repeated root (discriminant 0)")
    factors = trial_factor(disc, bound)
    labels = _basis_labels(labels, f.degree)
    table = _power_table(f)
    enlarged = (_identity_rows(f.degree), 1, table)
    for q in sorted(factors):
        if factors[q] < 2:
            continue
        modulus = PrimeModulus(q)
        # Enlarging at other primes leaves the q-index alone, so when
        # q does not divide the index of Z[t]/(f) Round 2 finds nothing.
        verdict = _dedekind_verdict(modulus, *factorization_with_cofactor(f, modulus))
        if verdict.divisible:
            enlarged = _p_maximal_lattice(table, q, *enlarged)
    order = _order_on_lattice(labels, *enlarged)
    return order, order_discriminant(order)


def cubic_family(a, b, ap, bp):
    """Rank-3 order on basis 1, alpha, beta with rational product alpha*beta.

    Structure constants: alpha^2 = ap*alpha + b*beta - b*bp,
    beta^2 = a*alpha + bp*beta - a*ap, alpha*beta = a*b.  The four
    parameters must be coprime.  Returns (order, discriminant) where
    the discriminant comes from the closed form
    ap^2*bp^2 + 18*a*b*ap*bp - 4*a*ap^3 - 4*b*bp^3 - 27*a^2*b^2,
    cross-checked against the trace form.
    """
    g = 0
    for v in (a, b, ap, bp):
        g = gcd(g, v)
    if g != 1:
        raise ValueError("parameters must be coprime, gcd is %d" % g)
    table = [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 1, 0), (-b * bp, ap, b), (a * b, 0, 0)],
        [(0, 0, 1), (a * b, 0, 0), (-a * ap, a, bp)],
    ]
    order = Order(table, labels=("1", "a", "b"))
    disc = (
        ap * ap * bp * bp
        + 18 * a * b * ap * bp
        - 4 * a * ap**3
        - 4 * b * bp**3
        - 27 * a * a * b * b
    )
    actual = order_discriminant(order)
    if actual != disc:
        raise AssertionError(
            "closed-form discriminant %d disagrees with trace form %d" % (disc, actual)
        )
    return order, disc
