"""Rank-n commutative orders presented by integer multiplication tables.

An Order is a ring on a free Z-module of rank n: a basis whose first
element is the multiplicative identity, and structure constants giving
each product of basis elements as an integer coordinate vector.
``Order(table, labels)`` checks an outside table (identity, symmetry,
associativity) when built; derived orders are rings by construction.

Enlarged orders are rational lattices over the parent in the canonical
triangular form of ``lattice``, and the p-maximal order is built by the
Pohst-Zassenhaus Round 2 on ``lattice``'s GF(p) kernel: the p-radical
is the kernel of a power of the Frobenius matrix (``radical_mod_p``),
and its ring of multipliers (``multipliers_mod_p``) is the next order.
``ideals.factor_p_in_order`` shares these steps and their subspaces of
order/(p*order), each a reduced echelon pair: the radical checks
p-maximality and starts each prime from its power, and the subalgebra
S = GF(p)^g, the kernel of Frobenius minus 1, holds the idempotents.

Round 2 stops on the discriminant.  An enlargement of index p^k
divides the discriminant by p^(2k), so a ring with v_p(disc) < 2 is
p-maximal (Cohen, GTM 138, 6.1); each Round 2 step of index p^k takes
2k from v, and the loop runs only while v >= 2 (or until the ring of
multipliers adds nothing).  ``maximal_order`` does not start Round 2
from Z[t]/(f).  At each prime q that Dedekind's criterion says divides
the index, ``criteria.ore_lattice`` gives Ore's first-order ring, of
index q^ind, which contains the first Round 2 ring.  Where f is
q-regular, q^ind is the q-part of the index and Round 2 is skipped;
elsewhere it continues from Ore's ring with v = v_q(disc f) - 2*ind.
Round 2 runs on bare multiplication tables, carried from prime to prime
by ``maximal_order``; only the order a call returns is an Order, and it
records that it is maximal, so the split runs no Round 2 step on it.

Orders and elements are immutable; every operation is a pure function.
Every enlarged order carries the canonical triangular basis of its
lattice, so equal orders have equal bases.  Trial factoring of the
discriminant comes from ``integers``.
"""

import itertools
import operator
from math import gcd

from .criteria import dedekind_verdict, ore_lattice, rational_root_screen
from .fppoly import as_modulus, binary_power
from .integers import DEFAULT_TRIAL_BOUND, trial_factor, valuation
from .lattice import (
    combine_rows_mod_p,
    identity_rows,
    lattice_divmod,
    lattice_index,
    lattice_rows_mod_p,
    left_kernel_mod_p,
    rational_lattice,
    unit,
)
from .textfmt import bracket_entry
from .zpoly import ZPoly, bareiss_determinant, discriminant


class Order:
    """Ring given by an integral basis and structure constants.

    ``table[i][j]`` is the coordinate vector of (basis i) * (basis j).
    The constructor checks a table from outside the library; the orders
    the library derives, power tables and lattices closed in a ring, are
    rings and are built unchecked (``_proved_order``).  On an enlarged
    order, ``basis_in_parent`` is the canonical pair (rows, d) of
    ``lattice.rational_lattice``: the basis is rows/d in parent coordinates.
    """

    __slots__ = ("n", "labels", "table", "basis_in_parent", "_maximal")

    def __init__(self, table, labels=None):
        table = tuple(
            tuple(tuple(map(operator.index, vec)) for vec in row) for row in table
        )
        n = len(table)
        if n < 1:
            raise ValueError("order must have positive rank")
        for row in table:
            if len(row) != n or any(len(vec) != n for vec in row):
                raise ValueError("multiplication table must be n x n of n-vectors")
        if table[0] != identity_rows(n):
            raise ValueError("first basis element must act as the identity")
        if tuple(zip(*table)) != table:
            raise ValueError("multiplication table is not symmetric")
        self._build(table, _basis_labels(labels, n))
        self._check_associativity()

    def _build(self, table, labels, basis_in_parent=None, maximal=False):
        self.n, self.table, self.labels = len(table), table, labels
        self.basis_in_parent = basis_in_parent
        self._maximal = maximal  # recorded by maximal_order; == and hash ignore it
        return self

    def _check_associativity(self):
        # (e_i e_j) e_k = sum_m table[i][j][m] (e_m e_k), each e_m e_k packed
        # into col[k][m] with balanced w-bit slots.  A coordinate of either
        # side is a sum of n products of entries, below 2^(w-1) in size, so
        # the packed sides are equal exactly when the vectors are.  A triple
        # holding e_0 = 1 is settled by the identity row and symmetry.
        table, n = self.table, self.n
        top = max(abs(c) for row in table for vec in row for c in vec)
        w = (n * top * top).bit_length() + 2
        col = [
            [sum(c << (w * s) for s, c in enumerate(table[m][k])) for m in range(n)]
            for k in range(n)
        ]
        for i, j, k in itertools.combinations_with_replacement(range(1, n), 3):
            # (e_i e_j) e_k against (e_j e_k) e_i
            if sum(map(operator.mul, table[i][j], col[k])) != sum(
                map(operator.mul, table[j][k], col[i])
            ):
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
        return OrderElement(self, unit(self.n, 0))

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
        coords = tuple(map(operator.index, coords))
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
        return self + -other

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
        return "OrderElement(%s)" % bracket_entry(self.coords, self.order.labels)


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


def order_discriminant(order):
    """Determinant of the trace form Tr(basis_i * basis_j), exact.

    With t_k = Tr(basis_k) = sum_j table[k][j][j], linearity of the
    trace gives Tr(basis_i * basis_j) = sum_k table[i][j][k] * t_k, so
    the form costs O(n^3) rather than n^2 traces of O(n^2) each.
    """
    traces = [sum(tk[j][j] for j in range(len(tk))) for tk in order.table]
    form = [
        [sum(map(operator.mul, tij, traces)) for tij in ti] for ti in order.table
    ]
    return bareiss_determinant(form)


# -- constructions ---------------------------------------------------------

def order_from_polynomial(f, labels=None):
    """Power-basis order Z[t]/(f) for a monic f of degree >= 2."""
    if not f.is_monic():
        raise ValueError("order requires a monic polynomial")
    if f.degree < 2:
        raise ValueError("order requires degree >= 2")
    return _proved_order(_power_table(f), labels)


def _power_table(f):
    """Multiplication table of the power basis of Z[t]/(f): t^i * t^j = t^(i+j) mod f.

    t^(k+1) mod f is t^k mod f shifted up one place, less its top
    coefficient times f's lower coefficients (f is monic).
    """
    n = f.degree
    low = f.coeffs[:n]
    acc = (1,) + (0,) * (n - 1)
    powers = [acc]
    for _ in range(2 * n - 2):
        top = acc[-1]
        acc = (0,) + acc[:-1]
        if top:
            acc = tuple(a - top * c for a, c in zip(acc, low))
        powers.append(acc)
    return tuple(tuple(powers[i + j] for j in range(n)) for i in range(n))


def element_index(theta):
    """|det| of the coordinates of 1, theta, ..., theta^(n-1); 0 if theta does not generate."""
    rows = []
    acc = theta.order.identity()
    for _ in range(theta.order.n):
        rows.append(list(acc.coords))
        acc = acc * theta
    return abs(bareiss_determinant(rows))


# -- orders on rational lattices ----------------------------------------------

def _table_on_lattice(table, basis, d):
    """Multiplication table of the lattice basis/d of a ring, from triangular solves."""
    n = len(table)
    # (basis_i/d) * (basis_j/d) has integer coordinates y in the new basis
    # exactly when y * (d*basis) = basis_i * basis_j has an integer solution
    scaled = [[d * c for c in row] for row in basis]
    out = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        coords, residue = lattice_divmod(scaled, _vec_mul(table, basis[i], basis[j]))
        if any(residue):
            # every lattice here is built by the library, so this is a bug
            raise AssertionError("span is not closed under multiplication")
        out[i][j] = out[j][i] = tuple(coords)  # the parent ring is commutative
    return tuple(map(tuple, out))


def _proved_order(table, labels=None, lattice=None, maximal=False):
    """The Order on a power table or a ``_table_on_lattice`` table: a ring, so unchecked."""
    labels = _basis_labels(labels, len(table))
    if lattice:
        # parent label i stays where canonical row i (ending at column i) is d*e_i
        rows, d = lattice
        labels = tuple(
            label if row[i] == d and not any(row[:i]) else "w%d" % i
            for i, (row, label) in enumerate(zip(rows, labels))
        )
    return object.__new__(Order)._build(table, labels, lattice, maximal)


# -- p-maximal orders by Round 2 ----------------------------------------------
#
# The rings of Round 2 are tables, not Orders.  ``_table_on_lattice``
# checks each one closed in the parent ring, so it is a subring, and the
# Order built from the last one needs no check (``_proved_order``).

def frobenius_mod_p(table, p):
    """Matrix of x -> x^p on order/(p*order) over GF(p): row i is basis_i^p mod p."""
    n = len(table)

    def mul(a, b):
        return tuple(c % p for c in _vec_mul(table, a, b))

    return [list(binary_power(unit(n, i), p, mul, unit(n, 0))) for i in range(n)]


def radical_mod_p(frobenius, p):
    """Reduced echelon pair mod p of the p-radical: the kernel of x -> x^(p^k), p^k >= n.

    `frobenius` is the matrix of x -> x^p on order/(p*order)
    (``frobenius_mod_p``); x -> x^(p^k) is its k-th power, which
    vanishes exactly on the nilpotents.  Each row of the next power is a
    combination of the rows of `frobenius`, taken over the nonzero
    coefficients of the row before.
    """
    n = len(frobenius)
    power, q = frobenius, p
    while q < n:
        power = [combine_rows_mod_p(row, frobenius, p) for row in power]
        q *= p
    return left_kernel_mod_p(power, p)


def multipliers_mod_p(table, p, radical):
    """Basis mod p of U/(p*order), U = {x : x*I inside p*I}, I the p-radical.

    `radical` is I's echelon pair mod p (``radical_mod_p``).  The ring of
    multipliers of I is U/p, so an empty result proves the order
    p-maximal (Cohen, GTM 138, 6.1.8 and 6.1.10).
    """
    radical = lattice_rows_mod_p(radical, p, len(table))
    # row i: basis_i * radical_j for every j, in radical coordinates mod p
    rows = [[] for _ in table]
    for v in radical:
        for row, prod in zip(rows, _mul_matrix(table, v)):
            row.extend(c % p for c in lattice_divmod(radical, prod)[0])
    return left_kernel_mod_p(rows, p)[0]


def require_p_maximal(order, p, radical):
    """Raise ValueError unless the order is p-maximal; `radical` is its p-radical.

    An order from ``maximal_order`` carries its proof and v_p(disc) < 2
    proves it; otherwise one Round 2 step on the radical checks it.
    """
    if not order._maximal and order_discriminant(order) % (p * p) == 0:
        if multipliers_mod_p(order.table, p, radical):
            raise ValueError("order is not %d-maximal" % p)


def _p_maximal_lattice(table, p, basis, d, current, v):
    """Continue Round 2 at p from the ring on the lattice basis/d of `table`.

    `current` is that ring's own multiplication table and v = v_p of its
    discriminant.  A ring with v < 2 is p-maximal, so the loop runs
    while v >= 2 and stops early when the ring of multipliers adds
    nothing.  A step whose kernel has k rows (independent mod p) has
    index p^k and takes 2k from v.  Returns (rows, d, table'): the
    canonical lattice of the p-maximal ring over it, in `table`'s
    coordinates, and that ring's multiplication table.
    """
    n = len(table)
    while v >= 2:
        radical = radical_mod_p(frobenius_mod_p(current, p), p)
        kernel = multipliers_mod_p(current, p, radical)
        if not kernel:
            break
        # the next ring is (p*current + kernel)/p, written over table's basis
        rows = [[p * c for c in row] for row in basis] + [
            [sum(x * row[j] for x, row in zip(u, basis)) for j in range(n)]
            for u in kernel
        ]
        basis, d = rational_lattice(rows, d * p)
        current = _table_on_lattice(table, basis, d)
        v -= 2 * len(kernel)
    return basis, d, current


def p_enlarge(order, modulus):
    """Smallest p-maximal order containing this one, by Pohst-Zassenhaus Round 2.

    Each step replaces the order by the ring of multipliers of its
    p-radical, until that ring is the order itself or the p-part of the
    discriminant, p^v with v < 2, proves it p-maximal.  An order of
    discriminant 0 has nilpotents, so no p-maximal order contains it and
    it is refused with a ValueError.  The result's ``basis_in_parent``
    is the canonical pair (rows, d) of its basis in the input order's
    coordinates, (identity rows, 1) when Round 2 adds nothing.  Round 2
    starts from the order itself, with no Ore ring, so on Z[t]/(f) of
    high degree ``maximal_order(f)``, which starts each prime from Ore's
    ring, is far faster.
    """
    p = as_modulus(modulus).p
    disc = order_discriminant(order)
    if disc == 0:
        raise ValueError(
            "order has discriminant 0 (it has nilpotents), so no p-maximal order contains it"
        )
    basis, d, table = _p_maximal_lattice(
        order.table, p, identity_rows(order.n), 1, order.table, valuation(disc, p)
    )
    return _proved_order(table, order.labels, (basis, d))


def maximal_order(f, bound=DEFAULT_TRIAL_BOUND, verdicts=()):
    """Maximal order of Q[t]/(f) and its discriminant (the fundamental number).

    At every prime q whose square divides disc(f), Dedekind's criterion
    decides whether q divides the index of Z[t]/(f); where it does not,
    the power basis is already q-maximal.  Where it does, the repeated
    factors of f mod q that the test read give Ore's first-order ring
    of index q^ind (``criteria.ore_lattice``).  Where f is q-regular
    that ring is q-maximal and no Round 2 runs at q; elsewhere Round 2
    continues from it with v = v_q(disc f) - 2*ind (none when v < 2).
    Each prime continues from the ring the last one left.  `verdicts`
    are Dedekind verdicts on f that a caller holds, each used at its own
    prime; a verdict on another polynomial is refused, naming its prime.
    The discriminant must factor by trial division at the given bound.
    Returns (order, D); the order's ``basis_in_parent`` is the canonical
    pair (rows, d) of its basis in power-basis coordinates ((identity
    rows, 1) when no prime enlarges it), and it records that it is
    maximal.  It checks disc(f) = index^2 * D before it returns.
    """
    if not f.is_monic():
        raise ValueError("maximal order requires a monic polynomial")
    rational_root_screen(f)
    stray = [verdict.modulus.p for verdict in verdicts if verdict.f != f]
    if stray:
        raise ValueError("the verdict at %d is about another polynomial" % stray[0])
    held = {verdict.modulus.p: verdict for verdict in verdicts}
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("polynomial has a repeated root (discriminant 0)")
    factors = trial_factor(disc, bound)
    table = _power_table(f)
    basis, d, current = identity_rows(f.degree), 1, table
    for q in sorted(factors):
        if factors[q] < 2:
            continue
        # Enlarging at other primes leaves the q-index alone, so when
        # q does not divide the index of Z[t]/(f) it stays q-maximal.
        verdict = held.get(q) or dedekind_verdict(f, q)
        if verdict.divisible:
            basis, d, ind, regular = ore_lattice(verdict, basis, d)
            current = _table_on_lattice(table, basis, d)
            if not regular:
                basis, d, current = _p_maximal_lattice(
                    table, q, basis, d, current, factors[q] - 2 * ind
                )
    order = _proved_order(current, lattice=(basis, d), maximal=True)
    index, fundamental = lattice_index(basis, d), order_discriminant(order)
    if disc != index * index * fundamental:
        raise AssertionError(
            "disc(f) = %d but index^2 * D = %d^2 * %d" % (disc, index, fundamental)
        )
    return order, fundamental


def cubic_family(a, b, ap, bp):
    """Rank-3 order on basis 1, alpha, beta with rational product alpha*beta.

    Structure constants: alpha^2 = ap*alpha + b*beta - b*bp,
    beta^2 = a*alpha + bp*beta - a*ap, alpha*beta = a*b.  The four
    parameters must be coprime.  Returns (order, discriminant) where
    the discriminant comes from the closed form
    ap^2*bp^2 + 18*a*b*ap*bp - 4*a*ap^3 - 4*b*bp^3 - 27*a^2*b^2,
    cross-checked against the trace form.
    """
    g = gcd(a, b, ap, bp)
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
