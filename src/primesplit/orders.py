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
kernel of a power of the Frobenius matrix, and its ring of multipliers
is the next order.  ``ideals.factor_p_in_order`` shares both: the
radical checks p-maximality and gives each prime from its power, and
the Frobenius matrix minus the identity splits order/(p*order).

Round 2 stops on the discriminant.  An enlargement of index p^k
divides the discriminant by p^(2k), so a ring with v_p(disc) < 2 is
p-maximal (Cohen, GTM 138, 6.1); each Round 2 step of index p^k takes
2k from v, and the loop runs only while v >= 2 (or until the ring of
multipliers adds nothing).  ``maximal_order`` does not start Round 2
from Z[t]/(f).  At each prime q that Dedekind's criterion says divides
the index, the factors of f mod q and the cofactor the test already
read give Dedekind's ring O' = Z[t] + (U(t)/q)*Z[t] of index q^m, which
is the first Round 2 ring (Cohen, GTM 138, 6.1.4), and Round 2
continues from O' with v = v_q(disc f) - 2m.  Round 2 runs on bare
multiplication tables, carried from prime to prime by
``maximal_order``; only the order a call returns is an Order.

Orders and elements are immutable; every operation is a pure function.
Every enlarged order carries the canonical triangular basis of its
lattice, so equal orders have equal bases.  Trial factoring of the
discriminant and the extended gcd of ``hnf`` come from ``integers``.
"""

import itertools
import operator
from fractions import Fraction
from math import gcd, lcm, prod

from .criteria import (
    _dedekind_verdict,
    _dividing_repeated_factors,
    _rational_root_screen,
    factorization_with_cofactor,
)
from .fppoly import PrimeModulus, as_modulus, binary_power, fp_one
from .integers import DEFAULT_TRIAL_BOUND, trial_factor, xgcd
from .zpoly import ZPoly, bareiss_determinant, discriminant, reduce_mod


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
        # a triple holding e_0 = 1 is settled by the identity row and symmetry
        rest = range(1, self.n)
        products = {
            (i, j): self.mul_matrix(self.table[i][j])
            for i, j in itertools.combinations_with_replacement(rest, 2)
        }
        for i, j, k in itertools.combinations_with_replacement(rest, 3):
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
    """Trace of multiplication by elem: sum_i coords_i * Tr(basis_i)."""
    return sum(map(operator.mul, elem.coords, _basis_traces(elem.order.table)))


def _basis_traces(table):
    """Tr(basis_k) = sum_j table[k][j][j] for each k."""
    return [sum(tk[j][j] for j in range(len(tk))) for tk in table]


def element_norm(elem):
    cp = charpoly_matrix(elem.order.mul_matrix(elem.coords))
    n = elem.order.n
    return cp[0] if n % 2 == 0 else -cp[0]


def order_discriminant(order):
    """Determinant of the trace form Tr(basis_i * basis_j), exact.

    With t_k = Tr(basis_k) = sum_j table[k][j][j], linearity of the
    trace gives Tr(basis_i * basis_j) = sum_k table[i][j][k] * t_k, so
    the form costs O(n^3) rather than n^2 traces of O(n^2) each.
    """
    traces = _basis_traces(order.table)
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
                g, s, t = xgcd(a, b)
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


def _lattice_divmod(basis, vec):
    """(y, r) with vec = sum(y_i * basis_i) + r in a canonical triangular basis.

    Each entry r_i lies in [0, basis_i[i]), so r is the canonical residue
    of vec modulo the lattice, and vec is a member exactly when r is zero.
    """
    v = list(vec)
    y = [0] * len(basis)
    for i in range(len(basis) - 1, -1, -1):
        q = v[i] // basis[i][i]
        if q:
            y[i] = q
            for j in range(i + 1):
                v[j] -= q * basis[i][j]
    return y, tuple(v)


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
        coords, residue = _lattice_divmod(scaled, _vec_mul(table, basis[i], basis[j]))
        if any(residue):
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


def _frobenius_mod_p(table, p):
    """Matrix of x -> x^p on order/(p*order) over GF(p): row i is basis_i^p mod p."""
    n = len(table)

    def mul(a, b):
        return tuple(c % p for c in _vec_mul(table, a, b))

    return [list(binary_power(_unit(n, i), p, mul, _unit(n, 0))) for i in range(n)]


# -- p-maximal orders by Round 2 ----------------------------------------------
#
# The rings of Round 2 are tables, not Orders.  ``_table_on_lattice``
# checks each one closed under the parent's multiplication, so it is a
# subring and inherits commutativity and associativity; the Order built
# from the last one checks everything again.

def _radical_mod_p(frobenius, p):
    """Canonical rows of the p-radical: p*order plus the kernel of x -> x^(p^k), p^k >= n.

    `frobenius` is the matrix of x -> x^p on order/(p*order)
    (``_frobenius_mod_p``); x -> x^(p^k) is its k-th power, which
    vanishes exactly on the nilpotents.  Each row of the next power is a
    combination of the rows of `frobenius`, taken over the nonzero
    coefficients of the row before.
    """
    n = len(frobenius)
    power, q = frobenius, p
    while q < n:
        power = [_combine_rows_mod_p(row, frobenius, p) for row in power]
        q *= p
    return hnf(
        [[p * c for c in unit] for unit in _identity_rows(n)]
        + _left_kernel_mod_p(power, p)
    )


def _combine_rows_mod_p(coeffs, rows, p):
    """sum_i coeffs[i] * rows[i] mod p, skipping the zero coefficients."""
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * r for a, r in zip(acc, row)]
    return [a % p for a in acc]


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
            row.extend(c % p for c in _lattice_divmod(radical, prod)[0])
    return _left_kernel_mod_p(rows, p)


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
        radical = _radical_mod_p(_frobenius_mod_p(current, p), p)
        kernel = _multipliers_mod_p(current, p, radical)
        if not kernel:
            break
        # the next ring is (p*current + kernel)/p, written over table's basis
        rows = [[p * c for c in row] for row in basis] + [
            [sum(x * row[j] for x, row in zip(u, basis)) for j in range(n)]
            for u in kernel
        ]
        basis, d = _lattice(rows, d * p)
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
    holds its canonical triangular basis in the coordinates of the
    input order.
    """
    p = as_modulus(modulus).p
    disc = order_discriminant(order)
    if disc == 0:
        raise ValueError(
            "order has discriminant 0 (it has nilpotents), so no p-maximal order contains it"
        )
    v = 0
    while disc % p == 0:
        disc //= p
        v += 1
    enlarged = _p_maximal_lattice(
        order.table, p, _identity_rows(order.n), 1, order.table, v
    )
    return _order_on_lattice(order.labels, *enlarged)


def _dedekind_lattice(f, modulus, verdict, basis, d):
    """Add Dedekind's enlargement at q to the ring on basis/d: (rows, d, m).

    `verdict` is Dedekind's test at q on f, which found q to divide the
    index of Z[t]/(f).  Let Z be the product of the repeated factors of
    f mod q that divide the cofactor M mod q, m its degree, and
    U = (f mod q)/Z.  Then O' = Z[t] + (U(t)/q)*Z[t] is the ring of
    multipliers of the q-radical of Z[t], the first Round 2 ring, and
    [O' : Z[t]] = q^m (Cohen, GTM 138, 6.1.4).  The ring on basis/d
    contains Z[t] with index prime to q, so the sum is a ring that
    gains exactly O' at q; that q^m is checked on the canonical diagonal.
    """
    q = modulus.p
    n = f.degree
    dividing = _dividing_repeated_factors(modulus, verdict.factors, verdict.cofactor)
    z = prod((g for g, _ in dividing), start=fp_one(modulus))
    u = (reduce_mod(f, modulus) // z).coeffs
    m = n + 1 - len(u)
    # modulo Z[t], (U(t)/q)*Z[t] is spanned by the U(t)*t^i/q with i < m,
    # whose degrees are below n
    rows = [[q * c for c in row] for row in basis] + [
        [0] * i + [d * c for c in u] + [0] * (m - 1 - i) for i in range(m)
    ]
    basis, d = _lattice(rows, d * q)
    index = d**n // prod(row[i] for i, row in enumerate(basis))
    if index % q**m or index // q**m % q == 0:
        raise AssertionError(
            "Dedekind's enlargement at %d does not have q-index %d^%d" % (q, q, m)
        )
    return basis, d, m


def maximal_order(f, bound=DEFAULT_TRIAL_BOUND, labels=None):
    """Maximal order of Q[t]/(f) and its discriminant (the fundamental number).

    At every prime q whose square divides disc(f), Dedekind's criterion
    decides whether q divides the index of Z[t]/(f); where it does not,
    the power basis is already q-maximal.  Where it does, the factors of
    f mod q and the cofactor M that the test read give Dedekind's
    enlargement O' of index q^m directly, and Round 2 continues from it
    with v = v_q(disc f) - 2m (none at all when v < 2).
    Each prime continues from the ring the last one left.  The
    discriminant must factor by trial division at the given bound.
    Returns (order, D); the order's ``basis_in_parent`` is its
    canonical triangular basis in power-basis coordinates (identity
    rows when no prime enlarges it).
    """
    if not f.is_monic():
        raise ValueError("maximal order requires a monic polynomial")
    _rational_root_screen(f)
    return _maximal_order(f, bound, labels, {})


def _maximal_order(f, bound, labels, verdicts):
    """``maximal_order`` of a monic f that has passed the rational-root screen.

    `verdicts` maps primes to Dedekind verdicts on f a caller already
    holds (``index_divisible`` screens f), so f is not factored again
    modulo those primes.
    """
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("polynomial has a repeated root (discriminant 0)")
    factors = trial_factor(disc, bound)
    labels = _basis_labels(labels, f.degree)
    table = _power_table(f)
    basis, d, current = _identity_rows(f.degree), 1, table
    for q in sorted(factors):
        if factors[q] < 2:
            continue
        modulus = PrimeModulus(q)
        # Enlarging at other primes leaves the q-index alone, so when
        # q does not divide the index of Z[t]/(f) it stays q-maximal.
        verdict = verdicts.get(q) or _dedekind_verdict(
            modulus, *factorization_with_cofactor(f, modulus)
        )
        if verdict.divisible:
            basis, d, m = _dedekind_lattice(f, modulus, verdict, basis, d)
            current = _table_on_lattice(table, basis, d)
            basis, d, current = _p_maximal_lattice(
                table, q, basis, d, current, factors[q] - 2 * m
            )
    order = _order_on_lattice(labels, basis, d, current)
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
