"""Shared generators and small oracles for the test suite."""

import itertools
import random
import types
from fractions import Fraction
from math import lcm, prod
from unittest import mock

from primesplit import fppoly
from primesplit.fppoly import (
    FpPoly,
    PrimeModulus,
    as_modulus,
    _pth_root,
    binary_power,
    fp_factor,
    fp_one,
    fp_x,
)
from primesplit.ideals import (
    LatticeIdeal,
    ideal_product,
    principal_ideal,
    whole_order,
)
from primesplit.indexform import _VAR_ALPHABET, MultiPoly
from primesplit.integers import prime_power, trial_factor, xgcd
from primesplit.lattice import (
    hnf,
    identity_rows,
    lattice_divmod,
    left_kernel_mod_p,
    lowest_terms,
    rational_lattice,
    unit,
)
from primesplit.orders import (
    Order,
    _table_on_lattice,
    char_poly,
    charpoly_matrix,
    frobenius_mod_p,
    maximal_order,
    multipliers_mod_p,
    order_discriminant,
    order_from_polynomial,
    radical_mod_p,
)
from primesplit.zpoly import ZPoly, bareiss_determinant, discriminant, reduce_mod


def random_fp_poly(rng, modulus, max_degree, nonzero=True):
    p = int(modulus)
    deg = rng.randrange(0, max_degree + 1)
    coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
    poly = FpPoly(modulus, coeffs)
    if nonzero and poly.is_zero():
        return random_fp_poly(rng, modulus, max_degree, nonzero)
    return poly


def random_monic_zpoly(rng, degree, bound):
    return ZPoly([rng.randrange(-bound, bound + 1) for _ in range(degree)] + [1])


def divisor_scan_roots(f):
    """Oracle for integer_roots: every integer root of f (nonzero constant
    term) found by trying each divisor d of the constant term, in scan
    order (d before -d, |d| ascending)."""
    const = f.coeffs[0]
    return [
        r
        for d in range(1, abs(const) + 1)
        if const % d == 0
        for r in (d, -d)
        if f(r) == 0
    ]


def has_integer_root(f):
    return f.coeffs[0] == 0 or bool(divisor_scan_roots(f))


def _divisor_pairs(n):
    out = []
    m = abs(n)
    for d in range(1, m + 1):
        if m % d == 0:
            for b in (d, -d):
                out.append((b, n // b))
    return out


def is_irreducible_quartic(f):
    """Exact reducibility test for monic integer quartics."""
    if f.degree != 4 or not f.is_monic():
        raise ValueError("expected a monic quartic")
    if has_integer_root(f):
        return False
    a3, a2, a1, a0 = f.coeffs[3], f.coeffs[2], f.coeffs[1], f.coeffs[0]
    # split into two monic quadratics (t^2+a*t+b)(t^2+c*t+d)
    for b, d in _divisor_pairs(a0):
        # a + c = a3, b + d + a*c = a2, a*d + b*c = a1
        for a in range(-abs(a2) - abs(b) - abs(d) - abs(a3) - 2,
                       abs(a2) + abs(b) + abs(d) + abs(a3) + 3):
            c = a3 - a
            if b + d + a * c == a2 and a * d + b * c == a1:
                return False
    return True


def random_irreducible_cubic(rng, bound=10):
    while True:
        f = random_monic_zpoly(rng, 3, bound)
        if not has_integer_root(f):
            return f


def random_irreducible_quartic(rng, bound=4):
    while True:
        f = random_monic_zpoly(rng, 4, bound)
        if f.coeffs[0] != 0 and is_irreducible_quartic(f):
            return f


def fraction_determinant(matrix):
    """Independent exact determinant: Gaussian elimination over Fraction."""
    from fractions import Fraction

    m = [[Fraction(c) for c in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    assert det.denominator == 1
    return int(det)


def sylvester_resultant(f, g):
    """Oracle for resultant: the Bareiss determinant of the Sylvester matrix."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of a zero polynomial")
    n, m = f.degree, g.degree
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    size = n + m
    fs = list(reversed(f.coeffs))
    gs = list(reversed(g.coeffs))
    rows = []
    for i in range(m):
        rows.append([0] * i + fs + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + gs + [0] * (size - m - 1 - i))
    return bareiss_determinant(rows)


def cofactor_charpoly(a):
    """Oracle: det(t*I - A) by exact cofactor expansion (ascending list, factorial time)."""
    n = len(a)
    m = [
        [[-a[i][j], 1] if i == j else [-a[i][j]] for j in range(n)]
        for i in range(n)
    ]
    det = _poly_matrix_det(m)
    return det + [0] * (n + 1 - len(det))


def _poly_matrix_det(m):
    """Determinant of a matrix of ascending-coefficient lists (exact, division-free)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    det = []
    for i in range(n):
        if m[i][0]:
            minor = [
                [m[r][c] for c in range(1, n)] for r in range(n) if r != i
            ]
            term = _pl_mul(m[i][0], _poly_matrix_det(minor))
            if i % 2:
                term = [-c for c in term]
            det = _pl_add(det, term)
    return det


def _pl_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _pl_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _integral_candidate(order, coords, p):
    """True when (sum coords_i * basis_i) / p has an integer characteristic polynomial."""
    a = order.mul_matrix(coords)
    n = order.n
    cp = charpoly_matrix(a)
    power = p
    for k in range(1, n + 1):
        if cp[n - k] % power:
            return False
        power *= p
    return True


def scan_p_enlarge(order, modulus):
    """Oracle: smallest p-maximal order containing this one, found by exhaustive search.

    Scans the p^n residue classes x of order/(p*order); whenever
    (x-combination)/p has an integer characteristic polynomial the ring
    generated by it is adjoined (lexicographically smallest x first),
    and the scan repeats until a fixed point.  Returns (order, (rows, d)),
    where (rows, d), the order's basis in the input's coordinates, composes
    the bases of the adjoin steps: it spans the right lattice but need not
    be its canonical basis.
    """
    modulus = as_modulus(modulus)
    p = modulus.p
    n = order.n
    current = order
    emb = (identity_rows(n), 1)
    while True:
        found = None
        table = current.table
        trace_w = [
            sum(table[k][i][i] for i in range(n)) % p for k in range(n)
        ]
        for x in itertools.product(range(p), repeat=n):
            if not any(x):
                continue
            if sum(xk * wk for xk, wk in zip(x, trace_w)) % p:
                continue
            if _integral_candidate(current, x, p):
                found = x
                break
        if found is None:
            break
        basis, d = _adjoin_element(current, found, p)
        current = Order(_table_on_lattice(current.table, basis, d))
        emb = _compose((basis, d), emb)
    return current, emb


def _adjoin_element(order, coords, p):
    """Lattice (rows, d) of the ring generated by `order` and (coords-combination)/p."""
    n = order.n
    rows = [[p * c for c in unit] for unit in identity_rows(n)]
    basis, d = rational_lattice(rows + [list(coords)], p)
    while True:
        # products of basis/d lie over d^2: test them against d*basis
        scaled = [[d * c for c in row] for row in basis]
        extra = []
        for i in range(n):
            for j in range(i, n):
                prod = order.vec_mul(basis[i], basis[j])
                if any(lattice_divmod(scaled, prod)[1]):
                    extra.append(prod)
        if not extra:
            return basis, d
        basis, d = rational_lattice(scaled + extra, d * d)


def _compose(new, old):
    """Embedding (rows, d) of `new`, given in old's coordinates, into old's parent."""
    (rows_new, d_new), (rows_old, d_old) = new, old
    n = len(rows_old)
    rows = [
        [sum(rows_new[i][k] * rows_old[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return lowest_terms(rows, d_new * d_old)


def leftmost_pivot_hnf(rows):
    """Oracle for hnf: row HNF with leftmost pivots, taken on reversed columns.

    Each row is reduced against the basis row with the same first
    nonzero column; afterwards the pivots are made positive and the
    entries above each pivot reduced, and reversing the columns and the
    row order back gives the canonical triangular basis.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("no generators given")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("rows have inconsistent width")
    basis = {}  # pivot column -> row
    for vec in rows:
        v = vec[::-1]
        while True:
            j = next((c for c, x in enumerate(v) if x), None)
            if j is None:
                break
            if j not in basis:
                basis[j] = v
                break
            r = basis[j]
            a, b = r[j], v[j]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, r)]
            else:
                g, s, t = xgcd(a, b)
                basis[j] = [s * x + t * y for x, y in zip(r, v)]
                v = [a // g * y - b // g * x for x, y in zip(r, v)]
    pivots = sorted(basis)
    for j in pivots:
        if basis[j][j] < 0:
            basis[j] = [-x for x in basis[j]]
    for pos, j in enumerate(pivots):
        r = basis[j]
        for jj in pivots[:pos]:
            s = basis[jj]
            q = s[j] // r[j]
            if q:
                basis[jj] = [x - q * y for x, y in zip(s, r)]
    if len(pivots) != n:
        raise ValueError("generators span a rank-%d lattice, need %d" % (len(pivots), n))
    return tuple(tuple(basis[j][::-1]) for j in reversed(pivots))


def canonical_rows(rows):
    """Canonical pair (rows, d) of the lattice spanned by rational rows."""
    d = lcm(*(Fraction(c).denominator for row in rows for c in row))
    return rational_lattice([[int(c * d) for c in row] for row in rows], d)


def fraction_rows(basis):
    """The rows/d of a (rows, d) basis, such as ``basis_in_parent``, as Fraction rows."""
    rows, d = basis
    return tuple(tuple(Fraction(c, d) for c in row) for row in rows)


def basis_lines(basis):
    """maximal-order's basis_in_power_coordinates for a (rows, d) basis, written by Fraction."""
    return ["[%s]" % ", ".join(map(str, row)) for row in fraction_rows(basis)]


def is_enlarged(order):
    """Whether the order was built on a lattice strictly containing its parent's."""
    return order.basis_in_parent is not None and order.basis_in_parent[1] > 1


def scan_enlarged_labels(parent_labels, basis, d):
    """Oracle for _proved_order's labels: a parent label for each row equal
    to d times any unit vector, found by scanning every parent label, else w<i>."""
    out = []
    for i, row in enumerate(basis):
        for j, label in enumerate(parent_labels):
            if all(c == (d if k == j else 0) for k, c in enumerate(row)):
                out.append(label)
                break
        else:
            out.append("w%d" % i)
    return tuple(out)


def always_scan_maximal_order(f, bound=10**6):
    """Oracle: scan-enlarge Z[t]/(f) at every q with q^2 | disc(f), with no Dedekind skip.

    Returns (canonical pair (rows, d) in power-basis coordinates, discriminant).
    """
    order = order_from_polynomial(f)
    n = order.n
    emb = [[Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for q, e in sorted(trial_factor(discriminant(f), bound).items()):
        if e < 2:
            continue
        order, step = scan_p_enlarge(order, PrimeModulus(q))
        emb = [
            [sum(row[k] * emb[k][j] for k in range(n)) for j in range(n)]
            for row in fraction_rows(step)
        ]
    return canonical_rows(emb), order_discriminant(order)


def dedekind_lattice(f, verdict, basis, d):
    """Oracle: add Dedekind's enlargement at q to the ring on basis/d: (rows, d, m).

    `verdict` is Dedekind's test at q on f, which found q to divide the
    index of Z[t]/(f).  Let Z be the product of the repeated factors of
    f mod q that divide the cofactor M mod q (`verdict.dividing`), m its
    degree, and U = (f mod q)/Z.  Then O' = Z[t] + (U(t)/q)*Z[t] is the
    ring of multipliers of the q-radical of Z[t], the first Round 2
    ring, and [O' : Z[t]] = q^m (Cohen, GTM 138, 6.1.4).  The ring on
    basis/d contains Z[t] with index prime to q, so the sum is a ring
    that gains exactly O' at q; that q^m is checked on the canonical
    diagonal.  Ore's ring, where maximal_order starts, contains O'.
    """
    modulus = verdict.modulus
    q = modulus.p
    n = f.degree
    z = prod((g for g, _ in verdict.dividing), start=fp_one(modulus))
    u = (reduce_mod(f, modulus) // z).coeffs
    m = n + 1 - len(u)
    # modulo Z[t], (U(t)/q)*Z[t] is spanned by the U(t)*t^i/q with i < m,
    # whose degrees are below n
    rows = [[q * c for c in row] for row in basis] + [
        [0] * i + [d * c for c in u] + [0] * (m - 1 - i) for i in range(m)
    ]
    basis, d = rational_lattice(rows, d * q)
    index = d**n // prod(row[i] for i, row in enumerate(basis))
    if index % q**m or index // q**m % q == 0:
        raise AssertionError(
            "Dedekind's enlargement at %d does not have q-index %d^%d" % (q, q, m)
        )
    return basis, d, m


# primes whose factorization patterns of f screen out reducible f
SCREEN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def provably_irreducible(f, disc):
    """True when the factor degrees of f mod q rule out every proper factor over Z.

    A factor of degree d over Z gives a sum of factor degrees equal to d
    at every prime q not dividing disc(f); a False is inconclusive.
    """
    n = f.degree
    possible = set(range(1, n))
    for q in SCREEN_PRIMES:
        if disc % q == 0:
            continue
        sums = {0}
        for g, _ in fp_factor(reduce_mod(f, PrimeModulus(q))):
            sums |= {s + g.degree for s in sums}
        possible &= sums
        if not possible:
            return True
    return False


def seeded_fields(rng, per_degree):
    """`per_degree` defining polynomials of each degree 3-6, drawn as in test_properties.

    Monic f with coefficients in [-9, 9], nonzero constant term and a
    discriminant that proves it irreducible.
    """
    fields = []
    for n in (3, 4, 5, 6):
        while sum(f.degree == n for f in fields) < per_degree:
            f = random_monic_zpoly(rng, n, 9)
            disc = discriminant(f)
            if f.coeffs[0] and disc and provably_irreducible(f, disc):
                fields.append(f)
    return fields


def seeded_maximal_orders(rng, per_degree):
    """Maximal orders of the fields of ``seeded_fields``."""
    return [maximal_order(f)[0] for f in seeded_fields(rng, per_degree)]


def random_power_basis_orders(rng, rank, count, bound=9):
    """Power-basis orders Z[t]/(f) of monic f, coefficients in [-bound, bound], disc != 0."""
    out = []
    while len(out) < count:
        f = random_monic_zpoly(rng, rank, bound)
        if f.coeffs[0] and discriminant(f):
            out.append(order_from_polynomial(f))
    return out


def first_nonassociative_triple(table):
    """Oracle for Order's associativity check: its first failing triple, or None.

    Builds the multiplication matrix of each product e_i e_j and compares
    (e_i e_j) e_k with (e_j e_k) e_i row by row, over the same triples
    1 <= i <= j <= k < n in the same order as the check.
    """
    n = len(table)

    def mul_matrix(coords):
        return [
            [sum(c * table[m][j][k] for m, c in enumerate(coords)) for k in range(n)]
            for j in range(n)
        ]

    rest = range(1, n)
    products = {
        (i, j): mul_matrix(table[i][j])
        for i, j in itertools.combinations_with_replacement(rest, 2)
    }
    for i, j, k in itertools.combinations_with_replacement(rest, 3):
        if products[i, j][k] != products[j, k][i]:
            return i, j, k
    return None


def trace_matrix_discriminant(order):
    """Oracle for order_discriminant: det of the n^2 traces Tr(basis_i * basis_j).

    Each product's trace is read off the diagonal of its own
    multiplication matrix, O(n^2) per entry and O(n^4) in all.
    """
    form = [
        [sum(row[k] for k, row in enumerate(order.mul_matrix(prod))) for prod in products]
        for products in order.table
    ]
    return bareiss_determinant(form)


def dense_product_radical_mod_p(frobenius, p):
    """Oracle for radical_mod_p: the power of the Frobenius matrix by dense products."""
    n = len(frobenius)
    columns = list(zip(*frobenius))
    power, q = frobenius, p
    while q < n:
        power = [
            [sum(x * y for x, y in zip(row, col)) % p for col in columns]
            for row in power
        ]
        q *= p
    return hnf(
        [[p * c for c in unit] for unit in identity_rows(n)]
        + left_kernel_mod_p(power, p)[0]
    )


class OraclePoly(MultiPoly):
    """MultiPoly with the ring arithmetic the cofactor oracle needs.

    ``index_form`` computes on dense coefficient lists, so the package's
    MultiPoly has no arithmetic of its own.
    """

    __slots__ = ()

    @classmethod
    def variable(cls, variables, name):
        i = tuple(variables).index(name)
        exps = tuple(1 if k == i else 0 for k in range(len(variables)))
        return cls(variables, {exps: 1})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return OraclePoly(self.vars, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return OraclePoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return OraclePoly(self.vars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return OraclePoly(self.vars, out)

    __rmul__ = __mul__


def cofactor_index_form(order):
    """Oracle: the index form by cofactor expansion over OraclePoly (factorial time)."""
    n = order.n
    if n > 6:
        raise ValueError("index form rank %d exceeds MAX_RANK = 6" % n)
    names = ("z",) + _VAR_ALPHABET[: n - 1]
    coords = [OraclePoly.variable(names, v) for v in names]
    zero = OraclePoly(names, {})
    one_vec = [OraclePoly(names, {(0,) * len(names): 1})] + [zero] * (n - 1)

    def vec_mul(u, v):
        out = [zero] * n
        for i in range(n):
            if u[i].is_zero():
                continue
            for j in range(n):
                if v[j].is_zero():
                    continue
                c = u[i] * v[j]
                for k, t in enumerate(order.table[i][j]):
                    if t:
                        out[k] = out[k] + c * t
        return out

    rows = [one_vec]
    acc = one_vec
    for _ in range(n - 1):
        acc = vec_mul(acc, coords)
        rows.append(acc)
    minor = [[rows[i][j] for j in range(1, n)] for i in range(1, n)]
    det = _det_multipoly(minor)
    if max_exponent(det, "z"):
        raise AssertionError("index form depends on the identity coordinate")
    return drop_variable(det, "z")


def max_exponent(f, name):
    i = f.vars.index(name)
    return max((e[i] for e in f.terms), default=0)


def drop_variable(f, name):
    """Remove a variable that no term uses."""
    i = f.vars.index(name)
    if max_exponent(f, name):
        raise ValueError("%s still occurs" % name)
    newvars = f.vars[:i] + f.vars[i + 1 :]
    return MultiPoly(
        newvars,
        {e[:i] + e[i + 1 :]: c for e, c in f.terms.items()},
    )


def _det_multipoly(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    det = None
    for i in range(n):
        if m[i][0].is_zero():
            continue
        minor = [[m[r][c] for c in range(1, n)] for r in range(n) if r != i]
        term = m[i][0] * _det_multipoly(minor)
        if i % 2:
            term = -term
        det = term if det is None else det + term
    if det is None:
        return OraclePoly(m[0][0].vars, {})
    return det


def reference_format_multipoly(f):
    """Oracle: the term-by-term renderer format_multipoly replaced (sorts and renders every term)."""
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


def reference_format_poly(coeffs):
    """Oracle: the term-by-term polynomial renderer format_poly replaced."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return "0"
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            x = "t" if e == 1 else "t^%d" % e
            body = x if mag == 1 else "%d*%s" % (mag, x)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def reference_bracket_entry(coords, labels):
    """Oracle: the term-by-term order-element renderer bracket_entry replaced."""
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


def random_renderer_coefficient(rng):
    """A coefficient the renderers treat specially about as often as a plain one.

    0, +-1, small values and +-30-digit values.
    """
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.choice((1, -1))
    if kind == 2:
        return rng.randrange(-20, 21)
    return rng.choice((1, -1)) * rng.randrange(10**29, 10**30)


def exhaustive_common_value_divisor(f, p):
    """Oracle: True when f(point) = 0 mod p at every point of GF(p)^v (p^v evaluations)."""
    for point in itertools.product(range(p), repeat=len(f.vars)):
        if f.evaluate(point) % p:
            return False
    return True


def _echelon_subspaces(p, n, k):
    """Reduced echelon bases of all k-dimensional subspaces of GF(p)^n."""
    for cols in itertools.combinations(range(n), k):
        free_positions = []
        for i, c in enumerate(cols):
            for j in range(c + 1, n):
                if j not in cols:
                    free_positions.append((i, j))
        for values in itertools.product(range(p), repeat=len(free_positions)):
            mat = [[0] * n for _ in range(k)]
            for i, c in enumerate(cols):
                mat[i][c] = 1
            for (i, j), val in zip(free_positions, values):
                mat[i][j] = val
            yield cols, mat


def _closed_mod_p(order, mat, p, cols):
    """Closure of the rowspace under multiplication by the non-identity basis."""
    n = order.n
    table = order.table
    pivot_of = {c: i for i, c in enumerate(cols)}
    for row in mat:
        for g in range(1, n):
            prod = [0] * n
            for i, ri in enumerate(row):
                if ri:
                    tig = table[i][g]
                    for m in range(n):
                        prod[m] = (prod[m] + ri * tig[m]) % p
            for c in range(n):
                x = prod[c] % p
                if x:
                    if c in pivot_of:
                        r = mat[pivot_of[c]]
                        for m in range(c, n):
                            prod[m] = (prod[m] - x * r[m]) % p
                    else:
                        return False
    return True


def enumerate_primes_above(order, p):
    """Oracle: (ideal, e, f) for each prime above p, by enumerating subspaces.

    Enumerates the sublattices between p*order and order through echelon
    forms over GF(p) (all subspaces of GF(p)^n, so p^n must be small),
    keeps those closed under ring multiplication, picks the maximal
    proper ones, reads each residue degree f from the norm p^f, and
    finds each exponent e as the largest with P^e containing p*order,
    by products.  The order must be p-maximal; results are sorted by
    basis matrix.
    """
    n = order.n
    radical = radical_mod_p(frobenius_mod_p(order.table, p), p)
    if multipliers_mod_p(order.table, p, radical):
        raise ValueError("order is not %d-maximal" % p)

    p_ideal = principal_ideal(order.identity() * p)
    candidates = []  # (cols, mat, ideal)
    for k in range(n):
        for cols, mat in _echelon_subspaces(p, n, k):
            if _closed_mod_p(order, mat, p, cols):
                rows = [list(r) for r in p_ideal.rows] + [list(r) for r in mat]
                ideal = LatticeIdeal(order, hnf(rows, n))
                candidates.append((mat, ideal))

    maximal = []
    for mat, ideal in candidates:
        strictly_above = any(
            other is not ideal
            and other != ideal
            and other.contains_ideal(ideal)
            for _, other in candidates
        )
        if not strictly_above:
            maximal.append(ideal)
    maximal.sort(key=lambda ide: ide.rows)

    out = []
    total = whole_order(order)
    for ideal in maximal:
        q, f = prime_power(ideal.norm())
        assert q == p
        e, power = _valuation_power(p_ideal, ideal)
        out.append((ideal, e, f))
        total = ideal_product(total, power)
    if total != p_ideal:
        raise AssertionError("prime power product does not reconstruct p*order")
    if sum(e * f for _, e, f in out) != n:
        raise AssertionError("sum of e*f does not equal the rank")
    return out


# -- oracle: splitting order/rad(p), then exponents by ideal products ----------
#
# factor_p_in_order before it split order/(p*order): the radical from each
# basis unit raised to p^k >= n, the split of the quotient by the radical
# (which ends at the primes, not at their powers), and each exponent e as
# the valuation of p*order, by the chain of products P, P^2, ...


def _unit_pow_mod_p(order, coords, e, p):
    return binary_power(
        tuple(c % p for c in coords),
        e,
        lambda a, b: tuple(c % p for c in order.vec_mul(a, b)),
        unit(order.n, 0),
    )


def _quotient_frobenius_minus_identity(order, rows, p):
    """(free positions, x -> x^p - x on order/I), I canonical and containing p*order."""
    n = order.n
    free = [i for i in range(n) if rows[i][i] != 1]
    shifted = []
    for k, i in enumerate(free):
        image = lattice_divmod(rows, _unit_pow_mod_p(order, unit(n, i), p, p))[1]
        shifted.append([image[j] - (k == col) for col, j in enumerate(free)])
    return free, shifted


def _valuation_power(a, prime):
    """(v, prime^v) for the largest v with prime^v containing a, by products."""
    nrm = prime.norm()
    v, power = 0, whole_order(prime.order)
    pw_norm = nrm
    while pw_norm <= a.norm():
        above = ideal_product(power, prime) if v else prime
        if not above.contains_ideal(a):
            break
        v, power = v + 1, above
        pw_norm *= nrm
    return v, power


def radical_split_primes_above(order, p):
    """Oracle: (ideal, e, f) for each prime above p, by splitting order/rad(p).

    The order must be p-maximal; results are sorted by basis matrix.
    """
    modulus = PrimeModulus(p)
    n = order.n
    q = p
    while q < n:
        q *= p
    nilpotent = [_unit_pow_mod_p(order, unit(n, i), q, p) for i in range(n)]
    radical = hnf(
        [[p * c for c in unit(n, i)] for i in range(n)]
        + left_kernel_mod_p(nilpotent, p)[0]
    )
    free, shifted = _quotient_frobenius_minus_identity(order, radical, p)
    split, _ = left_kernel_mod_p(shifted, p)
    parts = [radical]
    for x in split:
        if len(parts) == len(split):
            break
        coords = [0] * n
        for i, c in zip(free, x):
            coords[i] = c
        cp = reduce_mod(char_poly(order.element(coords)), modulus)
        refined = []
        for linear, _ in fp_factor(cp):
            c = -linear.coeffs[0]
            generators = order.mul_matrix([coords[0] - c] + coords[1:])
            for rows in parts:
                ideal = hnf(list(rows) + generators, n)
                if any(r[i] != 1 for i, r in enumerate(ideal)):
                    refined.append(ideal)
        parts = refined
    assert len(parts) == len(split)

    p_ideal = principal_ideal(order.identity() * p)
    out, total = [], None
    for rows in sorted(parts):
        ideal = LatticeIdeal(order, rows)
        base, f = prime_power(ideal.norm())
        assert base == p
        e, power = _valuation_power(p_ideal, ideal)
        out.append((ideal, e, f))
        total = power if total is None else ideal_product(total, power)
    assert total == p_ideal
    assert sum(e * f for _, e, f in out) == n
    return out


# -- oracle: schoolbook products over GF(p) -----------------------------------
#
# FpPoly.__mul__, products mod f and fp_gcd before Kronecker substitution:
# the double loop over coefficient pairs, long division by f, and Euclid
# on FpPoly remainders.


def schoolbook_mul(a, b):
    """a * b by the double loop over coefficient pairs."""
    if a.is_zero() or b.is_zero():
        return FpPoly(a.modulus, ())
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] += ai * bj
    return FpPoly(a.modulus, out)


def schoolbook_mulmod(a, b, f):
    return schoolbook_mul(a, b) % f


def schoolbook_powmod(base, e, f):
    """base**e mod f by right-to-left square-and-multiply on schoolbook products."""
    result, square = fp_one(f.modulus) % f, base % f
    while e:
        if e & 1:
            result = schoolbook_mulmod(result, square, f)
        square = schoolbook_mulmod(square, square, f)
        e >>= 1
    return result


def euclid_gcd(a, b):
    """Monic gcd by Euclid's algorithm on FpPoly remainders."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# -- oracle: factoring over GF(p) with one powering per p-th power ------------
#
# fp_factor's distinct-degree step before the Frobenius matrix: x**(p**d)
# by a fresh powering at every degree d, and equal-degree splitting by
# one (p**d - 1)/2 powering.


def _frobenius_iterate(d, f):
    """x**(p**d) mod f, by applying the p-th power map d times."""
    p = f.p
    r = fp_x(f.modulus) % f
    for _ in range(d):
        r = schoolbook_powmod(r, p, f)
    return r


def prime_divisors(n):
    """The primes dividing n >= 1, ascending, by trial division by every d."""
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


def powering_is_irreducible(f):
    """Oracle for fp_is_irreducible: the same test with _frobenius_iterate.

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
    x = fp_x(f.modulus)
    for q in prime_divisors(n):
        h = _frobenius_iterate(n // q, f)
        if not euclid_gcd(h - x, f).is_one():
            return False
    return _frobenius_iterate(n, f) == x % f


def _factor_squarefree(f, rng):
    """Factor a squarefree monic f: distinct-degree then equal-degree split."""
    factors = []
    x = fp_x(f.modulus)
    r = x % f
    p = f.p
    d = 0
    while not f.is_one():
        d += 1
        if 2 * d > (f.degree or 0):
            factors.append(f)
            break
        r = schoolbook_powmod(r, p, f)
        g = euclid_gcd(r - x, f) if not (r - x).is_zero() else f.monic()
        if not g.is_one():
            factors.extend(_equal_degree_split(g, d, rng))
            f = (f // g).monic()
            r = r % f
    return factors


def _equal_degree_split(g, d, rng):
    """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles."""
    if g.degree == d:
        return [g]
    p = g.p
    mod = g.modulus
    n = g.degree
    while True:
        a = FpPoly(mod, [rng.randrange(p) for _ in range(n)])
        if a.degree is None or a.degree < 1:
            continue
        if p == 2:
            # trace map a + a^2 + a^4 + ... + a^(2^(d-1))
            t = a % g
            acc = t
            for _ in range(d - 1):
                t = schoolbook_mulmod(t, t, g)
                acc = acc + t
            h = euclid_gcd(acc, g) if not acc.is_zero() else g
        else:
            b = schoolbook_powmod(a, (p**d - 1) // 2, g) - fp_one(mod)
            h = euclid_gcd(b, g) if not b.is_zero() else g
        if h.is_one() or h.degree == g.degree:
            continue
        rest = (g // h).monic()
        return _equal_degree_split(h, d, rng) + _equal_degree_split(rest, d, rng)


def _powering_factor_monic(f, rng):
    """Factor monic f into {irreducible: multiplicity} by separating repeated parts."""
    if f.is_one():
        return {}
    fd = f.derivative()
    if fd.is_zero():
        inner = _powering_factor_monic(_pth_root(f), rng)
        return {g: e * f.p for g, e in inner.items()}
    u = euclid_gcd(f, fd)
    if u.is_one():
        return {g: 1 for g in _factor_squarefree(f, rng)}
    out = _powering_factor_monic(u, rng)
    for g, e in _powering_factor_monic((f // u).monic(), rng).items():
        out[g] = out.get(g, 0) + e
    return out


def seeded_fp_factor(f, seed):
    """fp_factor(f) with its draws taken from random.Random(seed), not Random(0).

    fp_factor takes no seed, so this patches fppoly's `random` for the
    call; a context manager, unlike a function-scoped fixture, also
    serves tests under Hypothesis' @given.
    """
    draws = types.SimpleNamespace(Random=lambda _: random.Random(seed))
    with mock.patch.object(fppoly, "random", draws):
        return fp_factor(f)


def powering_fp_factor(f, seed=0):
    """Oracle for fp_factor, from the powering-per-step splitting above."""
    if f.degree == 0:
        return []
    fac = _powering_factor_monic(f.monic(), random.Random(seed))
    return sorted(fac.items(), key=lambda ge: ge[0].sort_key())
