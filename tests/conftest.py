"""Shared generators and small oracles for the test suite."""

import itertools
import random
from fractions import Fraction

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
    hnf,
    ideal_from_generators,
    ideal_power,
    ideal_product,
    ideal_valuation,
    whole_order,
)
from primesplit.indexform import MultiPoly, parse_multipoly_vars
from primesplit.integers import prime_power, trial_factor, xgcd
from primesplit.orders import (
    Order,
    _frobenius_mod_p,
    _identity_rows,
    _lattice,
    _lattice_divmod,
    _left_kernel_mod_p,
    _lowest_terms,
    _multipliers_mod_p,
    _over_common_denominator,
    _radical_mod_p,
    _rational_rows,
    _table_on_lattice,
    _unit,
    char_poly,
    charpoly_matrix,
    maximal_order,
    order_discriminant,
    order_from_polynomial,
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
    and the scan repeats until a fixed point.  The result's
    ``basis_in_parent`` composes the bases of the adjoin steps, which
    spans the right lattice but need not be its canonical basis.
    """
    modulus = as_modulus(modulus)
    p = modulus.p
    n = order.n
    current = order
    emb = (_identity_rows(n), 1)
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
    return Order(
        current.table, labels=current.labels, basis_in_parent=_rational_rows(*emb)
    )


def _adjoin_element(order, coords, p):
    """Lattice (rows, d) of the ring generated by `order` and (coords-combination)/p."""
    n = order.n
    rows = [[p * c for c in unit] for unit in _identity_rows(n)]
    basis, d = _lattice(rows + [list(coords)], p)
    while True:
        # products of basis/d lie over d^2: test them against d*basis
        scaled = [[d * c for c in row] for row in basis]
        extra = []
        for i in range(n):
            for j in range(i, n):
                prod = order.vec_mul(basis[i], basis[j])
                if any(_lattice_divmod(scaled, prod)[1]):
                    extra.append(prod)
        if not extra:
            return basis, d
        basis, d = _lattice(scaled + extra, d * d)


def _compose(new, old):
    """Embedding (rows, d) of `new`, given in old's coordinates, into old's parent."""
    (rows_new, d_new), (rows_old, d_old) = new, old
    n = len(rows_old)
    rows = [
        [sum(rows_new[i][k] * rows_old[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return _lowest_terms(rows, d_new * d_old)


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
    """Canonical triangular basis of the lattice of rational rows, as Fraction rows."""
    return _rational_rows(*_lattice(*_over_common_denominator(rows)))


def always_scan_maximal_order(f, bound=10**6):
    """Oracle: scan-enlarge Z[t]/(f) at every q with q^2 | disc(f), with no Dedekind skip.

    Returns (canonical basis rows in power-basis coordinates, discriminant).
    """
    order = order_from_polynomial(f)
    n = order.n
    emb = [[Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for q, e in sorted(trial_factor(discriminant(f), bound).items()):
        if e < 2:
            continue
        order = scan_p_enlarge(order, PrimeModulus(q))
        emb = [
            [sum(row[k] * emb[k][j] for k in range(n)) for j in range(n)]
            for row in order.basis_in_parent
        ]
    return canonical_rows(emb), order_discriminant(order)


def scan_is_maximal(order, ideal, p):
    """Oracle: order/ideal is a field, by a determinant mod p for each of the p^f residues."""
    n = order.n
    diag = [ideal.rows[i][i] for i in range(n)]
    free = [i for i in range(n) if diag[i] != 1]
    if not free:
        return False  # the whole order
    if any(d != p for d in diag if d != 1):
        return False  # norm not p^f, cannot be maximal above p
    f = len(free)
    for combo in itertools.product(range(p), repeat=f):
        if not any(combo):
            continue
        x = [0] * n
        for pos, i in enumerate(free):
            x[i] = combo[pos]
        # multiplication-by-x map on the f-dimensional quotient
        mat = []
        for i in free:
            prod = _lattice_divmod(ideal.rows, order.vec_mul(x, _unit(n, i)))[1]
            mat.append([prod[j] % p for j in free])
        if _det_mod_p(mat, p) == 0:
            return False
    return True


def _det_mod_p(mat, p):
    m = [row[:] for row in mat]
    n = len(m)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        inv = pow(m[col][col], -1, p)
        det = det * m[col][col] % p
        for r in range(col + 1, n):
            f = m[r][col] * inv % p
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[col])]
    return det % p


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


def seeded_maximal_orders(rng, per_degree):
    """Maximal orders of `per_degree` fields of each degree 3-6, drawn as in test_properties.

    Monic f with coefficients in [-9, 9], nonzero constant term and a
    discriminant that proves it irreducible.
    """
    fields = []
    for n in (3, 4, 5, 6):
        while sum(order.n == n for order in fields) < per_degree:
            f = random_monic_zpoly(rng, n, 9)
            disc = discriminant(f)
            if f.coeffs[0] and disc and provably_irreducible(f, disc):
                fields.append(maximal_order(f)[0])
    return fields


def random_power_basis_orders(rng, rank, count, bound=9):
    """Power-basis orders Z[t]/(f) of monic f, coefficients in [-bound, bound], disc != 0."""
    out = []
    while len(out) < count:
        f = random_monic_zpoly(rng, rank, bound)
        if f.coeffs[0] and discriminant(f):
            out.append(order_from_polynomial(f))
    return out


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
    """Oracle for _radical_mod_p: the power of the Frobenius matrix by dense products."""
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
        [[p * c for c in unit] for unit in _identity_rows(n)]
        + _left_kernel_mod_p(power, p)
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
        raise ValueError("index form is limited to rank <= 6")
    names = ("z",) + parse_multipoly_vars(n)
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
    finds each exponent e by valuation against p*order.  The order must
    be p-maximal; results are sorted by basis matrix.
    """
    n = order.n
    radical = _radical_mod_p(_frobenius_mod_p(order.table, p), p)
    if _multipliers_mod_p(order.table, p, radical):
        raise ValueError("order is not %d-maximal" % p)

    p_ideal = ideal_from_generators(order, [order.identity() * p])
    candidates = []  # (cols, mat, ideal)
    for k in range(n):
        for cols, mat in _echelon_subspaces(p, n, k):
            if _closed_mod_p(order, mat, p, cols):
                rows = [list(r) for r in p_ideal.rows] + [list(r) for r in mat]
                ideal = LatticeIdeal(order, hnf(rows, n), _trusted=True)
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
        e = ideal_valuation(p_ideal, ideal)
        out.append((ideal, e, f))
        total = ideal_product(total, ideal_power(ideal, e))
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
        _unit(order.n, 0),
    )


def _quotient_frobenius_minus_identity(order, rows, p):
    """(free positions, x -> x^p - x on order/I), I canonical and containing p*order."""
    n = order.n
    free = [i for i in range(n) if rows[i][i] != 1]
    shifted = []
    for k, i in enumerate(free):
        image = _lattice_divmod(rows, _unit_pow_mod_p(order, _unit(n, i), p, p))[1]
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
    nilpotent = [_unit_pow_mod_p(order, _unit(n, i), q, p) for i in range(n)]
    radical = hnf(
        [[p * c for c in _unit(n, i)] for i in range(n)]
        + _left_kernel_mod_p(nilpotent, p)
    )
    free, shifted = _quotient_frobenius_minus_identity(order, radical, p)
    split = _left_kernel_mod_p(shifted, p)
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

    p_ideal = ideal_from_generators(order, [order.identity() * p])
    out, total = [], None
    for rows in sorted(parts):
        ideal = LatticeIdeal(order, rows, _trusted=True)
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


def powering_fp_factor(f, seed=0):
    """Oracle for fp_factor, from the powering-per-step splitting above."""
    if f.degree == 0:
        return []
    fac = _powering_factor_monic(f.monic(), random.Random(seed))
    return sorted(fac.items(), key=lambda ge: ge[0].sort_key())
