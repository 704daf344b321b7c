"""Shared generators and small oracles for the test suite."""

import itertools
import random
from fractions import Fraction

from primesplit.fppoly import FpPoly, PrimeModulus
from primesplit.indexform import MultiPoly, parse_multipoly_vars
from primesplit.orders import (
    order_discriminant,
    order_from_polynomial,
    p_enlarge,
    trial_factor,
)
from primesplit.zpoly import ZPoly, discriminant


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


def has_integer_root(f):
    const = f.coeffs[0]
    if const == 0:
        return True
    for d in range(1, abs(const) + 1):
        if const % d == 0 and (f(d) == 0 or f(-d) == 0):
            return True
    return False


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


def always_scan_maximal_order(f, bound=10**6):
    """Oracle: p-enlarge Z[t]/(f) at every q with q^2 | disc(f), with no Dedekind skip.

    Returns (basis rows in power-basis coordinates, discriminant).
    """
    order = order_from_polynomial(f)
    n = order.n
    emb = [[Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for q, e in sorted(trial_factor(discriminant(f), bound).items()):
        if e < 2:
            continue
        order = p_enlarge(order, PrimeModulus(q))
        emb = [
            [sum(row[k] * emb[k][j] for k in range(n)) for j in range(n)]
            for row in order.basis_in_parent
        ]
    return tuple(tuple(r) for r in emb), order_discriminant(order)


def random_power_basis_orders(rng, rank, count, bound=9):
    """Power-basis orders Z[t]/(f) of monic f, coefficients in [-bound, bound], disc != 0."""
    out = []
    while len(out) < count:
        f = random_monic_zpoly(rng, rank, bound)
        if f.coeffs[0] and discriminant(f):
            out.append(order_from_polynomial(f))
    return out


def cofactor_index_form(order):
    """Oracle: the index form by cofactor expansion over MultiPoly (factorial time)."""
    n = order.n
    if n > 5:
        raise ValueError("index form is limited to rank <= 5")
    names = ("z",) + parse_multipoly_vars(n)
    coords = [MultiPoly.variable(names, v) for v in names]
    zero = MultiPoly(names, {})
    one_vec = [MultiPoly.constant(names, 1)] + [zero] * (n - 1)

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
    if det.max_exponent("z"):
        raise AssertionError("index form depends on the identity coordinate")
    return det.drop_variable("z")


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
        return MultiPoly(m[0][0].vars, {})
    return det


def exhaustive_common_value_divisor(f, p):
    """Oracle: True when f(point) = 0 mod p at every point of GF(p)^v (p^v evaluations)."""
    for point in itertools.product(range(p), repeat=len(f.vars)):
        if f.evaluate(point) % p:
            return False
    return True
