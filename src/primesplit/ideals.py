"""Ideals of an order as full-rank integer lattices in Hermite normal form.

The canonical form is triangular with pivots on the diagonal: row i has
its last nonzero entry at column i, diagonal entries are positive, and
every entry below a pivot is reduced into [0, pivot).  This is exactly
the shape of bracket bases like [2, a, 1+b]: equal ideals have equal
matrices, so verification tables reduce to matrix comparisons.

Ideals are stored relative to the order's basis; two-element
representations are constructors only.  All values are immutable and
all operations pure.
"""

import itertools

from .fppoly import FpPoly, PrimeModulus, fp_is_irreducible
from .orders import (
    Order,
    OrderElement,
    _bracket_entry,
    _echelon_mod_p,
    _multipliers_mod_p,
    _pow_mod_p,
    _unit,
    _upper_hnf,
    char_poly,
    element_index,
    hnf,
    lattice_contains,
)
from .zpoly import lift, reduce_mod


def solve_in_rowspan(rows, target):
    """Integer coefficients y with sum(y_i * rows_i) = target, or None."""
    h, combos = _upper_hnf([list(r) for r in rows], transform=True)
    v = list(target)
    coeff = [0] * len(rows)
    for r, rc in zip(h, combos):
        j = next(c for c, x in enumerate(r) if x)
        if v[j] % r[j]:
            return None
        q = v[j] // r[j]
        if q:
            v = [x - q * y for x, y in zip(v, r)]
            coeff = [x + q * y for x, y in zip(coeff, rc)]
    if any(v):
        return None
    return coeff


def reduce_mod_lattice(basis, vec):
    """Canonical residue of a vector modulo the lattice: coords in [0, diag)."""
    v = list(vec)
    for i in range(len(basis) - 1, -1, -1):
        q = v[i] // basis[i][i]
        if q:
            for j in range(i + 1):
                v[j] -= q * basis[i][j]
    return tuple(v)


class LatticeIdeal:
    """Full-rank ideal of an order, stored as a canonical triangular basis."""

    __slots__ = ("order", "rows")

    def __init__(self, order, rows, _trusted=False):
        if not isinstance(order, Order):
            raise TypeError("expected an Order")
        rows = tuple(tuple(int(c) for c in r) for r in rows)
        self.order = order
        self.rows = rows
        if not _trusted:
            canonical = hnf(rows, order.n)
            if canonical != rows:
                raise ValueError("basis rows are not in canonical form")
            self._check_closure()

    def _check_closure(self):
        n = self.order.n
        for row in self.rows:
            for g in range(1, n):
                prod = self.order.vec_mul(row, _unit(n, g))
                if not lattice_contains(self.rows, prod):
                    raise ValueError("lattice is not closed under ring multiplication")

    def norm(self):
        out = 1
        for i in range(self.order.n):
            out *= self.rows[i][i]
        return abs(out)

    def contains_vec(self, vec):
        return lattice_contains(self.rows, vec)

    def contains_element(self, elem):
        return lattice_contains(self.rows, elem.coords)

    def contains_ideal(self, other):
        """True when other is a sublattice (this ideal divides other)."""
        return all(lattice_contains(self.rows, r) for r in other.rows)

    def residues(self):
        """All canonical residue vectors modulo this lattice, in lex order."""
        ranges = [range(self.rows[i][i]) for i in range(self.order.n)]
        for combo in itertools.product(*ranges):
            yield reduce_mod_lattice(self.rows, combo)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeIdeal)
            and self.order == other.order
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.order, self.rows))

    def __repr__(self):
        return "LatticeIdeal(%s)" % bracket_str(self)


def bracket_str(ideal):
    """Paper-style bracket notation, e.g. ``[2, a, 1+b]``."""
    return "[%s]" % ", ".join(
        _bracket_entry(r, ideal.order.labels) for r in ideal.rows
    )


def whole_order(order):
    n = order.n
    return LatticeIdeal(order, [_unit(n, i) for i in range(n)], _trusted=True)


def ideal_from_generators(order, gens):
    """Smallest ideal containing the generators: HNF of all gen * basis products."""
    rows = []
    n = order.n
    for g in gens:
        if isinstance(g, OrderElement):
            coords = g.coords
        else:
            coords = tuple(g)
        for j in range(n):
            rows.append(order.vec_mul(coords, _unit(n, j)))
    return LatticeIdeal(order, hnf(rows, n), _trusted=True)


def principal_ideal(order, elem):
    return ideal_from_generators(order, [elem])


def two_element_ideal(order, modulus, gen_poly, theta):
    """Ideal generated by p and gen_poly(theta): Dedekind's gcd of the two principal ideals."""
    p = int(modulus)
    rho = evaluate_poly_at(gen_poly, theta)
    scaled = order.identity() * p
    return ideal_from_generators(order, [scaled, rho])


def evaluate_poly_at(poly, theta):
    """Evaluate an integer polynomial at an order element (Horner)."""
    order = theta.order
    acc = order.zero()
    one = order.identity()
    for c in reversed(poly.coeffs):
        acc = acc * theta + one * int(c)
    return acc


def ideal_product(a, b):
    if a.order != b.order:
        raise ValueError("ideals belong to different orders")
    rows = []
    for r in a.rows:
        for s in b.rows:
            rows.append(a.order.vec_mul(r, s))
    return LatticeIdeal(a.order, hnf(rows, a.order.n), _trusted=True)


def ideal_power(a, e):
    result = whole_order(a.order)
    base = a
    while e:
        if e & 1:
            result = ideal_product(result, base)
        base = ideal_product(base, base)
        e >>= 1
    return result


def ideal_norm(a):
    return a.norm()


# -- quotient-ring structure ------------------------------------------------

def _is_maximal(order, ideal, p):
    """True when order/ideal is a field.

    The quotient is a GF(p)-algebra when the rows at its free positions
    are p times a unit vector (p*order lies in the ideal).  It is then a
    field exactly when the Frobenius x -> x^p is injective on it (no
    nilpotents) and fixes a 1-dimensional space (one field factor).
    """
    n = order.n
    free = [i for i in range(n) if ideal.rows[i][i] != 1]
    if not free:
        return False  # the whole order
    if any(ideal.rows[i] != tuple(p * c for c in _unit(n, i)) for i in free):
        return False  # p*order is not inside, so no field of characteristic p
    frobenius = []
    for i in free:
        image = reduce_mod_lattice(ideal.rows, _pow_mod_p(order, _unit(n, i), p, p))
        frobenius.append([image[j] for j in free])
    shifted = [
        [c - (j == k) for k, c in enumerate(row)] for j, row in enumerate(frobenius)
    ]
    f = len(free)
    return (
        len(_echelon_mod_p(frobenius, p)[0]) == f
        and len(_echelon_mod_p(shifted, p)[0]) == f - 1
    )


def ideal_valuation(a, prime):
    """Largest v with prime**v containing a (the exponent of the prime in a)."""
    if a.order != prime.order:
        raise ValueError("ideals belong to different orders")
    nrm = prime.norm()
    p = _prime_base(nrm)
    if p is None or not _is_maximal(prime.order, prime, p):
        raise ValueError("valuation requires a maximal ideal")
    v = 0
    power = prime
    target_norm = a.norm()
    pw_norm = nrm
    while pw_norm <= target_norm and power.contains_ideal(a):
        v += 1
        power = ideal_product(power, prime)
        pw_norm *= nrm
    return v


def _prime_base(n):
    if n < 2:
        return None
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            return d if n == 1 else None
        d += 1
    return n


# -- factoring p by enumeration --------------------------------------------

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


def factor_p_in_order(order, modulus, bound=10**4):
    """All prime ideals above p with their exponents and degrees.

    Enumerates the sublattices between p*order and order through echelon
    forms over GF(p), keeps those closed under ring multiplication,
    picks the maximal proper ones, reads each residue degree f from the
    norm p^f, and finds each exponent e by valuation against p*order so
    that the product of prime powers is exactly p*order.

    The order must be p-maximal; p**n must not exceed `bound`.
    Results are sorted by basis matrix and returned as (ideal, e, f).
    """
    if not isinstance(modulus, PrimeModulus):
        modulus = PrimeModulus(modulus)
    p = modulus.p
    n = order.n
    if p**n > bound:
        raise ValueError(
            "p^n = %d exceeds the enumeration bound %d" % (p**n, bound)
        )
    _require_p_maximal(order, modulus)

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
        f = _norm_degree(ideal.norm(), p)
        e = ideal_valuation(p_ideal, ideal)
        out.append((ideal, e, f))
        total = ideal_product(total, ideal_power(ideal, e))
    if total != p_ideal:
        raise AssertionError("prime power product does not reconstruct p*order")
    if sum(e * f for _, e, f in out) != n:
        raise AssertionError("sum of e*f does not equal the rank")
    return out


def _norm_degree(nrm, p):
    f = 0
    while nrm > 1:
        if nrm % p:
            raise AssertionError("ideal norm is not a power of %d" % p)
        nrm //= p
        f += 1
    return f


def _require_p_maximal(order, modulus):
    """One Round 2 step: the ring of multipliers of the p-radical must be the order."""
    p = int(modulus)
    if _multipliers_mod_p(order, p):
        raise ValueError("order is not %d-maximal" % p)


# -- good generators via lattice CRT ----------------------------------------

def _crt_pair(order, a, la, b, lb):
    """theta with theta = a mod la and theta = b mod lb, for comaximal lattices."""
    rows = [list(r) for r in la.rows] + [list(r) for r in lb.rows]
    diff = [x - y for x, y in zip(b.coords, a.coords)]
    combo = solve_in_rowspan(rows, diff)
    if combo is None:
        raise ValueError("congruences are not compatible")
    n = order.n
    u = [0] * n
    for i in range(n):
        if combo[i]:
            for j in range(n):
                u[j] += combo[i] * la.rows[i][j]
    theta = OrderElement(order, [x + y for x, y in zip(a.coords, u)])
    return theta


def crt_good_generator(order, modulus, primes, polys):
    """Generator whose index avoids p, built from chosen prime functions.

    `primes` is the (ideal, e, f) list for p in this order; `polys` are
    pairwise distinct monic irreducibles over GF(p) with deg(polys[i])
    equal to f_i.  For each prime ideal a root of the matching
    polynomial is found among the p^f residues (smallest in
    coordinate-lexicographic order), shifted off the square of the
    ideal when the exponent demands it, and the congruences modulo the
    squared primes are combined by lattice CRT.

    The result is reduced to the canonical residue modulo the product
    of the squared primes; its index is not divisible by p and its
    characteristic polynomial reduces to the chosen factorization mod p.
    """
    if not isinstance(modulus, PrimeModulus):
        modulus = PrimeModulus(modulus)
    p = modulus.p
    if len(primes) != len(polys):
        raise ValueError("need one prime function per prime ideal")
    seen = set()
    for (ideal, e, f), poly in zip(primes, polys):
        if not isinstance(poly, FpPoly) or poly.modulus != modulus:
            raise ValueError("prime functions must share the modulus %d" % p)
        if poly.degree != f:
            raise ValueError(
                "degree mismatch: prime ideal of degree %d got %s" % (f, poly)
            )
        if not poly.is_monic() or (poly.degree > 0 and not fp_is_irreducible(poly)):
            raise ValueError("prime functions must be monic irreducibles")
        if poly.coeffs in seen:
            raise ValueError(
                "infeasible prime-function supply: %s repeated" % poly
            )
        seen.add(poly.coeffs)

    congruences = []
    for (ideal, e, f), poly in zip(primes, polys):
        zp = lift(poly)
        root = None
        for residue in ideal.residues():
            val = evaluate_poly_at(zp, OrderElement(order, residue))
            if ideal.contains_element(val):
                root = OrderElement(order, residue)
                break
        if root is None:
            raise AssertionError("prime function has no root modulo its ideal")
        squared = ideal_product(ideal, ideal)
        if e >= 2:
            val = evaluate_poly_at(zp, root)
            if squared.contains_element(val):
                shift = next(
                    OrderElement(order, r)
                    for r in ideal.rows
                    if not squared.contains_vec(r)
                )
                root = root + shift
                val = evaluate_poly_at(zp, root)
                if squared.contains_element(val):
                    raise AssertionError("shift failed to escape the ideal square")
        congruences.append((root, squared))

    theta, lattice = congruences[0]
    for value, lat in congruences[1:]:
        theta = _crt_pair(order, theta, lattice, value, lat)
        lattice = ideal_product(lattice, lat)
    theta = OrderElement(order, reduce_mod_lattice(lattice.rows, theta.coords))
    if element_index(order, theta) % p == 0:
        raise AssertionError("constructed generator has index divisible by %d" % p)
    expected = FpPoly(modulus, (1,))
    for (_, e, _), poly in zip(primes, polys):
        expected = expected * poly**e
    if reduce_mod(char_poly(theta), modulus) != expected:
        raise AssertionError("characteristic polynomial does not match the chosen factors")
    return theta
