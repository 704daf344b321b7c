"""Ideals of an order as full-rank integer lattices in Hermite normal form.

The canonical form is triangular with pivots on the diagonal: row i has
its last nonzero entry at column i, diagonal entries are positive, and
every entry below a pivot is reduced into [0, pivot).  This is exactly
the shape of bracket bases like [2, a, 1+b]: equal ideals have equal
matrices, so verification tables reduce to matrix comparisons.

Ideals are stored relative to the order's basis; two-element
representations are constructors only.  The primes above p come
from splitting order/(p*order) by its idempotents, which ends at each
P^e; P is P^e plus the p-radical, and f and e come from the norms of P
and P^e by ``integers.prime_power``.  Good generators are combined by
lattice CRT: one reduction modulo the canonical basis of a lattice of
rank 2n.  All values are immutable and all operations pure.
"""

import itertools

from .fppoly import FpPoly, as_modulus, binary_power, fp_factor, fp_is_irreducible
from .integers import prime_power
from .orders import (
    Order,
    OrderElement,
    _bracket_entry,
    _echelon_mod_p,
    _frobenius_mod_p,
    _lattice_divmod,
    _left_kernel_mod_p,
    _multipliers_mod_p,
    _radical_mod_p,
    _unit,
    char_poly,
    element_index,
    hnf,
)
from .zpoly import lift, reduce_mod


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
        for row in self.rows:
            # row * basis_g for g >= 1; row * 1 is row itself
            for prod in self.order.mul_matrix(row)[1:]:
                if not self.contains_vec(prod):
                    raise ValueError("lattice is not closed under ring multiplication")

    def norm(self):
        out = 1
        for i in range(self.order.n):
            out *= self.rows[i][i]
        return abs(out)

    def contains_vec(self, vec):
        return not any(_lattice_divmod(self.rows, vec)[1])

    def contains_element(self, elem):
        return self.contains_vec(elem.coords)

    def contains_ideal(self, other):
        """True when other is a sublattice (this ideal divides other)."""
        return all(map(self.contains_vec, other.rows))

    def residues(self):
        """All canonical residue vectors modulo this lattice, in lex order."""
        ranges = [range(self.rows[i][i]) for i in range(self.order.n)]
        for combo in itertools.product(*ranges):
            yield _lattice_divmod(self.rows, combo)[1]

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
    for g in gens:
        coords = g.coords if isinstance(g, OrderElement) else tuple(g)
        rows.extend(order.mul_matrix(coords))
    return LatticeIdeal(order, hnf(rows, order.n), _trusted=True)


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
    return binary_power(a, e, ideal_product, whole_order(a.order))


def ideal_norm(a):
    return a.norm()


# -- quotient-ring structure ------------------------------------------------

def _is_maximal(order, ideal, p):
    """True when order/ideal is a field.

    The quotient is a GF(p)-algebra when the rows at its free positions
    (diagonal p) are p times a unit vector (p*order lies in the ideal),
    and the basis elements at those positions are a basis of it.  It is
    then a field exactly when the Frobenius x -> x^p is injective on it
    (no nilpotents) and fixes a 1-dimensional space (one field factor).
    """
    n = order.n
    rows = ideal.rows
    free = [i for i in range(n) if rows[i][i] != 1]
    if not free:
        return False  # the whole order
    if any(rows[i] != tuple(p * c for c in _unit(n, i)) for i in free):
        return False  # p*order is not inside, so no field of characteristic p
    frobenius = _frobenius_mod_p(order.table, p)
    images = [_lattice_divmod(rows, frobenius[i])[1] for i in free]
    restricted = [[image[j] for j in free] for image in images]
    shifted = [[c - (j == k) for k, c in enumerate(r)] for j, r in enumerate(restricted)]
    f = len(free)
    return (
        len(_echelon_mod_p(restricted, p)[0]) == f
        and len(_echelon_mod_p(shifted, p)[0]) == f - 1
    )


def ideal_valuation(a, prime):
    """Largest v with prime**v containing a (the exponent of the prime in a).

    A power is built only when its norm does not already exceed the norm
    of a, which rules it out.
    """
    if a.order != prime.order:
        raise ValueError("ideals belong to different orders")
    nrm = prime.norm()
    base = prime_power(nrm)
    if base is None or not _is_maximal(prime.order, prime, base[0]):
        raise ValueError("valuation requires a maximal ideal")
    v, power = 0, prime
    target_norm = a.norm()
    pw_norm = nrm
    while pw_norm <= target_norm:
        if v:
            power = ideal_product(power, prime)
        if not power.contains_ideal(a):
            break
        v += 1
        pw_norm *= nrm
    return v


# -- factoring p by splitting order/(p*order) ---------------------------------

def factor_p_in_order(order, modulus):
    """All prime ideals above p with their exponents and degrees.

    The quotient of the order by p*order is the product of the local
    rings order/P^e, one per prime P above p, and the x with x^p = x in
    it are the GF(p)-combinations of their g idempotents (Cohen, GTM 138,
    6.2).  Each such x is a constant c_i modulo the i-th P^e, and the c_i
    are the roots of its characteristic polynomial mod p, so every ideal
    J between p*order and the order is split into the proper ideals among
    J + (x - c).  A basis of those x separates all g components, and the
    split ends at the P^e themselves.  Each P is its P^e plus the
    p-radical, its residue degree f comes from the norm p^f, and e from
    the norm p^(e*f) of P^e; the product of the P^e must be p*order.

    The order must be p-maximal.  Results are sorted by basis matrix
    and returned as (ideal, e, f).
    """
    modulus = as_modulus(modulus)
    p = modulus.p
    n = order.n
    frobenius = _frobenius_mod_p(order.table, p)
    radical = _radical_mod_p(frobenius, p)
    # one Round 2 step: the ring of multipliers of the radical must be the order
    if _multipliers_mod_p(order.table, p, radical):
        raise ValueError("order is not %d-maximal" % p)

    shifted = [[c - (j == k) for k, c in enumerate(r)] for j, r in enumerate(frobenius)]
    split = _left_kernel_mod_p(shifted, p)
    p_rows = tuple(tuple(p * c for c in _unit(n, i)) for i in range(n))
    parts = [p_rows]
    for x in split:
        if len(parts) == len(split):
            break
        cp = reduce_mod(char_poly(OrderElement(order, x)), modulus)
        refined = []
        for linear, _ in fp_factor(cp):
            c = -linear.coeffs[0]  # the root of t - c
            generators = order.mul_matrix([x[0] - c] + x[1:])
            for rows in parts:
                ideal = hnf(list(rows) + generators, n)
                if any(r[i] != 1 for i, r in enumerate(ideal)):
                    refined.append(ideal)
        parts = refined
    if len(parts) != len(split):
        raise AssertionError("the split subalgebra does not separate the primes")

    powers = [LatticeIdeal(order, rows, _trusted=True) for rows in parts]
    out = []
    for power in powers:
        prime = LatticeIdeal(order, hnf(power.rows + radical, n), _trusted=True)
        q, f = prime_power(prime.norm())
        if q != p:
            raise AssertionError("ideal norm is not a power of %d" % p)
        _, ef = prime_power(power.norm())
        if ef % f:
            raise AssertionError("the norm of P^e is not a power of the norm of P")
        out.append((prime, ef // f, f))
    out.sort(key=lambda entry: entry[0].rows)

    total, *rest = powers
    for power in rest:
        total = ideal_product(total, power)
    if total.rows != p_rows:
        raise AssertionError("prime power product does not reconstruct p*order")
    if sum(e * f for _, e, f in out) != n:
        raise AssertionError("sum of e*f does not equal the rank")
    return out


# -- good generators via lattice CRT ----------------------------------------

def _crt_pair(order, a, la, b, lb):
    """theta with theta = a mod la and theta = b mod lb.

    The rows (u, u) for u in la and (0, w) for w in lb span the rank-2n
    lattice {(u, u + w)}.  Reducing (0, b - a) modulo its canonical
    basis leaves a zero second half exactly when b - a lies in la + lb,
    and then a first half -u with u in la and b - a - u in lb, so that
    theta = a + u.
    """
    n = order.n
    zero = (0,) * n
    rows = [r + r for r in la.rows] + [zero + r for r in lb.rows]
    diff = tuple(y - x for x, y in zip(a.coords, b.coords))
    _, residue = _lattice_divmod(hnf(rows), zero + diff)
    if any(residue[n:]):
        raise ValueError("congruences are not compatible")
    return OrderElement(order, [x - u for x, u in zip(a.coords, residue)])


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
    modulus = as_modulus(modulus)
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
    theta = OrderElement(order, _lattice_divmod(lattice.rows, theta.coords)[1])
    if element_index(order, theta) % p == 0:
        raise AssertionError("constructed generator has index divisible by %d" % p)
    expected = FpPoly(modulus, (1,))
    for (_, e, _), poly in zip(primes, polys):
        expected = expected * poly**e
    if reduce_mod(char_poly(theta), modulus) != expected:
        raise AssertionError("characteristic polynomial does not match the chosen factors")
    return theta
