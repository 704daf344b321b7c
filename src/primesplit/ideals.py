"""Ideals of an order as full-rank integer lattices in Hermite normal form.

The canonical form is triangular with pivots on the diagonal: row i has
its last nonzero entry at column i, diagonal entries are positive, and
every entry below a pivot is reduced into [0, pivot).  This is exactly
the shape of bracket bases like [2, a, 1+b]: equal ideals have equal
matrices, so verification tables reduce to matrix comparisons.

Ideals are stored relative to the order's basis and are built from
generators or as products.  The primes above p come from the primitive
idempotents of order/(p*order), found in its Frobenius-fixed subalgebra
(``_primitive_idempotents``): with alpha = 1 - e for an idempotent e,
P^e = p*order + alpha*order, P is P^e plus the p-radical, and f and e
come from the GF(p) dimensions of P and P^e, since a k-dimensional
subspace of order/(p*order) is an ideal of norm p^(n-k).  Between
p*order and the order, lattices are GF(p) subspaces whose canonical
rows come from echelon rows mod p (``lattice`` holds the canonical form
and the GF(p) kernel), so integer HNF runs there only to check that
the P^e multiply to p*order, one step of 2n rows per prime after the
first.  Good generators are combined by lattice CRT: one reduction
modulo the canonical basis of a lattice of rank 2n.  All values are
immutable and all operations pure.
"""

import itertools
import operator
import random

from .fppoly import FpPoly, as_modulus, binary_power, fp_is_irreducible
from .lattice import (
    combine_rows_mod_p,
    echelon_mod_p,
    hnf,
    lattice_divmod,
    lattice_rows_mod_p,
    left_kernel_mod_p,
    unit,
)
from .orders import (
    Order,
    OrderElement,
    char_poly,
    element_index,
    frobenius_mod_p,
    radical_mod_p,
    require_p_maximal,
)
from .textfmt import bracket_entry
from .zpoly import lift, reduce_mod


class LatticeIdeal:
    """Full-rank ideal of an order, stored as a canonical triangular basis."""

    __slots__ = ("order", "rows")

    def __init__(self, order, rows, _trusted=False):
        # trusted rows are canonical tuples of ints (hnf, lattice_rows_mod_p
        # or whole_order) and are stored as given
        if not isinstance(order, Order):
            raise TypeError("expected an Order")
        if not _trusted:
            rows = tuple(tuple(map(operator.index, r)) for r in rows)
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
        return not any(lattice_divmod(self.rows, vec)[1])

    def contains_element(self, elem):
        return self.contains_vec(elem.coords)

    def contains_ideal(self, other):
        """True when other is a sublattice (this ideal divides other)."""
        return all(map(self.contains_vec, other.rows))

    def residues(self):
        """All canonical residue vectors modulo this lattice, in lex order.

        A vector with 0 <= r_i < rows[i][i] is its own canonical residue.
        """
        return itertools.product(*(range(row[i]) for i, row in enumerate(self.rows)))

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
        bracket_entry(r, ideal.order.labels) for r in ideal.rows
    )


def whole_order(order):
    n = order.n
    return LatticeIdeal(order, tuple(unit(n, i) for i in range(n)), _trusted=True)


def ideal_from_generators(order, gens):
    """Smallest ideal containing the generators: HNF of all gen * basis products."""
    rows = []
    for g in gens:
        coords = g.coords if isinstance(g, OrderElement) else tuple(g)
        rows.extend(order.mul_matrix(coords))
    return LatticeIdeal(order, hnf(rows, order.n), _trusted=True)


def principal_ideal(order, elem):
    return ideal_from_generators(order, [elem])


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


# -- factoring p by splitting order/(p*order) ---------------------------------

def _primitive_idempotents(order, frobenius, p):
    """Primitive idempotents of order/(p*order) as coordinate vectors mod p.

    The x with x^p = x are the kernel S of `frobenius` (``frobenius_mod_p``)
    minus the identity.  S has no nilpotents, so it is GF(p)^g with one
    factor per local ring of order/(p*order), and its g atoms are the
    primitive idempotents of the quotient (Cohen, GTM 138, 6.2).  They are
    found inside S: each kernel vector is 1 at its own free column, its
    last nonzero entry, and 0 at the others, so an element of S is read
    off at those columns, and S's own g x g table takes g(g-1)/2 products.
    y = x^((p-1)/2) of a random x in S is 0, 1 or -1 in each factor, and
    (y^2+y)/2, (y^2-y)/2 and 1-y^2 cut every idempotent by those values
    (Cantor and Zassenhaus, Math. Comp. 36 (1981), run in S instead of
    GF(p)[t]); draws repeat until there are g.  At p = 2 the exponent is
    taken as 1, so y = x is 0 or 1 in each factor and y^2 = y; with 1/2
    read as (p+1)/2 = 1, the piece (y^2+y)/2 = 2y is zero, and the same
    cut leaves 1-y and y.  The draws come from a ``random.Random(0)``
    made for this call, and idempotents are unique, so the draws change
    only the run time.
    """
    shifted = [[c - (j == k) for k, c in enumerate(r)] for j, r in enumerate(frobenius)]
    split, free = left_kernel_mod_p(shifted, p)
    g = len(split)
    if g == 1:
        # row 0 of shifted is zero, so split[0] is the identity
        return split
    # S's table packed along the coordinate: slot k of packed[i][j] holds
    # coordinate k of s_i * s_j.  A slot of sum u_i v_j packed[i][j] sums
    # g^2 products of three residues, so w bits hold it, and a product in
    # S is g^2 integer products and one unpacking.
    w = (g * g * (p - 1) ** 3).bit_length() + 1
    mask = (1 << w) - 1
    packed = [[None] * g for _ in range(g)]
    for k in range(g):
        packed[0][k] = packed[k][0] = 1 << (w * k)
    for k, l in itertools.combinations_with_replacement(range(1, g), 2):
        prod = order.vec_mul(split[k], split[l])
        packed[k][l] = packed[l][k] = sum(
            prod[i] % p << (w * s) for s, i in enumerate(free)
        )
    half = (p + 1) // 2  # the inverse of 2 mod p; 1 at p = 2

    def mul(u, v):
        acc = sum(ui * sum(map(operator.mul, v, row)) for ui, row in zip(u, packed) if ui)
        return tuple((acc >> (w * k) & mask) % p for k in range(g))

    def sub(u, v):
        return tuple((a - b) % p for a, b in zip(u, v))

    one = unit(g, 0)
    atoms = [one]
    rng = random.Random(0)
    while len(atoms) < g:
        # zero pieces are dropped
        x = tuple(rng.randrange(p) for _ in range(g))
        y = binary_power(x, (p - 1) // 2 or 1, mul, one)
        y2 = mul(y, y)
        cut = []
        for e in atoms:
            ey2 = mul(e, y2)
            plus = tuple((a + b) * half % p for a, b in zip(ey2, mul(e, y)))
            pieces = sub(e, ey2), plus, sub(ey2, plus)
            cut += [piece for piece in pieces if any(piece)]
        atoms = cut
    if len(atoms) != g:
        raise AssertionError("the split subalgebra does not separate the primes")
    return [combine_rows_mod_p(e, split, p) for e in atoms]


def factor_p_in_order(order, modulus):
    """All prime ideals above p with their exponents and degrees.

    The quotient of the order by p*order is the product of the local
    rings order/P^e, one per prime P above p, and the x with x^p = x in
    it form a subalgebra S = GF(p)^g whose atoms are their g idempotents
    (Cohen, GTM 138, 6.2).  ``_primitive_idempotents`` finds them in S
    itself, with no polynomial factored.  For each idempotent e,
    alpha = 1 - e is 0 on its own component and 1 on the others, so
    P^e = p*order + alpha*order: one echelon of alpha's multiplication
    matrix mod p.  Each P is its P^e plus the p-radical.  A subspace of
    dimension k has norm p^(n-k), so the residue degree f is n less the
    dimension of P, and e*f is n less that of P^e.  The product of the
    P^e must be p*order: from T = P^e of the first prime, each further
    prime takes one integer HNF of the 2n rows of p*T and alpha*T, and
    each row of alpha*T is a row of T times alpha's matrix.

    Every P^e and P is held as a reduced echelon pair mod p, a
    subspace of order/(p*order), and its canonical rows are read off it.

    The order must be p-maximal (``orders.require_p_maximal``): an
    order from ``maximal_order`` carries its proof, v_p(disc) < 2 proves
    it for any other, and otherwise one Round 2 step on the radical
    checks it.  Results are sorted by basis matrix and returned as
    (ideal, e, f).
    """
    modulus = as_modulus(modulus)
    p = modulus.p
    n = order.n
    frobenius = frobenius_mod_p(order.table, p)
    radical = radical_mod_p(frobenius, p)
    require_p_maximal(order, p, radical)

    out, parts = [], []
    for idempotent in _primitive_idempotents(order, frobenius, p):
        # alpha = 1 - idempotent is 0 on its own component and 1 on the
        # others, so P^e = p*order + alpha*order
        alpha = [((j == 0) - c) % p for j, c in enumerate(idempotent)]
        # alpha = 0 when g = 1: then P^e is p*order itself
        times_alpha = order.mul_matrix(alpha) if any(alpha) else []
        power_space = echelon_mod_p(times_alpha, p)
        # P^e + radical: only the rows of P^e are reduced
        prime_space = echelon_mod_p(power_space[0], p, start=radical)
        prime = LatticeIdeal(order, lattice_rows_mod_p(prime_space, p, n), _trusted=True)
        ef, f = n - len(power_space[0]), n - len(prime_space[0])
        if f < 1:
            raise AssertionError("P^e plus the %d-radical is the whole order" % p)
        if ef % f:
            raise AssertionError("the norm of P^e is not a power of the norm of P")
        out.append((prime, ef // f, f))
        parts.append((power_space, times_alpha))
    out.sort(key=lambda entry: entry[0].rows)

    # T * P^e = p*T + alpha*T: 2n rows, and alpha*t is t times alpha's matrix
    total = lattice_rows_mod_p(parts[0][0], p, n)
    for _, times_alpha in parts[1:]:
        columns = list(zip(*times_alpha))
        total = hnf(
            [[p * c for c in t] for t in total]
            + [[sum(map(operator.mul, t, col)) for col in columns] for t in total],
            n,
        )
    if total != lattice_rows_mod_p(((), ()), p, n):
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
    _, residue = lattice_divmod(hnf(rows), zero + diff)
    if any(residue[n:]):
        raise ValueError("congruences are not compatible")
    return OrderElement(order, [x - u for x, u in zip(a.coords, residue)])


def crt_good_generator(order, primes, polys):
    """Generator whose index avoids p, built from chosen prime functions.

    `primes` is the (ideal, e, f) list for p in this order; `polys` are
    pairwise distinct monic irreducibles over GF(p) with deg(polys[i])
    equal to f_i, all over GF(p) for the p that each ideal holds as its
    first basis entry.  For each prime ideal a root of the matching
    polynomial is found among the p^f residues (smallest in
    coordinate-lexicographic order), shifted off the square of the
    ideal when the exponent demands it, and the congruences modulo the
    squared primes are combined by lattice CRT.

    The result is reduced to the canonical residue modulo the product
    of the squared primes; its index is not divisible by p and its
    characteristic polynomial reduces to the chosen factorization mod p.
    """
    if len(primes) != len(polys):
        raise ValueError("need one prime function per prime ideal")
    seen = set()
    for (ideal, e, f), poly in zip(primes, polys):
        q = ideal.rows[0][0]  # the ideal's prime; polys[0] is checked first
        if not isinstance(poly, FpPoly) or not poly.p == q == polys[0].p:
            raise ValueError("prime functions must share the modulus %d" % q)
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
    modulus = polys[0].modulus
    p = modulus.p
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
    theta = OrderElement(order, lattice_divmod(lattice.rows, theta.coords)[1])
    if element_index(order, theta) % p == 0:
        raise AssertionError("constructed generator has index divisible by %d" % p)
    expected = FpPoly(modulus, (1,))
    for (_, e, _), poly in zip(primes, polys):
        expected = expected * poly**e
    if reduce_mod(char_poly(theta), modulus) != expected:
        raise AssertionError("characteristic polynomial does not match the chosen factors")
    return theta
