"""Splitting and index criteria tying prime ideals to polynomial factorizations.

Each value handed out here says which (f, p) it is about, and no call
takes that p or f a second time.  Three decision surfaces:

* index_divisible -- does p divide the index of the root of F?  The
  test factors F mod p, forms the integer cofactor M with
  F = (product of lifted factors) - p*M, and asks whether some repeated
  factor of F mod p also divides M.  The verdict does not depend on the
  choice of lifts (a tested property); the reported M uses balanced
  lifts, whose coefficients lie in [-p/2, p/2), matching the worked
  values (for p = 2 the residue 1 lifts to -1).  Its answer is an
  IndexVerdict(f, modulus, factors), which records f and forms M
  itself, so a factor list that is not f's mod p is refused; the
  repeated factors that divide M mod p, the verdict and its witness
  are all read off it.  ``dedekind_verdict`` is the entry without the
  rational-root screen.  Where p divides the index, ``ore_lattice``
  builds Ore's first-order ring from the phi-Newton polygons at those
  same repeated factors, and says whether f is p-regular;
  ``orders.maximal_order`` starts Round 2 from that ring, and skips it
  where f is regular.

* factor_prime_via_polynomial -- when the index test passes, Dedekind's
  theorem reads the primes above p off the factorization of F mod p:
  it returns the splitting shape and the (P, e) factor pairs, each
  prime being (p, P(theta)) with P written through its [0, p) lift.
  When the test fails, the factorization of p genuinely differs from
  the polynomial's and the caller must work in the maximal order, so
  this refuses rather than guess.

* common_index_divisor / assign_prime_functions -- given the true
  splitting shape of p, p divides every index exactly when some
  residue degree needs more irreducible polynomials than exist over GF(p).

F mod p is factored by ``fp_factor``; its factors come out in canonical
order, so no result here depends on a random draw.
"""

import operator
from math import gcd

from .fppoly import (
    FpPoly,
    PrimeModulus,
    as_modulus,
    count_monic_irreducibles,
    enumerate_monic_irreducibles,
    fp_factor,
    fp_gcd,
)
from .integers import DEGREE_BOUND, valuation
from .lattice import lattice_index, rational_lattice
from .zpoly import ZPoly, cofactor_m, integer_roots, reduce_mod


class IndexDivisorError(ValueError):
    """Raised when a splitting request requires the maximal order instead."""

    def __init__(self, verdict):
        self.verdict = verdict
        witness = verdict.witness
        super().__init__(
            "p divides the index of every root (witness %s^%d); "
            "factor p in the maximal order instead" % (witness[0], witness[1])
        )


class SplittingShape:
    """Multiset of (residue degree, ramification exponent) pairs above p."""

    __slots__ = ("p", "n", "parts")

    def __init__(self, modulus, parts):
        modulus = as_modulus(modulus)
        parts = tuple((operator.index(f), operator.index(e)) for f, e in parts)
        if not parts:
            raise ValueError("a splitting shape needs at least one part")
        if any(f < 1 or e < 1 for f, e in parts):
            raise ValueError("degrees and exponents must be positive")
        self.p = modulus
        self.parts = parts
        self.n = sum(e * f for f, e in parts)
        if self.n > DEGREE_BOUND:
            raise ValueError(
                "shape degree %d exceeds DEGREE_BOUND = %d" % (self.n, DEGREE_BOUND)
            )

    def degree_counts(self):
        """Number of distinct prime ideals required per residue degree."""
        out = {}
        for f, _ in self.parts:
            out[f] = out.get(f, 0) + 1
        return out

    def sorted_parts(self):
        return tuple(sorted(self.parts))

    def __eq__(self, other):
        return (
            isinstance(other, SplittingShape)
            and self.p == other.p
            and self.sorted_parts() == other.sorted_parts()
        )

    def __hash__(self):
        return hash((self.p, self.sorted_parts()))

    def __repr__(self):
        return "SplittingShape(p=%d, parts=%s)" % (self.p.p, list(self.parts))


class IndexVerdict:
    """Dedekind's test at p on monic f, read off the factors of f mod p.

    M with f = prod(lifts^e) - p*M is formed from balanced lifts of
    `factors`, so ``cofactor_m`` refuses a list that is not f's mod p.
    `dividing` lists the (P, e) with e >= 2 and P dividing M mod p, in
    factor order; p divides the index exactly when it is nonempty, and
    its first entry is the witness.
    """

    __slots__ = ("f", "modulus", "factors", "cofactor", "dividing")

    def __init__(self, f, modulus, factors):
        if not isinstance(modulus, PrimeModulus):
            raise TypeError("IndexVerdict needs a PrimeModulus, not %r" % (modulus,))
        self.f = f
        self.modulus = modulus
        self.factors = factors
        lifts = [(balanced_lift(g), e) for g, e in factors]
        self.cofactor = cofactor_m(f, modulus, lifts)
        m_red = reduce_mod(self.cofactor, modulus)
        self.dividing = [(g, e) for g, e in factors if e >= 2 and (m_red % g).is_zero()]

    @property
    def divisible(self):
        return bool(self.dividing)

    @property
    def witness(self):
        """The first (FpPoly, exponent) of `dividing`, or None."""
        return self.dividing[0] if self.dividing else None

    def __repr__(self):
        if self.divisible:
            return "IndexVerdict(divisible, witness=(%s, %d))" % self.witness
        return "IndexVerdict(not divisible)"


def balanced_lift(g):
    """Integer lift with coefficients in [-p/2, p/2), keeping the leading one intact.

    For p = 2 the residue 1 lifts to -1 (so t + 1 lifts to t - 1, as in
    the worked cofactors); the leading coefficient is exempted so monic
    polynomials stay monic.
    """
    p = g.p
    half = (p + 1) // 2
    cs = [c - p if c >= half else c for c in g.coeffs]
    if cs:
        cs[-1] = g.coeffs[-1]
    return ZPoly(cs)


def dedekind_verdict(f, modulus):
    """Dedekind's test at p on monic f, without the rational-root screen.

    The IndexVerdict on the canonical fp_factor list of f mod p.
    """
    modulus = as_modulus(modulus)
    if not f.is_monic():
        raise ValueError("expected a monic polynomial")
    return IndexVerdict(f, modulus, fp_factor(reduce_mod(f, modulus)))


def index_divisible(f, modulus):
    """Index-divisibility test for the root of monic irreducible f at p.

    True exactly when some irreducible P with P^2 dividing f mod p also
    divides the cofactor M mod p.  Callers are responsible for the
    irreducibility of f; once ``dedekind_verdict`` has checked p and f,
    a rational-root screen rejects the obvious failures, finding the
    integer roots by Hensel lifting in time polynomial in the bit length
    of f (``zpoly.integer_roots``).
    """
    verdict = dedekind_verdict(f, modulus)
    rational_root_screen(f)
    return verdict


def ore_lattice(verdict, basis, d):
    """Add Ore's first-order ring at q to the ring on basis/d: (rows, d, ind, regular).

    `verdict` is Dedekind's test at q on f, both read from it.  For
    each (g, l) in its `dividing`, phi lifts g and f = sum a_i phi^i.  The
    phi-Newton polygon N is the lower convex hull of the points
    (i, v_q(a_i)), 0 <= i <= l, and y_j is its ordinate at j.  With the
    quotients q_j = f div phi^j, the elements t^k q_j(t) / q^floor(y_j),
    1 <= j < l and k < deg phi, are integral, and with Z[t] they span
    Ore's ring, of q-index q^ind where ind sums deg phi * floor(y_j)
    over every phi and j (Montes-Nart, J. Algebra 146, 1992); that q^ind
    is checked on the canonical diagonal.  The ring on basis/d contains
    Z[t] with index prime to q, so the sum gains exactly Ore's ring at q.
    A repeated factor outside `dividing` has v_q(a_0) = 1: one regular
    side from (0, 1) to (l, 0), with every floor(y_j) = 0, adds nothing.

    f is q-regular when the residual polynomial of every side of every
    N is squarefree; then q^ind is the q-part of the index of Z[t]/(f)
    (Ore's theorem of the index), so the ring is q-maximal.  A side of
    degree 1 has a linear residual polynomial, squarefree over any
    residue field; a longer side is tested only when phi is linear, so
    that its residual polynomial lies over GF(q), and is otherwise
    reported irregular.
    """
    f, modulus = verdict.f, verdict.modulus
    q = modulus.p
    elements, ind, regular = [], 0, True
    for g, l in verdict.dividing:
        phi = balanced_lift(g)
        a, quotients, rest = [], [], f
        for _ in range(l + 1):
            rest, r = divmod(rest, phi)
            a.append(r.coeffs)
            quotients.append(rest.coeffs)
        # a zero a_i gives no point; a_0 = 0 (phi divides a reducible,
        # squarefree f) makes the first side vertical, at abscissa 1
        hull = []
        for point in [(i, valuation(gcd(*c), q)) for i, c in enumerate(a) if c]:
            while len(hull) > 1 and _on_or_above(hull[-2], hull[-1], point):
                hull.pop()
            hull.append(point)
        m = phi.degree
        for (i1, y1), (i2, y2) in zip(hull, hull[1:]):
            for j in range(max(i1, 1), i2):
                y = y1 + (y2 - y1) * (j - i1) // (i2 - i1)
                ind += m * y
                if y:
                    elements += [((0,) * k + quotients[j - 1], y) for k in range(m)]
            side = gcd(i2 - i1, y1 - y2)  # the degree of the side
            if side > 1 and m > 1:
                regular = False
            elif side > 1:
                # the residual polynomial; a linear phi's a_i are integers
                e, h = (i2 - i1) // side, (y1 - y2) // side
                r = FpPoly(
                    modulus,
                    [sum(a[i1 + k * e]) // q ** (y1 - k * h) for k in range(side + 1)],
                )
                regular = regular and fp_gcd(r, r.derivative()).is_one()
    n = f.degree
    top = max((y for _, y in elements), default=0)
    rows = [[q**top * c for c in row] for row in basis] + [
        [d * q ** (top - y) * c for c in coeffs] + [0] * (n - len(coeffs))
        for coeffs, y in elements
    ]
    basis, d = rational_lattice(rows, d * q**top)
    if valuation(lattice_index(basis, d), q) != ind:
        raise AssertionError(
            "Ore's ring at %d does not have q-index %d^%d" % (q, q, ind)
        )
    return basis, d, ind, regular


def _on_or_above(p0, p1, p2):
    """Whether p1 lies on or above the segment from p0 to p2 (abscissas increasing)."""
    return (p1[1] - p0[1]) * (p2[0] - p0[0]) >= (p2[1] - p0[1]) * (p1[0] - p0[0])


def rational_root_screen(f):
    """Refuse an f of degree < 2, or one with an integer root (t | f included)."""
    const = f.coeffs[0]
    if const == 0:
        raise ValueError("polynomial is divisible by t, hence reducible")
    if f.degree < 2:
        raise ValueError("expected degree >= 2")
    roots = integer_roots(f)
    if roots:
        raise ValueError("polynomial is reducible (integer root %d)" % roots[0])


def factor_prime_via_polynomial(f, modulus):
    """Splitting of p read off from the factorization of f mod p.

    Valid only when p does not divide the index of the root of f;
    otherwise raises IndexDivisorError, signalling that the maximal
    order must be used.  Returns (shape, factors): the (P, e) pairs of
    f mod p, the prime (p, P(theta)) above p having ramification e and
    residue degree deg P (Cohen, GTM 138, 6.1.4).
    """
    verdict = index_divisible(f, modulus)
    if verdict.divisible:
        raise IndexDivisorError(verdict)
    factors = verdict.factors
    shape = SplittingShape(verdict.modulus, [(g.degree, e) for g, e in factors])
    if shape.n != f.degree:
        raise AssertionError("splitting shape degrees do not sum to deg f")
    return shape, factors


def common_index_divisor(shape):
    """Whether p = shape.p divides the index of every generator, with a supply report.

    True exactly when, for some residue degree d, the splitting needs
    more distinct irreducible polynomials of degree d than exist over
    GF(p).  The report lists (degree, required, available) per degree,
    in increasing degree.
    """
    report = [
        (d, required, count_monic_irreducibles(shape.p, d))
        for d, required in sorted(shape.degree_counts().items())
    ]
    return any(required > available for _, required, available in report), report


def assign_prime_functions(shape):
    """Distinct irreducibles over GF(shape.p) matching the degree multiset, or None.

    Polynomials are taken first-fit in enumeration order, one per part,
    aligned with shape.parts; the result is None exactly when
    common_index_divisor holds.
    """
    divisor, _ = common_index_divisor(shape)
    if divisor:
        return None
    iterators = {}
    out = []
    for f, _ in shape.parts:
        it = iterators.setdefault(f, enumerate_monic_irreducibles(shape.p, f))
        out.append(next(it))
    return out
