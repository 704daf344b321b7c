"""Splitting and index criteria tying prime ideals to polynomial factorizations.

Three decision surfaces:

* index_divisible -- does p divide the index of the root of F?  The
  test factors F mod p, forms the integer cofactor M with
  F = (product of lifted factors) - p*M, and asks whether some repeated
  factor of F mod p also divides M.  The verdict does not depend on the
  choice of lifts (a tested property); the reported M uses balanced
  lifts, whose coefficients lie in [-p/2, p/2), matching the worked
  values (for p = 2 the residue 1 lifts to -1).

* factor_prime_via_polynomial -- when the index test passes, the shape
  and two-element generators of the primes above p read off directly
  from the factorization of F mod p.  When it fails, the factorization
  of p genuinely differs from the polynomial's and the caller must work
  in the maximal order, so this refuses rather than guess.

* common_index_divisor / assign_prime_functions -- given the true
  splitting shape, p divides every index exactly when some residue
  degree needs more irreducible polynomials than exist over GF(p).
"""

from .fppoly import (
    FpPoly,
    as_modulus,
    count_monic_irreducibles,
    enumerate_monic_irreducibles,
    fp_factor,
)
from .zpoly import ZPoly, cofactor_m, integer_roots, lift, reduce_mod


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
        parts = tuple((int(f), int(e)) for f, e in parts)
        if any(f < 1 or e < 1 for f, e in parts):
            raise ValueError("degrees and exponents must be positive")
        self.p = modulus
        self.parts = parts
        self.n = sum(e * f for f, e in parts)

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

    def to_json_dict(self):
        return {
            "p": self.p.p,
            "parts": [{"f": f, "e": e} for f, e in self.parts],
        }


class PrimeIdealSymbol:
    """Two-element description (p, P(theta)) of a prime ideal above p."""

    __slots__ = ("p", "generator_poly", "e", "f")

    def __init__(self, modulus, generator_poly, e, f):
        modulus = as_modulus(modulus)
        reduced = reduce_mod(generator_poly, modulus)
        if not reduced.is_monic() or reduced.degree != f:
            raise ValueError("generator must reduce to a monic polynomial of degree f")
        self.p = modulus
        self.generator_poly = generator_poly
        self.e = int(e)
        self.f = int(f)

    def __repr__(self):
        return "PrimeIdealSymbol(p=%d, %s, e=%d, f=%d)" % (
            self.p.p,
            self.generator_poly,
            self.e,
            self.f,
        )

    def to_json_dict(self):
        return {
            "p": self.p.p,
            "generator": str(self.generator_poly),
            "e": self.e,
            "f": self.f,
        }


class IndexVerdict:
    """Outcome of the index-divisibility test, with its repeated-factor witness."""

    __slots__ = ("divisible", "witness", "cofactor", "factors")

    def __init__(self, divisible, witness, cofactor, factors=None):
        if divisible != (witness is not None):
            raise ValueError("witness must be present exactly when divisible")
        self.divisible = divisible
        self.witness = witness  # (FpPoly, exponent) or None
        self.cofactor = cofactor  # ZPoly M from balanced lifts
        self.factors = factors  # the fp_factor list of f mod p the test read

    def __repr__(self):
        if self.divisible:
            return "IndexVerdict(divisible, witness=(%s, %d))" % self.witness
        return "IndexVerdict(not divisible)"

    def to_json_dict(self):
        out = {"index_divisible": self.divisible}
        if self.witness is not None:
            out["witness"] = {"poly": str(self.witness[0]), "e": self.witness[1]}
        return out


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


def factorization_with_cofactor(f, modulus, seed=0):
    """Factor f mod p and the cofactor M with f = prod(lifts^e) - p*M.

    Returns (factors, M) where factors is the canonical fp_factor list
    and M comes from balanced lifts of the factors.
    """
    modulus = as_modulus(modulus)
    if not f.is_monic():
        raise ValueError("expected a monic polynomial")
    factors = fp_factor(reduce_mod(f, modulus), seed=seed)
    lifts = [(balanced_lift(g), e) for g, e in factors]
    return factors, cofactor_m(f, modulus, lifts)


def index_divisible(f, modulus, seed=0):
    """Index-divisibility test for the root of monic irreducible f at p.

    True exactly when some irreducible P with P^2 dividing f mod p also
    divides the cofactor M mod p.  Callers are responsible for the
    irreducibility of f; a rational-root screen rejects the obvious
    failures, finding the integer roots by Hensel lifting in time
    polynomial in the bit length of f (``zpoly.integer_roots``).
    """
    modulus = as_modulus(modulus)
    if not f.is_monic():
        raise ValueError("expected a monic polynomial")
    _rational_root_screen(f)
    return _dedekind_verdict(modulus, *factorization_with_cofactor(f, modulus, seed=seed))


def _dedekind_verdict(modulus, factors, m):
    """index_divisible's verdict from the factors of f mod p and the cofactor M."""
    dividing = _dividing_repeated_factors(modulus, factors, m)
    witness = dividing[0] if dividing else None
    return IndexVerdict(bool(dividing), witness, m, factors)


def _dividing_repeated_factors(modulus, factors, m):
    """The (P, e) of f mod p with e >= 2 and P dividing M mod p, in factor order.

    The first is Dedekind's witness; their product is the Z of
    Dedekind's enlargement (``orders._dedekind_lattice``).
    """
    m_red = reduce_mod(m, modulus)
    return [(g, e) for g, e in factors if e >= 2 and (m_red % g).is_zero()]


def _rational_root_screen(f):
    const = f.coeffs[0]
    if const == 0:
        raise ValueError("polynomial is divisible by t, hence reducible")
    if f.degree < 2:
        raise ValueError("expected degree >= 2")
    roots = integer_roots(f)
    if roots:
        raise ValueError("polynomial is reducible (integer root %d)" % roots[0])


def factor_prime_via_polynomial(f, modulus, seed=0):
    """Splitting of p read off from the factorization of f mod p.

    Valid only when p does not divide the index of the root of f;
    otherwise raises IndexDivisorError, signalling that the maximal
    order must be used.  Returns (shape, symbols) where the symbols
    carry canonical [0, p) lifts of the irreducible factors.
    """
    modulus = as_modulus(modulus)
    verdict = index_divisible(f, modulus, seed=seed)
    if verdict.divisible:
        raise IndexDivisorError(verdict)
    factors = verdict.factors
    parts = [(g.degree, e) for g, e in factors]
    shape = SplittingShape(modulus, parts)
    if shape.n != f.degree:
        raise AssertionError("splitting shape degrees do not sum to deg f")
    symbols = [
        PrimeIdealSymbol(modulus, lift(g), e, g.degree) for g, e in factors
    ]
    return shape, symbols


def common_index_divisor(modulus, shape):
    """Whether p divides the index of every generator, with a supply report.

    True exactly when, for some residue degree d, the splitting needs
    more distinct irreducible polynomials of degree d than exist over
    GF(p).  The report lists required versus available counts per degree.
    """
    modulus = as_modulus(modulus)
    report = []
    verdict = False
    for d, required in sorted(shape.degree_counts().items()):
        available = count_monic_irreducibles(modulus, d)
        report.append({"degree": d, "required": required, "available": available})
        if required > available:
            verdict = True
    return verdict, report


def assign_prime_functions(modulus, shape):
    """Distinct irreducibles matching the degree multiset, or None when impossible.

    Polynomials are taken first-fit in enumeration order, one per part,
    aligned with shape.parts; the result is None exactly when
    common_index_divisor holds.
    """
    modulus = as_modulus(modulus)
    divisor, _ = common_index_divisor(modulus, shape)
    if divisor:
        return None
    iterators = {}
    out = []
    for f, _ in shape.parts:
        it = iterators.setdefault(f, enumerate_monic_irreducibles(modulus, f))
        out.append(next(it))
    return out
