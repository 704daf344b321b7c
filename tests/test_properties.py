"""Cross-route properties on seeded monic cubics to sextics.

For each drawn field and small prime p, the maximal order and the ideals
above p must satisfy sum(e*f) = n, prod P^e = pO and
disc(f) = index^2 * disc(O), and wherever Dedekind's criterion says p
does not divide the index, the splitting read off f mod p must equal the
one found in the maximal order.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import provably_irreducible
from primesplit.criteria import factor_prime_via_polynomial, index_divisible
from primesplit.fppoly import binary_power
from primesplit.ideals import (
    factor_p_in_order,
    ideal_from_generators,
    ideal_product,
    whole_order,
)
from primesplit.orders import maximal_order, order_discriminant
from primesplit.zpoly import ZPoly, bareiss_determinant, discriminant

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


class TestCrossRoute:
    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(
        coeffs=st.lists(st.integers(-9, 9), min_size=3, max_size=6),
        p=st.sampled_from(SMALL_PRIMES),
    )
    def test_routes_agree(self, coeffs, p):
        f = ZPoly(coeffs + [1])
        disc = discriminant(f)
        assume(coeffs[0] and disc and provably_irreducible(f, disc))
        n = f.degree
        order, disc_o = maximal_order(f)

        # disc(f) = index^2 * disc(O), the index read off the basis
        rows, d = order.basis_in_parent
        index, rest = divmod(d**n, abs(bareiss_determinant(rows)))
        assert rest == 0
        assert disc_o == order_discriminant(order)
        assert disc == index**2 * disc_o

        primes = factor_p_in_order(order, p)
        assert sum(e * fx for _, e, fx in primes) == n
        one = whole_order(order)
        product = one
        for ideal, e, _ in primes:
            product = ideal_product(product, binary_power(ideal, e, ideal_product, one))
        assert product == ideal_from_generators(order, [order.identity() * p])

        if not index_divisible(f, p).divisible:
            assert index % p
            shape, _ = factor_prime_via_polynomial(f, p)
            assert sorted(shape.parts) == sorted((fx, e) for _, e, fx in primes)
        else:
            assert index % p == 0
