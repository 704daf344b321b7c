import itertools
import random
import time

import pytest

from conftest import (
    enumerate_primes_above,
    leftmost_pivot_hnf,
    random_irreducible_cubic,
    random_irreducible_quartic,
    random_power_basis_orders,
    scan_is_maximal,
)
from primesplit import fixtures, ideals
from primesplit.criteria import (
    IndexDivisorError,
    SplittingShape,
    assign_prime_functions,
    factor_prime_via_polynomial,
)
from primesplit.fppoly import FpPoly, PrimeModulus
from primesplit.ideals import (
    LatticeIdeal,
    _crt_pair,
    _is_maximal,
    bracket_str,
    crt_good_generator,
    factor_p_in_order,
    hnf,
    ideal_from_generators,
    ideal_norm,
    ideal_power,
    ideal_product,
    ideal_valuation,
    principal_ideal,
    two_element_ideal,
    whole_order,
)
from primesplit.orders import (
    char_poly,
    cubic_family,
    element_index,
    maximal_order,
    order_discriminant,
    order_from_polynomial,
    p_enlarge,
)
from primesplit.zpoly import ZPoly, discriminant, reduce_mod

MAX_CUBIC = fixtures.maximal_cubic_order()
SQRT2 = fixtures.sqrt2_order()

IDEAL_A = LatticeIdeal(MAX_CUBIC, fixtures.CUBIC_PRIMES_ABOVE_2["a"])
IDEAL_B = LatticeIdeal(MAX_CUBIC, fixtures.CUBIC_PRIMES_ABOVE_2["b"])
IDEAL_C = LatticeIdeal(MAX_CUBIC, fixtures.CUBIC_PRIMES_ABOVE_2["c"])


class TestHnf:
    def test_nine_products_of_ab(self):
        # the nine pairwise products of the bases of a and b
        rows = [
            (4, 0, 0),
            (2, 2, 0),
            (0, 0, 2),
            (0, 2, 0),
            (2, 2, 2),
            (4, 0, 0),
            (2, 0, 2),
            (5, 1, 1),
            (-2, 2, 0),
        ]
        assert hnf(rows) == ((2, 0, 0), (0, 2, 0), (1, 1, 1))

    def test_identity(self):
        ident = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert hnf(ident) == tuple(tuple(r) for r in ident)

    def test_gcd_pivot(self):
        rows = [(2, 0), (0, 2), (1, 0)]
        assert hnf(rows) == ((1, 0), (0, 2))

    def test_uniqueness_under_row_shuffles(self):
        rng = random.Random(7)
        for _ in range(100):
            rows = [
                [rng.randrange(-9, 10) for _ in range(3)] for _ in range(5)
            ]
            try:
                h = hnf(rows)
            except ValueError:
                continue
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert hnf(shuffled) == h
            # canonical triangular shape with reduced entries below pivots
            for i in range(3):
                assert h[i][i] > 0
                assert all(h[i][j] == 0 for j in range(i + 1, 3))
                for k in range(i + 1, 3):
                    assert 0 <= h[k][i] < h[i][i]

    def test_rank_deficiency(self):
        with pytest.raises(ValueError):
            hnf([(1, 2, 3), (2, 4, 6)])
        with pytest.raises(ValueError):
            hnf([(0, 0, 0)])

    def test_matches_leftmost_pivot_oracle(self):
        def outcome(fn, rows):
            try:
                return fn(rows)
            except ValueError as exc:
                return str(exc)

        deficient = 0
        for width, rows in _hnf_oracle_inputs():
            got = outcome(hnf, rows)
            assert got == outcome(leftmost_pivot_hnf, rows), (width, rows)
            deficient += isinstance(got, str)
        assert deficient >= 100  # every fifth input by construction


def _hnf_oracle_inputs():
    """500 seeded (width, rows): widths 1-12 (the 2n-wide CRT lattices
    included), width to width^2 + width rows of signed entries up to
    2^20, with zero rows, repeated rows and every fifth input of lower
    rank."""
    rng = random.Random(15)
    for k in range(500):
        width = k % 12 + 1
        count = rng.randint(width, width * width + width)
        bound = rng.choice((1, 9, 2**10, 2**20))
        if k % 5 == 4:
            gens = [
                [rng.randint(-bound, bound) // (2 * width) for _ in range(width)]
                for _ in range(rng.randrange(width))
            ]
            rows = []
            for _ in range(count):
                coeffs = [rng.randint(-2, 2) for _ in gens]
                rows.append(
                    [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(width)]
                )
        else:
            rows = [
                [rng.randint(-bound, bound) for _ in range(width)] for _ in range(count)
            ]
        for _ in range(rng.randrange(3)):
            rows.insert(rng.randrange(count), [0] * width)
        for _ in range(rng.randrange(3)):
            rows.insert(rng.randrange(count), list(rng.choice(rows)))
        yield width, rows


class TestIdealFromGenerators:
    def test_prime_a(self):
        gens = [
            MAX_CUBIC.element((2, 0, 0)),
            MAX_CUBIC.element((0, 1, 0)),
            MAX_CUBIC.element((1, 0, 1)),
        ]
        assert ideal_from_generators(MAX_CUBIC, gens) == IDEAL_A

    def test_principal_from_mu(self):
        mu = MAX_CUBIC.element((3, 1, 1))
        ideal = principal_ideal(MAX_CUBIC, mu)
        rows = [
            mu.coords,
            (mu * MAX_CUBIC.element((0, 1, 0))).coords,
            (mu * MAX_CUBIC.element((0, 0, 1))).coords,
        ]
        assert ideal.rows == hnf(rows)

    def test_unit_ideal(self):
        assert ideal_from_generators(MAX_CUBIC, [MAX_CUBIC.identity()]) == (
            whole_order(MAX_CUBIC)
        )

    def test_zero_generators_rejected(self):
        with pytest.raises(ValueError):
            ideal_from_generators(MAX_CUBIC, [MAX_CUBIC.zero()])


class TestLatticeIdealInvariants:
    def test_rejects_non_canonical_rows(self):
        with pytest.raises(ValueError):
            LatticeIdeal(MAX_CUBIC, ((2, 0, 0), (0, 1, 0), (3, 0, 1)))

    def test_rejects_unclosed_lattice(self):
        # the lattice 2Z + Z*a + Z*b is not an ideal of the maximal cubic
        # order: a*a = 2 + a + 2b lands outside 2Z at the identity spot
        with pytest.raises(ValueError):
            LatticeIdeal(MAX_CUBIC, ((3, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_bracket_rendering(self):
        assert bracket_str(IDEAL_A) == "[2, a, 1+b]"
        assert bracket_str(IDEAL_B) == "[2, 1+a, b]"


class TestTwoElementIdeal:
    def test_cubic_p2_t(self):
        ideal = two_element_ideal(
            MAX_CUBIC, 2, ZPoly((0, 1)), MAX_CUBIC.element((0, 1, 0))
        )
        assert ideal.rows == ((2, 0, 0), (0, 1, 0), (0, 0, 2))  # = ca

    def test_sqrt2_p7(self):
        ideal = two_element_ideal(
            SQRT2, 7, ZPoly((-3, 1)), SQRT2.element((0, 1))
        )
        assert ideal.rows == ((7, 0), (4, 1))
        assert ideal_norm(ideal) == 7
        assert ideal.contains_element(SQRT2.element((-3, 1)))

    def test_unit_generator(self):
        ideal = two_element_ideal(
            MAX_CUBIC, 5, ZPoly((1,)), MAX_CUBIC.element((0, 1, 0))
        )
        assert ideal == whole_order(MAX_CUBIC)


class TestIdealProduct:
    def test_six_products(self):
        named = {"a": IDEAL_A, "b": IDEAL_B, "c": IDEAL_C}
        for (x, y), rows in fixtures.CUBIC_SIX_PRODUCTS.items():
            assert ideal_product(named[x], named[y]).rows == rows

    def test_abc_is_2(self):
        abc = ideal_product(ideal_product(IDEAL_A, IDEAL_B), IDEAL_C)
        assert abc.rows == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
        assert abc == principal_ideal(MAX_CUBIC, MAX_CUBIC.element((2, 0, 0)))

    def test_whole_order_is_identity(self):
        assert ideal_product(IDEAL_A, whole_order(MAX_CUBIC)) == IDEAL_A

    def test_commutative_associative(self):
        ab = ideal_product(IDEAL_A, IDEAL_B)
        ba = ideal_product(IDEAL_B, IDEAL_A)
        assert ab == ba
        left = ideal_product(ab, IDEAL_C)
        right = ideal_product(IDEAL_A, ideal_product(IDEAL_B, IDEAL_C))
        assert left == right

    def test_first_power_makes_no_product(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(1)
            return ideal_product(a, b)

        monkeypatch.setattr(ideals, "ideal_product", counting)
        assert ideal_power(IDEAL_A, 1) == IDEAL_A
        assert calls == []
        assert ideal_power(IDEAL_A, 2) == ideal_product(IDEAL_A, IDEAL_A)
        assert len(calls) == 1

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            ideal_product(IDEAL_A, whole_order(SQRT2))


class TestIdealNorm:
    def test_primes(self):
        assert ideal_norm(IDEAL_A) == ideal_norm(IDEAL_B) == ideal_norm(IDEAL_C) == 2

    def test_principal_2(self):
        two = principal_ideal(MAX_CUBIC, MAX_CUBIC.element((2, 0, 0)))
        assert ideal_norm(two) == 8

    def test_whole_order(self):
        assert ideal_norm(whole_order(MAX_CUBIC)) == 1

    def test_multiplicative_on_fixture_set(self):
        ideals = [IDEAL_A, IDEAL_B, IDEAL_C]
        for x, y in itertools.product(ideals, repeat=2):
            assert ideal_norm(ideal_product(x, y)) == ideal_norm(x) * ideal_norm(y)

    def test_multiplicative_random(self):
        rng = random.Random(71)
        done = 0
        while done < 200:
            order = rng.choice([MAX_CUBIC, SQRT2])
            x = order.element([rng.randrange(-5, 6) for _ in range(order.n)])
            y = order.element([rng.randrange(-5, 6) for _ in range(order.n)])
            try:
                ix = principal_ideal(order, x)
                iy = principal_ideal(order, y)
            except ValueError:
                continue  # zero divisors of the zero element
            assert ideal_norm(ideal_product(ix, iy)) == ideal_norm(ix) * ideal_norm(iy)
            done += 1


class TestTenPrincipalIdeals:
    def test_all_rows(self):
        named = {"a": IDEAL_A, "b": IDEAL_B, "c": IDEAL_C}
        for word, rows, mu in fixtures.CUBIC_TEN_PRINCIPAL:
            acc = whole_order(MAX_CUBIC)
            for letter in word:
                acc = ideal_product(acc, named[letter])
            assert acc.rows == rows, word
            assert acc == principal_ideal(MAX_CUBIC, MAX_CUBIC.element(mu)), word

    def test_corrupted_relation_reconstruction(self):
        # the printed sixth relation for alpha*beta is corrupted in the
        # source; the reconstruction alpha*beta = (alpha-2)(1+alpha+beta)
        # = 2^2 holds exactly
        alpha = MAX_CUBIC.element((0, 1, 0))
        beta = MAX_CUBIC.element((0, 0, 1))
        lhs = alpha * beta
        rhs = MAX_CUBIC.element((-2, 1, 0)) * MAX_CUBIC.element((1, 1, 1))
        assert lhs.coords == rhs.coords == (4, 0, 0)


class TestFactorPInOrder:
    def test_cubic_at_2(self):
        result = factor_p_in_order(MAX_CUBIC, 2)
        assert [(ide.rows, e, f) for ide, e, f in result] == [
            (fixtures.CUBIC_PRIMES_ABOVE_2["c"], 1, 1),
            (fixtures.CUBIC_PRIMES_ABOVE_2["a"], 1, 1),
            (fixtures.CUBIC_PRIMES_ABOVE_2["b"], 1, 1),
        ]

    def test_sqrt2_at_7(self):
        result = factor_p_in_order(SQRT2, 7)
        assert [(ide.rows, e, f) for ide, e, f in result] == [
            (((7, 0), (3, 1)), 1, 1),
            (((7, 0), (4, 1)), 1, 1),
        ]

    def test_cubic_at_503_ramified(self):
        result = factor_p_in_order(MAX_CUBIC, 503)
        assert sorted((e, f) for _, e, f in result) == [(1, 1), (2, 1)]

    def test_requires_p_maximal(self):
        power = fixtures.cubic_power_order()
        with pytest.raises(ValueError):
            factor_p_in_order(power, 2)

    def test_inert_prime(self):
        # t^2 - 2 stays irreducible mod 5, so 5 is inert in Z[sqrt 2]
        result = factor_p_in_order(SQRT2, 5)
        assert [(e, f) for _, e, f in result] == [(1, 2)]

    def test_ramified_in_sqrt2(self):
        result = factor_p_in_order(SQRT2, 2)
        assert [(e, f) for _, e, f in result] == [(2, 1)]

    def test_product_check_never_multiplies_by_the_order(self, monkeypatch):
        operands = []

        def recording(a, b):
            operands.append((a, b))
            return ideal_product(a, b)

        monkeypatch.setattr(ideals, "ideal_product", recording)
        result = factor_p_in_order(MAX_CUBIC, 2)
        monkeypatch.undo()
        assert [(ide.rows, e, f) for ide, e, f in result] == [
            (fixtures.CUBIC_PRIMES_ABOVE_2[name], 1, 1) for name in "cab"
        ]
        whole = whole_order(MAX_CUBIC)
        assert operands and all(whole not in pair for pair in operands)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(211)
        orders_ = []
        for rank in (2, 3, 4, 5):
            orders_ += [(rank, o) for o in random_power_basis_orders(rng, rank, 30)]
        families = [cubic_family(2, 2, 1, -1)[0], cubic_family(1, 3, -2, 5)[0]]
        cases = []
        for p in (2, 3, 5, 7):
            cases += [(family, p) for family in families]
            for rank in (2, 3, 4, 5):
                if p**rank > 10**4:
                    continue
                # the oracle's cost grows like the number of subspaces of GF(p)^n
                count = 30 if p**rank < 200 else 10 if p**rank < 3000 else 2
                pool = [o for r, o in orders_ if r == rank]
                cases += [(o, p) for o in rng.sample(pool, count)]
        several = below_rank = 0
        for order, p in cases:
            order = p_enlarge(order, p)
            result = [(ide.rows, e, f) for ide, e, f in factor_p_in_order(order, p)]
            expected = [(ide.rows, e, f) for ide, e, f in enumerate_primes_above(order, p)]
            assert result == expected, (order.table, p)
            several += len(result) > 1
            below_rank += p < order.n
        assert len(cases) >= 300 and several >= 100 and below_rank >= 100

    def test_large_index_divisors_time_bound(self):
        # p^n = 19683 and 117649: the cost must not depend on p^n
        for poly, p, disc in (("t^9 - 54", 3, 11019960576), ("t^6 + 343", 7, -3087)):
            order, d = maximal_order(ZPoly.from_text(poly))
            assert d == disc
            start = time.perf_counter()
            result = factor_p_in_order(order, p)
            assert time.perf_counter() - start < 2.0, poly
            assert any(e > 1 for _, e, _ in result) == (disc % p == 0)
            assert sum(e * f for _, e, f in result) == order.n

    def test_large_prime_time_bound(self):
        # the cost must depend on the bit length of p, not on p (the norm
        # p^f of each prime is recognised as a prime power in valuations)
        p = 2**31 - 1
        start = time.perf_counter()
        result = factor_p_in_order(MAX_CUBIC, p)
        assert time.perf_counter() - start < 2.0
        shape, _ = factor_prime_via_polynomial(fixtures.cubic_poly(), PrimeModulus(p))
        assert sorted((f, e) for _, e, f in result) == sorted(shape.parts)


class TestIdealValuation:
    def test_alpha_at_a(self):
        assert ideal_valuation(
            principal_ideal(MAX_CUBIC, MAX_CUBIC.element((0, 1, 0))), IDEAL_A
        ) == 2

    def test_alpha_at_b(self):
        assert ideal_valuation(
            principal_ideal(MAX_CUBIC, MAX_CUBIC.element((0, 1, 0))), IDEAL_B
        ) == 0

    def test_whole_order_everywhere_zero(self):
        for prime in (IDEAL_A, IDEAL_B, IDEAL_C):
            assert ideal_valuation(whole_order(MAX_CUBIC), prime) == 0

    def test_rejects_non_maximal(self):
        four = principal_ideal(MAX_CUBIC, MAX_CUBIC.element((4, 0, 0)))
        with pytest.raises(ValueError):
            ideal_valuation(IDEAL_A, four)
        with pytest.raises(ValueError):
            ideal_valuation(IDEAL_A, whole_order(MAX_CUBIC))

    def test_ten_table_valuations(self):
        named = {"a": IDEAL_A, "b": IDEAL_B, "c": IDEAL_C}
        for word, _, mu in fixtures.CUBIC_TEN_PRINCIPAL:
            principal = principal_ideal(MAX_CUBIC, MAX_CUBIC.element(mu))
            for letter, prime in named.items():
                assert ideal_valuation(principal, prime) == word.count(letter)


class TestIsMaximal:
    def test_matches_residue_scan_oracle(self):
        rng = random.Random(107)
        orders_ = []
        for rank in (2, 3, 4):
            orders_ += random_power_basis_orders(rng, rank, 12, bound=9)
        orders_ += [cubic_family(2, 2, 1, -1)[0], cubic_family(1, 3, -2, 5)[0]]
        verdicts = []
        for _ in range(300):
            order = rng.choice(orders_)
            p = rng.choice([2, 3, 5])
            gens = [order.identity() * p]
            for _ in range(rng.choice([1, 2])):
                gens.append(order.element([rng.randrange(p) for _ in range(order.n)]))
            ideal = ideal_from_generators(order, gens)
            verdict = _is_maximal(order, ideal, p)
            assert verdict == scan_is_maximal(order, ideal, p)
            verdicts.append(verdict)
        assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


class TestContainmentIsDivisibility:
    def test_divisor_lattice_of_8(self):
        named = {"a": IDEAL_A, "b": IDEAL_B, "c": IDEAL_C}
        ideals = {}
        for i, j, k in itertools.product(range(4), repeat=3):
            ide = whole_order(MAX_CUBIC)
            for letter, count in (("a", i), ("b", j), ("c", k)):
                ide = ideal_product(ide, ideal_power(named[letter], count))
            ideals[(i, j, k)] = ide
        for e1, i1 in ideals.items():
            for e2, i2 in ideals.items():
                contains = i1.contains_ideal(i2)
                exponentwise = all(x <= y for x, y in zip(e1, e2))
                assert contains == exponentwise


class TestShapeOracleAgreement:
    def test_polynomial_route_matches_order_route(self):
        rng = random.Random(83)
        done = 0
        while done < 200:
            if done % 3 == 2:
                f = random_irreducible_quartic(rng, 3)
            else:
                f = random_irreducible_cubic(rng, 8)
            p = PrimeModulus(rng.choice([2, 3, 5, 7]))
            if discriminant(f) == 0:
                continue
            try:
                shape, _ = factor_prime_via_polynomial(f, p, seed=done)
            except IndexDivisorError:
                continue
            order = p_enlarge(order_from_polynomial(f), p)
            via_ideals = factor_p_in_order(order, p)
            assert sorted((fx, e) for _, e, fx in via_ideals) == sorted(shape.parts)
            done += 1


class TestRamificationMatchesDiscriminant:
    def test_fixture_corpus(self):
        corpus = []
        corpus.append((MAX_CUBIC, -503, [2, 503]))
        quartic_max, dq = maximal_order(fixtures.quartic_poly())
        corpus.append((quartic_max, dq, [2, 13, 17]))
        corpus.append((SQRT2, 8, [2, 7]))
        gauss = order_from_polynomial(ZPoly.from_text("t^2 + 1"))
        corpus.append((gauss, -4, [2, 3]))
        for order, disc, primes in corpus:
            assert order_discriminant(order) == disc
            for p in primes:
                result = factor_p_in_order(order, p)
                ramified = any(e > 1 for _, e, _ in result)
                assert ramified == (disc % p == 0), (disc, p)


class TestCrtGoodGenerator:
    def test_sqrt2_fixture(self):
        m7 = PrimeModulus(7)
        primes = factor_p_in_order(SQRT2, m7)
        theta = crt_good_generator(
            SQRT2, m7, primes, [FpPoly(m7, (0, 1)), FpPoly(m7, (-1, 1))]
        )
        assert theta.coords == (25, 27)
        assert char_poly(theta) == ZPoly.from_text("t^2 - 50*t - 833")
        assert element_index(SQRT2, theta) == 27

    def test_congruences_hold(self):
        m7 = PrimeModulus(7)
        primes = factor_p_in_order(SQRT2, m7)
        theta = crt_good_generator(
            SQRT2, m7, primes, [FpPoly(m7, (0, 1)), FpPoly(m7, (-1, 1))]
        )
        # theta is in the square of the first prime, theta - 1 in the second
        sq1 = ideal_product(primes[0][0], primes[0][0])
        sq2 = ideal_product(primes[1][0], primes[1][0])
        assert sq1.contains_element(theta)
        assert sq2.contains_element(theta - SQRT2.identity())

    def test_infeasible_supply(self):
        m2 = PrimeModulus(2)
        primes = factor_p_in_order(MAX_CUBIC, m2)
        with pytest.raises(ValueError):
            crt_good_generator(
                MAX_CUBIC,
                m2,
                primes,
                [FpPoly(m2, (0, 1)), FpPoly(m2, (1, 1)), FpPoly(m2, (0, 1))],
            )

    def test_degree_mismatch(self):
        m7 = PrimeModulus(7)
        primes = factor_p_in_order(SQRT2, m7)
        with pytest.raises(ValueError):
            crt_good_generator(
                SQRT2, m7, primes, [FpPoly(m7, (1, 1, 1)), FpPoly(m7, (0, 1))]
            )

    def test_inert_single_prime(self):
        # 5 is inert in Z[sqrt 2]: one prime with e=1, f=2=n; the minimal
        # polynomial of sqrt 2 itself works as the prime function
        m5 = PrimeModulus(5)
        primes = factor_p_in_order(SQRT2, m5)
        poly = reduce_mod(ZPoly.from_text("t^2 - 2"), m5)
        theta = crt_good_generator(SQRT2, m5, primes, [poly])
        assert element_index(SQRT2, theta) % 5 != 0
        assert reduce_mod(char_poly(theta), m5) == poly

    def test_ramified_prime_square_avoidance(self):
        # 2 ramifies in Z[sqrt 2]: the root of t must avoid the ideal square
        m2 = PrimeModulus(2)
        primes = factor_p_in_order(SQRT2, m2)
        theta = crt_good_generator(SQRT2, m2, primes, [FpPoly(m2, (0, 1))])
        assert element_index(SQRT2, theta) % 2 != 0
        prime = primes[0][0]
        square = ideal_product(prime, prime)
        assert prime.contains_element(theta)
        assert not square.contains_element(theta)

    def test_incompatible_congruences(self):
        square = ideal_product(IDEAL_A, IDEAL_A)
        zero, one = MAX_CUBIC.zero(), MAX_CUBIC.identity()
        with pytest.raises(ValueError, match="congruences are not compatible"):
            _crt_pair(MAX_CUBIC, zero, square, one, square)

    def test_pinned_multi_prime_generators(self):
        # maximal orders of seeded irreducible cubics to quintics, each at
        # a p with at least two primes above it
        ranks, ramified = [], 0
        for coeffs, p, expected in CRT_CASES:
            order, _ = maximal_order(ZPoly(list(coeffs)))
            primes = factor_p_in_order(order, p)
            assert len(primes) >= 2
            shape = SplittingShape(p, [(f, e) for _, e, f in primes])
            polys = assign_prime_functions(p, shape)
            theta = crt_good_generator(order, p, primes, polys)
            assert theta.coords == expected, (coeffs, p)
            ranks.append(order.n)
            ramified += any(e >= 2 for _, e, _ in primes)
        assert sorted(set(ranks)) == [3, 4, 5]
        assert ramified == 13


# (f ascending, p, theta): the canonical generator, pinned so that no
# change to the lattice CRT can move it
CRT_CASES = (
    ((-4, -9, -2, 1), 2, (0, 1, 0)),
    ((-7, 1, -6, 1), 7, (0, 7, 38)),
    ((4, 5, 6, 1), 2, (3, 1, 1)),
    ((6, 1, 3, 1), 11, (83, 112, 80)),
    ((-7, -6, -9, 1), 11, (21, 102, 4)),
    ((4, -6, -4, 1), 2, (2, 0, 1)),
    ((-7, -4, 2, 1), 7, (42, 17, 11)),
    ((6, -7, 3, 1), 2, (2, 3, 2)),
    ((-8, 0, -6, 1), 5, (1, 2, 1)),
    ((-5, -5, -6, 1), 11, (17, 58, 92)),
    ((-1, -6, -9, 1), 7, (27, 13, 13)),
    ((3, 1, -9, 1), 11, (26, 1, 0)),
    ((4, 1, 5, 1), 2, (0, 1, 0)),
    ((5, -7, 6, 1), 7, (17, 47, 35)),
    ((-6, 9, -5, -4, 1), 3, (0, 1, 0, 0)),
    ((-9, 8, -7, -8, 1), 5, (13, 6, 24, 16)),
    ((-8, -3, 9, 4, 1), 5, (21, 22, 7, 19)),
    ((1, 5, -4, 9, 1), 11, (21, 80, 12, 82)),
    ((1, -8, -8, -1, 1), 3, (1, 4, 3, 6)),
    ((-9, -5, 6, -7, 1), 2, (2, 0, 1, 1)),
    ((1, -3, -7, -6, 1), 5, (23, 13, 21, 24)),
    ((8, 7, -1, 4, 1), 3, (5, 3, 2, 7)),
    ((6, -4, -1, -4, 1), 2, (0, 1, 0, 0)),
    ((-8, -3, 6, -4, 1), 3, (5, 6, 3, 2)),
    ((-2, -1, 1, 6, 1), 7, (7, 22, 5, 4)),
    ((4, -2, -2, 6, 1), 5, (12, 10, 9, 16)),
    ((3, -1, -7, -1, 1), 5, (24, 13, 7, 6)),
    ((-6, 2, -1, 6, 1), 11, (40, 58, 26, 23)),
    ((-3, -9, -4, 6, 8, 1), 3, (6, 7, 5, 0, 1)),
    ((-2, -5, 3, 4, 2, 1), 3, (6, 1, 1, 6, 6)),
    ((3, -4, -2, -2, 7, 1), 3, (3, 5, 0, 2, 1)),
    ((-4, -4, 4, 5, 8, 1), 5, (0, 13, 18, 16, 13)),
    ((-1, 2, -6, -6, -8, 1), 3, (6, 7, 5, 0, 2)),
    ((2, 9, -6, -8, -6, 1), 3, (5, 1, 4, 8, 2)),
    ((3, 1, 6, -6, 2, 1), 3, (6, 5, 7, 6, 0)),
    ((-2, -3, -2, 6, 9, 1), 13, (157, 89, 116, 10, 5)),
    ((7, 0, 4, 1, 1, 1), 3, (0, 5, 6, 0, 2)),
    ((-2, 1, 9, -4, -8, 1), 7, (28, 1, 5, 1, 5)),
    ((-1, -7, -3, -2, 1, 1), 5, (20, 5, 24, 23, 9)),
    ((-6, 5, -6, -9, -2, 1), 2, (2, 1, 0, 0, 0)),
)
