import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import (
    always_scan_maximal_order,
    canonical_rows,
    cofactor_charpoly,
    dense_product_radical_mod_p,
    fraction_determinant,
    has_integer_root,
    random_irreducible_cubic,
    random_irreducible_quartic,
    random_monic_zpoly,
    random_power_basis_orders,
    scan_p_enlarge,
    seeded_maximal_orders,
    trace_matrix_discriminant,
)
from primesplit import fixtures, orders
from primesplit.criteria import (
    _dedekind_verdict,
    factorization_with_cofactor,
    index_divisible,
)
from primesplit.fppoly import PrimeModulus, fp_is_irreducible
from primesplit.integers import prime_power, trial_factor
from primesplit.orders import (
    Order,
    char_poly,
    charpoly_matrix,
    cubic_family,
    element_index,
    element_norm,
    element_trace,
    maximal_order,
    order_discriminant,
    order_from_polynomial,
    order_from_rational_basis,
    p_enlarge,
)
from primesplit.zpoly import ZPoly, bareiss_determinant, discriminant, reduce_mod


MAX_CUBIC = fixtures.maximal_cubic_order()
POWER_CUBIC = fixtures.cubic_power_order()
SQRT2 = fixtures.sqrt2_order()


class TestOrderConstruction:
    def test_identity_must_come_first(self):
        bad = [
            [(0, 1), (1, 0)],
            [(1, 0), (0, 1)],
        ]
        with pytest.raises(ValueError):
            Order(bad)

    def test_symmetry_checked(self):
        bad = [
            [(1, 0), (0, 1)],
            [(0, 2), (2, 0)],
        ]
        with pytest.raises(ValueError):
            Order(bad)

    def test_associativity_checked(self):
        # ab = 4 tampered to 5 breaks (aa)b = a(ab)
        bad = [
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(0, 1, 0), (2, 1, 2), (5, 0, 0)],
            [(0, 0, 1), (5, 0, 0), (-2, 2, -1)],
        ]
        with pytest.raises(ValueError, match=r"not associative at \(1,1,2\)"):
            Order(bad)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_associativity_check_skips_the_identity(self, monkeypatch, n):
        # one multiplication matrix per product e_i e_j with 1 <= i <= j < n
        table = orders._power_table(ZPoly((-2,) + (0,) * (n - 1) + (1,)))
        built = []
        real = Order.mul_matrix

        def counting(self, coords):
            built.append(coords)
            return real(self, coords)

        monkeypatch.setattr(Order, "mul_matrix", counting)
        Order(table)
        assert len(built) == n * (n - 1) // 2


class TestElementMul:
    def test_alpha_beta(self):
        a = MAX_CUBIC.element((0, 1, 0))
        b = MAX_CUBIC.element((0, 0, 1))
        assert (a * b).coords == (4, 0, 0)

    def test_beta_squared(self):
        b = MAX_CUBIC.element((0, 0, 1))
        assert (b * b).coords == (-2, 2, -1)

    def test_identity(self):
        x = MAX_CUBIC.element((3, -1, 7))
        assert (MAX_CUBIC.identity() * x).coords == x.coords

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            MAX_CUBIC.element((1, 0, 0)) * SQRT2.element((1, 0))

    def test_commutative_random(self):
        rng = random.Random(3)
        for _ in range(100):
            x = MAX_CUBIC.element([rng.randrange(-9, 10) for _ in range(3)])
            y = MAX_CUBIC.element([rng.randrange(-9, 10) for _ in range(3)])
            assert (x * y).coords == (y * x).coords


class TestCharPoly:
    def test_derivative_element(self):
        delta = POWER_CUBIC.element((-2, -2, 3))
        assert char_poly(delta) == ZPoly.from_text("t^3 - 7*t^2 - 2012")
        assert element_norm(delta) == 2012

    def test_beta(self):
        beta = MAX_CUBIC.element((0, 0, 1))
        assert char_poly(beta) == ZPoly.from_text("t^3 + t^2 + 2*t - 8")

    def test_identity_element(self):
        assert char_poly(MAX_CUBIC.identity()) == ZPoly.from_text(
            "t^3 - 3*t^2 + 3*t - 1"
        )
        assert char_poly(SQRT2.identity()) == ZPoly.from_text("t^2 - 2*t + 1")

    def test_trace_and_norm_extraction(self):
        rng = random.Random(5)
        for _ in range(50):
            x = MAX_CUBIC.element([rng.randrange(-5, 6) for _ in range(3)])
            cp = char_poly(x)
            assert element_trace(x) == -cp.coeffs[2]
            assert element_norm(x) == -cp.coeffs[0]

    def test_root_satisfies_own_charpoly(self):
        rng = random.Random(9)
        for _ in range(50):
            x = SQRT2.element([rng.randrange(-9, 10) for _ in range(2)])
            cp = char_poly(x)
            acc = SQRT2.zero()
            for c in reversed(cp.coeffs):
                acc = acc * x + SQRT2.identity() * c
            assert acc.is_zero()

    def test_matches_cofactor_oracle(self):
        rng = random.Random(71)
        cases = [[[rng.randrange(-9, 10)]] for _ in range(5)]
        for n in range(1, 8):
            cases.append([[0] * n for _ in range(n)])
            for _ in range(3 if n < 7 else 1):
                dense = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
                zero_row = [list(r) for r in dense]
                zero_row[rng.randrange(n)] = [0] * n
                k = rng.randrange(n)
                zero_col = [[0 if j == k else c for j, c in enumerate(r)] for r in dense]
                cases += [dense, zero_row, zero_col]
        for a in cases:
            assert charpoly_matrix(a) == cofactor_charpoly(a)

    def test_rank_ten_well_inside_time_bound(self):
        # the cofactor expansion takes on the order of 10! products here
        rng = random.Random(73)
        a = [[rng.randrange(-9, 10) for _ in range(10)] for _ in range(10)]
        start = time.perf_counter()
        cp = charpoly_matrix(a)
        assert time.perf_counter() - start < 5.0
        assert len(cp) == 11 and cp[10] == 1
        assert -cp[9] == sum(a[i][i] for i in range(10))
        assert cp[0] == fraction_determinant(a)


class TestOrderDiscriminant:
    def test_maximal_cubic(self):
        assert order_discriminant(MAX_CUBIC) == -503

    def test_power_cubic(self):
        assert order_discriminant(POWER_CUBIC) == -2012

    def test_sqrt2(self):
        assert order_discriminant(SQRT2) == 8

    def test_matches_trace_matrix_oracle(self):
        rng = random.Random(67)
        cases = [o for n in (3, 4, 5, 6) for o in random_power_basis_orders(rng, n, 10)]
        cases += seeded_maximal_orders(random.Random(1801), 6)
        done = 0
        while done < 50:
            vals = [rng.randrange(-10, 11) for _ in range(4)]
            if gcd(*vals) == 1:
                order, disc = cubic_family(*vals)
                assert trace_matrix_discriminant(order) == disc
                cases.append(order)
                done += 1
        for order in cases:
            assert order_discriminant(order) == trace_matrix_discriminant(order), order.table


class TestRadicalModP:
    """The p-radical from the Frobenius matrix, its power taken by row combinations."""

    def test_matches_dense_product_oracle(self):
        rng = random.Random(73)
        cases = [o for n in (3, 4, 5, 6) for o in random_power_basis_orders(rng, n, 8)]
        cases += seeded_maximal_orders(random.Random(1801), 6)
        powered = 0
        for order in cases:
            for p in (2, 3, 5):
                frobenius = orders._frobenius_mod_p(order.table, p)
                expected = dense_product_radical_mod_p(frobenius, p)
                assert orders._radical_mod_p(frobenius, p) == expected, (order.table, p)
                powered += p < order.n
        assert powered >= 100

    def test_matches_dense_product_oracle_at_degree_48(self):
        # 3^4 >= 48: three products of a 48x48 matrix with 43 nonzero entries
        order, _ = maximal_order(ZPoly.from_text("t^48 - 54"))
        frobenius = orders._frobenius_mod_p(order.table, 3)
        expected = dense_product_radical_mod_p(frobenius, 3)
        assert orders._radical_mod_p(frobenius, 3) == expected


class TestOrderFromPolynomial:
    def test_sqrt2_table(self):
        assert SQRT2.table[1][1] == (2, 0)

    def test_cubic_table(self):
        t = POWER_CUBIC.table
        assert t[1][1] == (0, 0, 1)
        assert t[1][2] == (8, 2, 1)  # a * a^2 = 8 + 2a + a^2

    def test_quartic_power_order(self):
        q = order_from_polynomial(fixtures.quartic_poly())
        assert q.n == 4
        assert order_discriminant(q) == discriminant(fixtures.quartic_poly())

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            order_from_polynomial(ZPoly((1, 1, 3)))


class TestElementIndex:
    def test_alpha_in_maximal_order(self):
        assert element_index(MAX_CUBIC, MAX_CUBIC.element((0, 1, 0))) == 2

    def test_power_generator(self):
        assert element_index(POWER_CUBIC, POWER_CUBIC.element((0, 1, 0))) == 1

    def test_skewed_sqrt2_generator(self):
        theta = SQRT2.element((25, 27))
        assert element_index(SQRT2, theta) == 27

    def test_non_generator_gives_zero(self):
        assert element_index(MAX_CUBIC, MAX_CUBIC.element((5, 0, 0))) == 0


class TestPEnlarge:
    def test_cubic_at_2(self):
        enlarged = p_enlarge(POWER_CUBIC, PrimeModulus(2))
        assert order_discriminant(enlarged) == -503
        # contains beta = (a^2 - a - 2)/2
        beta = (Fraction(-2, 2), Fraction(-1, 2), Fraction(1, 2))
        assert _lattice_member(beta, enlarged.basis_in_parent)

    def test_sqrt2_at_2_unchanged(self):
        enlarged = p_enlarge(SQRT2, PrimeModulus(2))
        assert enlarged.basis_in_parent == (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        )

    def test_unchanged_when_square_free_disc(self):
        rng = random.Random(19)
        checked = 0
        while checked < 20:
            f = random_irreducible_cubic(rng, 6)
            d = discriminant(f)
            p = rng.choice([2, 3, 5])
            if d == 0 or d % (p * p) == 0:
                continue
            order = order_from_polynomial(f)
            enlarged = p_enlarge(order, PrimeModulus(p))
            assert order_discriminant(enlarged) == d
            checked += 1

    def test_monotone_idempotent_even_power(self):
        rng = random.Random(29)
        done = 0
        while done < 30:
            f = random_irreducible_cubic(rng, 8)
            if discriminant(f) == 0:
                continue
            p = PrimeModulus(rng.choice([2, 3]))
            order = order_from_polynomial(f)
            enlarged = p_enlarge(order, p)
            # monotone: every original basis vector is in the new lattice
            for i in range(order.n):
                unit = tuple(
                    Fraction(1 if j == i else 0) for j in range(order.n)
                )
                assert _lattice_member(unit, enlarged.basis_in_parent)
            # idempotent: enlarging again changes nothing
            again = p_enlarge(enlarged, p)
            ident = tuple(
                tuple(Fraction(1 if j == i else 0) for j in range(order.n))
                for i in range(order.n)
            )
            assert again.basis_in_parent == ident
            # discriminant drops by an even power of p
            ratio, rem = divmod(
                order_discriminant(order), order_discriminant(enlarged)
            )
            assert rem == 0
            v = 0
            while ratio % p.p == 0:
                ratio //= p.p
                v += 1
            assert abs(ratio) == 1 and v % 2 == 0
            done += 1

    @pytest.mark.parametrize("text", ["t^2", "t^4 + 2*t^2 + 1"])
    def test_discriminant_zero_refused(self, text):
        # t, resp. t^2 + 1, is nilpotent, so Round 2 alone would adjoin its
        # quotients by 2^k for ever
        order = order_from_polynomial(ZPoly.from_text(text))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="discriminant 0"):
            p_enlarge(order, PrimeModulus(2))
        assert time.perf_counter() - start < 1.0

    def test_discriminant_proves_p_maximal_without_round2(self, monkeypatch):
        # disc(Z[sqrt 2]) = 8 has v_3 = 0, so no Round 2 step runs at 3
        calls = _record_round2_calls(monkeypatch)
        enlarged = p_enlarge(SQRT2, PrimeModulus(3))
        assert calls == []
        assert enlarged.basis_in_parent == _identity_rows(2)

    def test_basis_is_canonical(self):
        # the adjoin-step composition gave row 4 as (a^3 + a^4)/2 here
        f = ZPoly.from_text("t^5 - 4*t^4 - 5*t^3 + 52*t^2 - 104*t + 68")
        enlarged = p_enlarge(order_from_polynomial(f), PrimeModulus(2))
        assert enlarged.basis_in_parent == canonical_rows(enlarged.basis_in_parent)
        assert enlarged.basis_in_parent[4] == (0, 0, Fraction(1, 2), 0, Fraction(1, 2))

    def test_round2_matches_scan_oracle(self):
        strict = 0
        for order, p in _round2_oracle_cases():
            enlarged = p_enlarge(order, p)
            oracle = scan_p_enlarge(order, p)
            assert enlarged.basis_in_parent == canonical_rows(oracle.basis_in_parent)
            assert order_discriminant(enlarged) == order_discriminant(oracle)
            strict += order_discriminant(enlarged) != order_discriminant(order)
        assert strict >= 50

    def test_round2_tables_pass_order_checks(self, monkeypatch):
        # Round 2's intermediate rings are bare tables; each must still be
        # a valid order (identity first, symmetric, associative)
        tables = _record_tables(monkeypatch)
        for order, p in _round2_oracle_cases():
            p_enlarge(order, p)
        for text in ("t^2 - 45", "t^3 - 108", "t^4 - 180"):
            maximal_order(ZPoly.from_text(text))
        monkeypatch.undo()
        assert len(tables) >= 50
        for table in tables:
            Order(table)


class TestMaximalOrder:
    def test_cubic(self):
        order, d = maximal_order(fixtures.cubic_poly())
        assert d == -503
        beta = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2))
        assert _lattice_member(beta, order.basis_in_parent)

    def test_quartic(self):
        order, d = maximal_order(fixtures.quartic_poly())
        assert d == 2873 == 13**2 * 17

    def test_sqrt2_already_maximal(self):
        order, d = maximal_order(ZPoly.from_text("t^2 - 2"))
        assert d == 8

    def test_square_consistency(self):
        # for each prime q with q^2 | disc(F): q divides D or q fell in k^2 only;
        # either way disc(F)/D is a perfect square
        for f in (fixtures.cubic_poly(), fixtures.quartic_poly()):
            _, d = maximal_order(f)
            ratio, rem = divmod(discriminant(f), d)
            assert rem == 0
            assert int(round(abs(ratio) ** 0.5)) ** 2 == ratio
        for q, exp in trial_factor(discriminant(fixtures.quartic_poly()), 10**6).items():
            if exp >= 2:
                _, d = maximal_order(fixtures.quartic_poly())
                ratio = discriminant(fixtures.quartic_poly()) // d
                assert d % q == 0 or ratio % (q * q) == 0

    # t^3 - t - 1 has a square-free discriminant; at every q with q^2 | disc
    # of the others, Dedekind's criterion says q does not divide the index
    @pytest.mark.parametrize(
        "text", ["t^5 - 2", "t^5 + 10*t + 1", "t^2 - 2", "t^3 - t - 1"]
    )
    def test_power_basis_kept_without_p_enlarge(self, monkeypatch, text):
        primes = _count_p_maximal_lattice(monkeypatch)
        f = ZPoly.from_text(text)
        order, d = maximal_order(f)
        assert primes == []
        assert order.basis_in_parent == _identity_rows(f.degree)
        assert d == discriminant(f)

    def test_enlarges_where_dedekind_says_index_divisible(self, monkeypatch):
        primes = _count_p_maximal_lattice(monkeypatch)
        _, d = maximal_order(fixtures.cubic_poly())
        assert primes == [2]
        assert d == -503

    def test_agrees_with_always_scan_oracle(self):
        rng = random.Random(83)
        generators = (
            (3, lambda: random_irreducible_cubic(rng, 12)),
            (4, lambda: random_irreducible_quartic(rng, 6)),
            (5, lambda: _random_irreducible_quintic(rng, 4)),
        )
        skipped = enlarged = 0
        for n, gen in generators:
            done = 0
            while done < 20:
                f = gen()
                disc = discriminant(f)
                if disc == 0:
                    continue
                bad = [q for q, e in trial_factor(disc, 10**6).items() if e >= 2]
                # keep the oracle's q^n scans small
                if not bad or any(q**n > 10**4 for q in bad):
                    continue
                order, d = maximal_order(f)
                basis, oracle_d = always_scan_maximal_order(f)
                assert order.basis_in_parent == basis
                assert d == oracle_d
                index = 1 / abs(_fraction_rows_det(basis))
                assert index.denominator == 1
                assert disc == index**2 * d
                divisible = [index_divisible(f, q).divisible for q in bad]
                skipped += divisible.count(False)
                enlarged += divisible.count(True)
                done += 1
        assert skipped and enlarged

    def test_rank9_time_bound(self):
        # a p^n residue scan would need a charpoly for each of 3^9 residues
        start = time.perf_counter()
        order, d = maximal_order(ZPoly.from_text("t^9 - 54"))
        assert time.perf_counter() - start < 2.0
        assert d == 11019960576
        assert order.basis_in_parent == canonical_rows(order.basis_in_parent)

    def test_rank32_time_bound(self):
        # Round 2 takes 21 steps here; only the returned order is an Order
        f = ZPoly.from_text("t^32 - 54")
        start = time.perf_counter()
        order, d = maximal_order(f)
        assert time.perf_counter() - start < 2.0
        assert order.basis_in_parent == canonical_rows(order.basis_in_parent)
        index = 1 / abs(_fraction_rows_det(order.basis_in_parent))
        assert discriminant(f) == index**2 * d

    def test_sextic_at_7(self):
        order, d = maximal_order(ZPoly.from_text("t^6 + 343"))
        assert d == -3087
        index = 1 / abs(_fraction_rows_det(order.basis_in_parent))
        assert discriminant(ZPoly.from_text("t^6 + 343")) == index**2 * d

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            maximal_order(ZPoly.from_text("t^3 - t^2 + 2*t - 8"))  # root 2
        # the same screen as index_divisible
        with pytest.raises(ValueError, match="divisible by t, hence reducible"):
            maximal_order(ZPoly.from_text("t^3 + t"))
        with pytest.raises(ValueError, match="expected degree >= 2"):
            maximal_order(ZPoly.from_text("t - 3"))

    def test_prime_discriminant_time_bound(self):
        # the discriminant -270102609743 is prime: trial division to 10^6 took 41 ms
        f = ZPoly.from_text("t^3 - t - 100019")
        start = time.perf_counter()
        order, d = maximal_order(f)
        assert time.perf_counter() - start < 0.01
        assert d == discriminant(f) == -270102609743
        assert order.basis_in_parent == _identity_rows(3)

    def test_trial_division_bound(self):
        # a tail that is a product of two distinct large primes is ambiguous
        with pytest.raises(ValueError):
            trial_factor(6 * 1000003 * 1000033, 10)
        # prime and prime-power tails are recognized exactly
        assert trial_factor(6 * 1000003**2, 10) == {2: 1, 3: 1, 1000003: 2}
        assert trial_factor(6 * 1000003, 10) == {2: 1, 3: 1, 1000003: 1}
        assert trial_factor(6 * 1000003**2, 2 * 10**6) == {2: 1, 3: 1, 1000003: 2}
        q = 2**31 + 11  # a prime above the modulus cap
        assert trial_factor(12 * q**2, 10**6) == {2: 2, 3: 1, q: 2}

    def test_pseudoprime_tail_is_not_accepted(self):
        # 3215031751 = 151 * 751 * 28351 passes strong tests to bases 2, 3, 5, 7
        with pytest.raises(ValueError, match="exceeds the trial-division bound 100$"):
            trial_factor(3215031751, 100)
        assert trial_factor(3215031751, 1000) == {151: 1, 751: 1, 28351: 1}
        # a tail is_prime cannot decide exceeds the bound
        with pytest.raises(ValueError, match="trial-division bound 10$"):
            trial_factor(2**89 - 1, 10)

    def test_prime_power_by_exact_roots(self):
        q = 2**31 - 1
        assert prime_power(q) == (q, 1)
        assert prime_power(q**5) == (q, 5)
        assert prime_power(2**40) == (2, 40)
        # 2^89 - 1 is prime, but is_prime cannot decide it
        for n in (0, 1, 36, 1000003 * 1000033, q * (q - 2), (2**89 - 1) ** 2):
            assert prime_power(n) is None
        # 2^31 + 11 is prime; PrimeModulus, not prime_power, applies the 2^31 cap
        assert prime_power((2**31 + 11) ** 2) == (2**31 + 11, 2)


@pytest.fixture(scope="module")
def dedekind_cases():
    """Seeded monic cubics to sextics with (q, v_q(disc), verdict) where q divides the index."""
    rng = random.Random(1709)
    cases = []
    for n, count in ((3, 60), (4, 60), (5, 40), (6, 40)):
        done = 0
        while done < count:
            f = random_monic_zpoly(rng, n, 9)
            disc = discriminant(f)
            if not f.coeffs[0] or not disc:
                continue
            done += 1
            for q, v in trial_factor(disc, 10**6).items():
                if v < 2:
                    continue
                modulus = PrimeModulus(q)
                verdict = _dedekind_verdict(
                    modulus, *factorization_with_cofactor(f, modulus)
                )
                if verdict.divisible:
                    cases.append((f, modulus, v, verdict))
    return cases


class TestDedekindStep:
    """Dedekind's enlargement O' = Z[t] + (U(t)/q)Z[t] at the primes dividing the index."""

    def test_equals_one_round2_step_with_index_q_to_the_m(self, dedekind_cases):
        certified = continued = 0
        for f, modulus, v, verdict in dedekind_cases:
            q, n = modulus.p, f.degree
            table = orders._power_table(f)
            identity = orders._identity_rows(n)
            rows, d, m = orders._dedekind_lattice(f, modulus, verdict, identity, 1)

            # one Round 2 step on Z[t]: the ring of multipliers of its q-radical
            radical = orders._radical_mod_p(orders._frobenius_mod_p(table, q), q)
            kernel = orders._multipliers_mod_p(table, q, radical)
            step = orders._lattice([[q * c for c in row] for row in identity] + kernel, q)
            assert (rows, d) == step, (f, q)

            # m is the degree of the repeated factors dividing M mod q, and
            # [O' : Z[t]] = d^n / det(rows) is q^m
            m_red = reduce_mod(verdict.cofactor, modulus)
            z = [g for g, e in verdict.factors if e >= 2 and (m_red % g).is_zero()]
            assert m == sum(g.degree for g in z) >= 1
            assert d**n == q**m * abs(bareiss_determinant(rows)), (f, q)

            if v - 2 * m < 2:
                enlarged = orders._table_on_lattice(table, rows, d)
                radical = orders._radical_mod_p(orders._frobenius_mod_p(enlarged, q), q)
                assert orders._multipliers_mod_p(enlarged, q, radical) == [], (f, q)
                certified += 1
            else:
                continued += 1
        assert certified >= 20 and continued >= 20, (certified, continued)

    def test_paper_cubic_at_2_runs_no_round2(self, monkeypatch):
        # v_2(disc) = 2 and m = 1, so O' is 2-maximal by its discriminant
        calls = _record_round2_calls(monkeypatch)
        order, d = maximal_order(fixtures.cubic_poly())
        assert calls == []
        assert d == -503
        beta = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2))
        assert _lattice_member(beta, order.basis_in_parent)

    def test_discriminant_ends_round2_after_an_enlarging_step(self, monkeypatch):
        # disc = -3^6 * 31 and m = 1 at 3, so v = 4 on Dedekind's ring; one
        # Round 2 step of index 3^2 leaves v = 0, which proves the ring
        # 3-maximal with no second step
        calls = _record_round2_calls(monkeypatch)
        _, d = maximal_order(ZPoly.from_text("t^3 + 3*t^2 - 18*t + 27"))
        assert calls.count("_multipliers_mod_p") == 1
        assert d == -31


class TestOneOrderPerCall:
    """Round 2 runs on tables, so a call builds only the Order it returns."""

    @pytest.mark.parametrize(
        "text, primes",
        [
            ("t^3 - t - 1", []),
            ("t^5 - 2", []),
            ("t^3 - t^2 - 2*t - 8", [2]),
            ("t^9 - 54", [3]),
            ("t^2 - 45", [2, 3]),
            ("t^3 - 108", [2, 3]),
        ],
    )
    def test_maximal_order(self, monkeypatch, text, primes):
        enlarging = _count_p_maximal_lattice(monkeypatch)
        built = _count_orders(monkeypatch)
        maximal_order(ZPoly.from_text(text))
        assert enlarging == primes
        assert len(built) == 1

    @pytest.mark.parametrize(
        "order, p, steps", [(POWER_CUBIC, 2, True), (SQRT2, 2, False)]
    )
    def test_p_enlarge(self, monkeypatch, order, p, steps):
        tables = _record_tables(monkeypatch)
        built = _count_orders(monkeypatch)
        p_enlarge(order, PrimeModulus(p))
        assert bool(tables) == steps
        assert len(built) == 1


class TestCubicFamily:
    def test_paper_quadruple(self):
        order, disc = cubic_family(2, 2, 1, -1)
        assert disc == -503
        assert order_discriminant(order) == -503
        assert char_poly(order.element((0, 1, 0))) == fixtures.cubic_poly()

    def test_impossible_unit_discriminant(self):
        order, disc = cubic_family(6, 2, 9, 13)
        assert disc == 1
        assert char_poly(order.element((0, 1, 0))) == ZPoly.from_text(
            "t^3 - 9*t^2 + 26*t - 24"
        )

    def test_reducible_neighbour(self):
        order, _ = cubic_family(2, 2, 1, 1)
        alpha_min = char_poly(order.element((0, 1, 0)))
        assert alpha_min == ZPoly.from_text("t^3 - t^2 + 2*t - 8")
        assert alpha_min == ZPoly.from_text("t - 2") * ZPoly.from_text("t^2 + t + 4")

    def test_gcd_violation(self):
        with pytest.raises(ValueError):
            cubic_family(2, 2, 4, 6)

    def test_closed_form_matches_trace_form(self):
        from math import gcd

        rng = random.Random(59)
        done = 0
        while done < 200:
            vals = [rng.randrange(-10, 11) for _ in range(4)]
            g = 0
            for v in vals:
                g = gcd(g, v)
            if g != 1:
                continue
            order, disc = cubic_family(*vals)
            assert order_discriminant(order) == disc
            done += 1


class TestDiscIndexIdentity:
    def test_section5_data(self):
        alpha = MAX_CUBIC.element((0, 1, 0))
        k = element_index(MAX_CUBIC, alpha)
        assert discriminant(char_poly(alpha)) == k * k * order_discriminant(MAX_CUBIC)
        assert (k, discriminant(char_poly(alpha))) == (2, -2012)

    def test_random_family_members(self):
        from math import gcd

        rng = random.Random(61)
        done = 0
        while done < 100:
            vals = [rng.randrange(-6, 7) for _ in range(4)]
            g = 0
            for v in vals:
                g = gcd(g, v)
            if g != 1:
                continue
            order, disc = cubic_family(*vals)
            if disc == 0:
                continue
            theta = order.element([rng.randrange(-4, 5) for _ in range(3)])
            k = element_index(order, theta)
            if k == 0:
                continue
            assert discriminant(char_poly(theta)) == k * k * disc
            done += 1


class TestOrderFromRationalBasis:
    def test_span_not_closed_rejected(self):
        # (a/2)^2 = a^2/4 is not in the span of 1, a/2, a^2
        rows = [(1, 0, 0), (0, Fraction(1, 2), 0), (0, 0, 1)]
        with pytest.raises(ValueError, match="span is not closed under multiplication"):
            order_from_rational_basis(POWER_CUBIC, rows)


class TestQuarticPaperBasis:
    def test_derived_multiplication_table(self):
        # basis 1, a, (2 - a + a^2 - a^3)/2, a^2 - a: validated by the
        # fundamental number and by lattice equality with the computed
        # maximal order
        power = order_from_polynomial(fixtures.quartic_poly())
        rows = [
            (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2)),
            (Fraction(0), Fraction(-1), Fraction(1), Fraction(0)),
        ]
        derived = order_from_rational_basis(power, rows)
        assert order_discriminant(derived) == 2873
        computed, _ = maximal_order(fixtures.quartic_poly())
        assert derived.basis_in_parent == computed.basis_in_parent


def _identity_rows(n):
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def _count_p_maximal_lattice(monkeypatch):
    """Record the prime of every per-prime enlargement step maximal_order makes."""
    primes = []
    real = orders._dedekind_lattice

    def counting(f, modulus, *rest):
        primes.append(modulus.p)
        return real(f, modulus, *rest)

    monkeypatch.setattr(orders, "_dedekind_lattice", counting)
    return primes


def _record_round2_calls(monkeypatch):
    """Record the name of every Frobenius, radical and multiplier call Round 2 makes."""
    calls = []

    def recording(name):
        real = getattr(orders, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in ("_frobenius_mod_p", "_radical_mod_p", "_multipliers_mod_p"):
        monkeypatch.setattr(orders, name, recording(name))
    return calls


def _count_orders(monkeypatch):
    """Record every Order construction."""
    built = []
    real = Order.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Order, "__init__", counting)
    return built


def _record_tables(monkeypatch):
    """Record every multiplication table Round 2 derives."""
    tables = []
    real = orders._table_on_lattice

    def recording(*args):
        tables.append(real(*args))
        return tables[-1]

    monkeypatch.setattr(orders, "_table_on_lattice", recording)
    return tables


def _round2_oracle_cases():
    """Seeded (order, p) pairs small enough for the p^n scan oracle."""
    rng = random.Random(101)
    orders_ = []
    for rank, count in ((2, 40), (3, 40), (4, 30), (5, 20)):
        orders_ += random_power_basis_orders(rng, rank, count, bound=12)
    while len(orders_) < 170:
        vals = [rng.randrange(-8, 9) for _ in range(4)]
        if gcd(*vals) == 1:
            order, disc = cubic_family(*vals)
            if disc:
                orders_.append(order)
    return [
        (order, PrimeModulus(p))
        for order in orders_
        for p in (2, 3, 5)
        if p**order.n <= 1000
    ]


def _random_irreducible_quintic(rng, bound):
    # irreducible mod a prime implies irreducible over Q
    while True:
        f = random_monic_zpoly(rng, 5, bound)
        if has_integer_root(f):
            continue
        if any(fp_is_irreducible(reduce_mod(f, PrimeModulus(q))) for q in (2, 3, 5, 7)):
            return f


def _fraction_rows_det(rows):
    denom = lcm(*(c.denominator for row in rows for c in row))
    scaled = [[int(c * denom) for c in row] for row in rows]
    return Fraction(fraction_determinant(scaled), denom ** len(rows))


def _lattice_member(vec, basis):
    v = [Fraction(c) for c in vec]
    n = len(basis)
    for i in range(n - 1, -1, -1):
        q = v[i] / basis[i][i]
        if q.denominator != 1:
            return False
        for j in range(n):
            v[j] -= q * basis[i][j]
    return all(c == 0 for c in v)
