import random
import time
from fractions import Fraction
from math import gcd

import pytest

from conftest import (
    always_scan_maximal_order,
    canonical_rows,
    cofactor_charpoly,
    dedekind_lattice,
    dense_product_radical_mod_p,
    first_nonassociative_triple,
    fraction_determinant,
    fraction_rows,
    has_integer_root,
    random_irreducible_cubic,
    random_irreducible_quartic,
    random_monic_zpoly,
    random_power_basis_orders,
    scan_enlarged_labels,
    scan_p_enlarge,
    seeded_maximal_orders,
    trace_matrix_discriminant,
)
from primesplit import criteria, fixtures, lattice, orders
from primesplit.criteria import (
    balanced_lift,
    dedekind_verdict,
    index_divisible,
    ore_lattice,
    rational_root_screen,
)
from primesplit.fppoly import (
    PrimeModulus,
    enumerate_monic_irreducibles,
    fp_is_irreducible,
)
from primesplit.ideals import factor_p_in_order
from primesplit.integers import prime_power, trial_factor
from primesplit.orders import (
    Order,
    char_poly,
    charpoly_matrix,
    cubic_family,
    element_index,
    maximal_order,
    order_discriminant,
    order_from_polynomial,
    p_enlarge,
)
from primesplit.zpoly import ZPoly, bareiss_determinant, discriminant, reduce_mod


MAX_CUBIC = fixtures.maximal_cubic_order()
POWER_CUBIC = order_from_polynomial(fixtures.cubic_poly())
SQRT2 = fixtures.sqrt2_order()


NOT_AN_INT = "'%s' object cannot be interpreted as an integer"


class TestOrderConstruction:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Order([]), ValueError, "order must have positive rank"),
            (
                lambda: Order([[(1, 0), (0, 1)], [(0, 1)]]),
                ValueError,
                "must be n x n of n-vectors",
            ),
            (lambda: Order(SQRT2.table, labels=("1",)), ValueError, "need 2 basis labels"),
            (
                lambda: orders.OrderElement(SQRT2, (1, 2, 3)),
                ValueError,
                "expected 2 coordinates, got 3",
            ),
            # entries that are not integers are refused, not truncated
            (
                lambda: Order([[(1, 0), (0, 1)], [(0, 1), (Fraction(5, 2), 0)]]),
                TypeError,
                NOT_AN_INT % "Fraction",
            ),
            (
                lambda: Order([[(1, 0), (0, 1)], [(0, 1), (2, 0.5)]]),
                TypeError,
                NOT_AN_INT % "float",
            ),
            (
                lambda: orders.OrderElement(SQRT2, [Fraction(1, 2), 0]),
                TypeError,
                NOT_AN_INT % "Fraction",
            ),
            (lambda: orders.OrderElement(SQRT2, [0, 0.9]), TypeError, NOT_AN_INT % "float"),
        ],
    )
    def test_input_refusals(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

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
    def test_construction_makes_no_multiplication_matrix(self, monkeypatch, n):
        # the check compares packed integers, not multiplication matrices
        table = orders._power_table(ZPoly((-2,) + (0,) * (n - 1) + (1,)))
        built = []
        real = Order.mul_matrix

        def counting(self, coords):
            built.append(coords)
            return real(self, coords)

        monkeypatch.setattr(Order, "mul_matrix", counting)
        Order(table)
        assert built == []

    def test_associativity_check_matches_matrix_oracle(self):
        # tamper a symmetric pair of entries of an associative table: the
        # packed check and the matrix check name the same first triple
        rng = random.Random(47)
        failures = 0
        for n in range(2, 9):
            bound = round(10 ** (6 / (n - 1)))
            tables = []
            while len(tables) < 12:
                f = random_monic_zpoly(rng, n, bound)
                table = [list(row) for row in orders._power_table(f)]
                top = max(abs(c) for row in table for vec in row for c in vec)
                if top <= 10**6:
                    tables.append(table)
            for table in tables:
                i = rng.randrange(1, n)
                j = rng.randrange(i, n)
                vec = list(table[i][j])
                vec[rng.randrange(n)] += rng.choice((-1, 1)) * rng.randint(1, 10**6)
                table[i][j] = table[j][i] = tuple(vec)
                expected = first_nonassociative_triple(table)
                if expected is None:
                    Order(table)
                    continue
                failures += 1
                message = r"not associative at \(%d,%d,%d\)$" % expected
                with pytest.raises(ValueError, match=message):
                    Order(table)
        assert failures > 50

    def test_associativity_check_sees_defects_that_fill_a_slot(self):
        # (e1 e1) e2 - (e1 e2) e1 = (2^(a+b), -1, 0): packed into slots of
        # a + b bits it would read 0, so the slots must be wider
        for a in range(1, 40):
            for b in range(1, 40):
                table = [
                    [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                    [(0, 1, 0), (0, 2**a, 1), (2**b, 0, 0)],
                    [(0, 0, 1), (2**b, 0, 0), (0, 2**b - 1, 0)],
                ]
                assert first_nonassociative_triple(table) == (1, 1, 2)
                with pytest.raises(ValueError, match=r"not associative at \(1,1,2\)"):
                    Order(table)


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

    def test_beta(self):
        beta = MAX_CUBIC.element((0, 0, 1))
        assert char_poly(beta) == ZPoly.from_text("t^3 + t^2 + 2*t - 8")

    def test_identity_element(self):
        assert char_poly(MAX_CUBIC.identity()) == ZPoly.from_text(
            "t^3 - 3*t^2 + 3*t - 1"
        )
        assert char_poly(SQRT2.identity()) == ZPoly.from_text("t^2 - 2*t + 1")

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
        start = time.process_time()
        cp = charpoly_matrix(a)
        assert time.process_time() - start < 5.0
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
                frobenius = orders.frobenius_mod_p(order.table, p)
                expected = dense_product_radical_mod_p(frobenius, p)
                radical = orders.radical_mod_p(frobenius, p)
                rows = lattice.lattice_rows_mod_p(radical, p, order.n)
                assert rows == expected, (order.table, p)
                powered += p < order.n
        assert powered >= 100

    def test_matches_dense_product_oracle_at_degree_48(self):
        # 3^4 >= 48: three products of a 48x48 matrix with 43 nonzero entries
        order, _ = maximal_order(ZPoly.from_text("t^48 - 54"))
        frobenius = orders.frobenius_mod_p(order.table, 3)
        expected = dense_product_radical_mod_p(frobenius, 3)
        radical = orders.radical_mod_p(frobenius, 3)
        assert lattice.lattice_rows_mod_p(radical, 3, 48) == expected


class TestLatticeRowsModP:
    """Canonical rows of a lattice between p*Z^n and Z^n, read off GF(p) echelon rows."""

    PRIMES = (2, 3, 5, 19, 2**31 - 1)

    @staticmethod
    def _hnf_oracle(vectors, p, n):
        rows = [[p * c for c in row] for row in lattice.identity_rows(n)]
        return lattice.hnf(rows + vectors, n)

    def test_matches_hnf_on_random_subspaces(self):
        rng = random.Random(47)
        for p in self.PRIMES:
            for n in range(1, 9):
                for dim in range(n + 1):
                    vectors = []
                    while len(lattice.echelon_mod_p(vectors, p)[0]) < dim:
                        vectors.append([rng.randrange(p) for _ in range(n)])
                    # integer entries outside [0, p) reduce the same way
                    vectors = [[c + p * rng.randrange(-2, 3) for c in v] for v in vectors]
                    expected = self._hnf_oracle(vectors, p, n)
                    subspace = lattice.echelon_mod_p(vectors, p)
                    assert lattice.lattice_rows_mod_p(subspace, p, n) == expected
                    assert sorted(subspace[1]) == [
                        i for i, r in enumerate(expected) if r[i] == 1
                    ]

                    # extending a start echelon gives the same subspace and
                    # leaves the start as it was
                    half = len(vectors) // 2
                    start = lattice.echelon_mod_p(vectors[:half], p)
                    kept = [list(r) for r in start[0]], list(start[1])
                    extended = lattice.echelon_mod_p(vectors[half:], p, start=start)
                    assert lattice.lattice_rows_mod_p(extended, p, n) == expected
                    assert ([list(r) for r in start[0]], start[1]) == kept

    def test_left_kernel_needs_no_elimination(self):
        # a left kernel basis is 1 at its own free column, its last nonzero
        # entry, and 0 at the other free columns, so it maps as it stands
        rng = random.Random(53)
        dims = set()
        for p in self.PRIMES:
            for m in range(1, 9):
                for rank in range(m + 1):
                    width = rng.randrange(rank, 9) if rank else rng.randrange(1, 9)
                    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(m)]
                    right = [[rng.randrange(p) for _ in range(width)] for _ in range(rank)]
                    rows = [
                        [sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                        if rank else [0] * width
                        for row in left
                    ]
                    kernel = lattice.left_kernel_mod_p(rows, p)
                    assert lattice.lattice_rows_mod_p(kernel, p, m) == self._hnf_oracle(
                        kernel[0], p, m
                    ), (rows, p)
                    dims.add((m, len(kernel[0])))
        assert all((m, k) in dims for m in range(1, 9) for k in range(m + 1))


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
        with pytest.raises(ValueError, match="maximal order requires a monic polynomial"):
            maximal_order(ZPoly((1, 1, 3)))

    def test_power_table_matches_polynomial_remainders(self):
        rng = random.Random(29)
        for n in range(2, 9):
            f = random_monic_zpoly(rng, n, 9)
            powers = [(ZPoly((0,) * k + (1,)) % f).coeffs for k in range(2 * n - 1)]
            expected = [
                [powers[i + j] + (0,) * (n - len(powers[i + j])) for j in range(n)]
                for i in range(n)
            ]
            assert orders._power_table(f) == expected, f


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
        assert enlarged.basis_in_parent == _identity_basis(2)

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
            assert again.basis_in_parent == _identity_basis(order.n)
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
        start = time.process_time()
        with pytest.raises(ValueError, match="discriminant 0"):
            p_enlarge(order, PrimeModulus(2))
        assert time.process_time() - start < 1.0

    def test_discriminant_proves_p_maximal_without_round2(self, monkeypatch):
        # disc(Z[sqrt 2]) = 8 has v_3 = 0, so no Round 2 step runs at 3
        calls = _record_round2_calls(monkeypatch)
        enlarged = p_enlarge(SQRT2, PrimeModulus(3))
        assert calls == []
        assert enlarged.basis_in_parent == _identity_basis(2)

    def test_basis_is_canonical(self):
        # the adjoin-step composition gave row 4 as (a^3 + a^4)/2 here
        f = ZPoly.from_text("t^5 - 4*t^4 - 5*t^3 + 52*t^2 - 104*t + 68")
        enlarged = p_enlarge(order_from_polynomial(f), PrimeModulus(2))
        rows = fraction_rows(enlarged.basis_in_parent)
        assert enlarged.basis_in_parent == canonical_rows(rows)
        assert rows[4] == (0, 0, Fraction(1, 2), 0, Fraction(1, 2))

    def test_round2_matches_scan_oracle(self):
        strict = 0
        for order, p in _round2_oracle_cases():
            enlarged = p_enlarge(order, p)
            oracle = scan_p_enlarge(order, p)
            oracle_rows = fraction_rows(oracle.basis_in_parent)
            assert enlarged.basis_in_parent == canonical_rows(oracle_rows)
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


class TestEnlargedLabels:
    """Each label is read off its own canonical row; scanning every parent label is the oracle."""

    def test_maximal_orders_match_scan(self):
        kept = renamed = 0
        for order in seeded_maximal_orders(random.Random(1801), 6):
            parent = orders._basis_labels(None, order.n)
            assert order.labels == scan_enlarged_labels(parent, *order.basis_in_parent)
            if order.basis_in_parent[1] > 1:
                kept += sum(label in parent[1:] for label in order.labels)
                renamed += sum(label not in parent for label in order.labels)
        assert kept and renamed

    def test_p_enlarge_with_custom_labels_matches_scan(self):
        renamed = 0
        for order, p in _round2_oracle_cases():
            labels = ("1", "a", "b", "c", "e")[: order.n]
            enlarged = p_enlarge(Order(order.table, labels=labels), p)
            assert enlarged.labels == scan_enlarged_labels(labels, *enlarged.basis_in_parent)
            renamed += enlarged.labels != labels
        assert renamed >= 50


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

    def test_repeated_root_refused_after_the_screen(self):
        # (t^2 + 1)^2 has no integer root, so only its discriminant refuses it
        f = ZPoly.from_text("t^4 + 2*t^2 + 1")
        rational_root_screen(f)
        with pytest.raises(ValueError, match=r"repeated root \(discriminant 0\)"):
            maximal_order(f)

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
        assert order.basis_in_parent == _identity_basis(f.degree)
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
        start = time.process_time()
        order, d = maximal_order(ZPoly.from_text("t^9 - 54"))
        assert time.process_time() - start < 2.0
        assert d == 11019960576
        assert order.basis_in_parent == canonical_rows(fraction_rows(order.basis_in_parent))

    def test_rank32_time_bound(self):
        # regular at 2 and 3, so Ore's ring needs no Round 2 step
        f = ZPoly.from_text("t^32 - 54")
        start = time.process_time()
        order, d = maximal_order(f)
        assert time.process_time() - start < 2.0
        assert order.basis_in_parent == canonical_rows(fraction_rows(order.basis_in_parent))
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
        start = time.process_time()
        order, d = maximal_order(f)
        assert time.process_time() - start < 0.01
        assert d == discriminant(f) == -270102609743
        assert order.basis_in_parent == _identity_basis(3)

    def test_index_divisors_above_2_31(self):
        # t^3 - 2q^2 with 2q^2 = -1 mod 9: q and 3 both divide the index,
        # and the maximal order has basis 1, a, (2 + a + a^2/q)/3
        for q in (2**64 - 59, 2**80 - 65):
            assert 2 * q * q % 9 == 8
            f = ZPoly((-2 * q * q, 0, 0, 1))
            order, d = maximal_order(f)
            assert d == -12 * q * q
            assert fraction_rows(order.basis_in_parent)[2] == (
                Fraction(2, 3),
                Fraction(1, 3),
                Fraction(1, 3 * q),
            )
            assert discriminant(f) == d * (3 * q) ** 2
            assert [(e, f) for _, e, f in factor_p_in_order(order, q)] == [(3, 1)]

    def test_trial_division_bound(self):
        # a tail that is a product of two distinct large primes is ambiguous
        with pytest.raises(ValueError):
            trial_factor(6 * 1000003 * 1000033, 10)
        # prime and prime-power tails are recognized exactly
        assert trial_factor(6 * 1000003**2, 10) == {2: 1, 3: 1, 1000003: 2}
        assert trial_factor(6 * 1000003, 10) == {2: 1, 3: 1, 1000003: 1}
        assert trial_factor(6 * 1000003**2, 2 * 10**6) == {2: 1, 3: 1, 1000003: 2}
        q = 2**31 + 11  # a prime above 2^31
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
        # 2^31 + 11 is prime
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
                verdict = dedekind_verdict(f, modulus)
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
            identity = lattice.identity_rows(n)
            rows, d, m = dedekind_lattice(f, verdict, identity, 1)

            # one Round 2 step on Z[t]: the ring of multipliers of its q-radical
            radical = orders.radical_mod_p(orders.frobenius_mod_p(table, q), q)
            kernel = orders.multipliers_mod_p(table, q, radical)
            rows_q = [[q * c for c in row] for row in identity]
            step = lattice.rational_lattice(rows_q + kernel, q)
            assert (rows, d) == step, (f, q)

            # m is the degree of the repeated factors dividing M mod q, and
            # [O' : Z[t]] = d^n / det(rows) is q^m
            m_red = reduce_mod(verdict.cofactor, modulus)
            z = [(g, e) for g, e in verdict.factors if e >= 2 and (m_red % g).is_zero()]
            assert verdict.dividing == z, (f, q)
            assert m == sum(g.degree for g, _ in z) >= 1
            assert d**n == q**m * abs(bareiss_determinant(rows)), (f, q)

            if v - 2 * m < 2:
                enlarged = orders._table_on_lattice(table, rows, d)
                radical = orders.radical_mod_p(orders.frobenius_mod_p(enlarged, q), q)
                assert orders.multipliers_mod_p(enlarged, q, radical) == [], (f, q)
                certified += 1
            else:
                continued += 1
        assert certified >= 20 and continued >= 20, (certified, continued)

    def test_paper_cubic_at_2_runs_no_round2(self, monkeypatch):
        # f = t^2 (t + 1) mod 2 is regular at 2, so Ore's ring, here
        # Dedekind's ring of index 2, is 2-maximal
        calls = _record_round2_calls(monkeypatch)
        order, d = maximal_order(fixtures.cubic_poly())
        assert calls == []
        assert d == -503
        beta = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2))
        assert _lattice_member(beta, order.basis_in_parent)

    def test_discriminant_ends_round2_after_an_enlarging_step(self, monkeypatch):
        # disc = 3^5 * 4363 and f = t^2 (t + 1) mod 3 is irregular at 3 with
        # ind = 1, so v = 3 on Ore's ring; one Round 2 step of index 3
        # leaves v = 1, which proves the ring 3-maximal with no second step
        calls = _record_round2_calls(monkeypatch)
        _, d = maximal_order(ZPoly.from_text("t^3 - 29*t^2 - 12*t + 9"))
        assert calls.count("multipliers_mod_p") == 1
        assert d == 3 * 4363


@pytest.fixture(scope="module")
def ore_cases():
    """Seeded monic cubics to octics with (f, q, verdict) where q divides the index.

    f = prod(lift(g)^e) * rest + q*h1 + q^2*h2 + q^3*h3, with the g drawn
    from two linear irreducibles and a quadratic one mod q, so one q
    often has two repeated factors or a repeated non-linear one.
    """
    rng = random.Random(1901)
    cases = []
    for q in (2, 3, 5, 7):
        modulus = PrimeModulus(q)
        linear = list(enumerate_monic_irreducibles(modulus, 1))
        quadratic = list(enumerate_monic_irreducibles(modulus, 2))
        for n in range(3, 9):
            done = 0
            while done < 5:
                candidates = rng.sample(linear, 2) + [rng.choice(quadratic)]
                rng.shuffle(candidates)
                parts, used = [], 0
                for g in candidates:
                    e = rng.randint(1, 4)
                    if used + e * g.degree <= n:
                        parts.append((g, e))
                        used += e * g.degree
                f = ZPoly([rng.randrange(-q, q + 1) for _ in range(n - used)] + [1])
                for g, e in parts:
                    f = f * balanced_lift(g) ** e
                for k in (1, 2, 3):
                    if rng.random() < 0.6:
                        f = f + ZPoly([q**k * rng.randrange(-2, 3) for _ in range(n)])
                disc = discriminant(f)
                if not f.coeffs[0] or not disc or has_integer_root(f):
                    continue
                try:
                    trial_factor(disc, 10**4)  # so it factors at maximal_order's 10^6
                except ValueError:
                    continue
                verdict = dedekind_verdict(f, modulus)
                if verdict.divisible:
                    cases.append((f, modulus, verdict))
                    done += 1
    return cases


class TestOreStep:
    """Ore's first-order ring at the primes dividing the index, where Round 2 starts."""

    def test_matches_oracles(self, ore_cases):
        seen = dict.fromkeys(
            (
                "non-linear",
                "several",
                "regular",
                "irregular",
                "regular non-linear",
                "repeated outside dividing",
            ),
            0,
        )
        scanned = 0
        for f, modulus, verdict in ore_cases:
            q, n = modulus.p, f.degree
            identity = lattice.identity_rows(n)
            rows, d, ind, regular = ore_lattice(verdict, identity, 1)
            repeated = [g for g, e in verdict.factors if e >= 2]
            non_linear = any(g.degree > 1 for g in repeated)
            seen["non-linear"] += non_linear
            seen["several"] += len(repeated) >= 2
            seen["regular" if regular else "irregular"] += 1
            seen["regular non-linear"] += regular and non_linear
            # ore_lattice skips these; the oracles below check that skip
            seen["repeated outside dividing"] += len(repeated) > len(verdict.dividing)

            # Dedekind's ring lies inside Ore's ring, of q-index q^ind
            ore = fraction_rows((rows, d))
            dedekind = fraction_rows(dedekind_lattice(f, verdict, identity, 1)[:2])
            assert canonical_rows(ore + dedekind) == (rows, d), (f, q)
            assert d**n == q**ind * bareiss_determinant(rows), (f, q)

            # a regular f leaves Round 2 nothing to add at q
            if regular:
                table = orders._table_on_lattice(orders._power_table(f), rows, d)
                radical = orders.radical_mod_p(orders.frobenius_mod_p(table, q), q)
                assert orders.multipliers_mod_p(table, q, radical) == [], (f, q)

            # the maximal order against the q^n scans, or else against the
            # sum of the p-maximal orders over Z[t] at every p with p^2 | disc
            order, D = maximal_order(f)
            bad = [p for p, e in trial_factor(discriminant(f), 10**6).items() if e >= 2]
            if all(p**n <= 1000 for p in bad):
                assert (order.basis_in_parent, D) == always_scan_maximal_order(f)
                scanned += 1
            else:
                power = order_from_polynomial(f)
                local = [
                    row for p in bad for row in fraction_rows(p_enlarge(power, p).basis_in_parent)
                ]
                assert order.basis_in_parent == canonical_rows(local), (f, q)
        assert min(seen.values()) >= 10 and 30 <= scanned <= len(ore_cases) - 30, seen

    def test_lift_that_divides_f(self):
        # phi = t^2 + 1 divides f = phi^2 + 3*phi, so a_0 = 0 and the
        # polygon is the one side from (1, 1) to (2, 0): ind = 2, regular
        f = ZPoly.from_text("t^4 + 5*t^2 + 4")
        verdict = dedekind_verdict(f, 3)
        rows, d, ind, regular = ore_lattice(verdict, lattice.identity_rows(4), 1)
        assert (d, ind, regular) == (3, 2, True)
        assert d**4 == 3**ind * bareiss_determinant(rows)
        order, D = maximal_order(f)
        assert (order.basis_in_parent, D) == always_scan_maximal_order(f)

    @pytest.mark.parametrize(
        "text, most",
        [("t^24 - 243", 0), ("t^48 - 243", 0), ("t^24 - 54", 6), ("t^9 - 54", 4)],
    )
    def test_round2_work_gate(self, monkeypatch, text, most):
        # t^k - 243 is regular at 3: its polygon is one side, from (0, 5) to
        # (k, 0), of degree gcd(k, 5) = 1.  t^k - 54 is not: its side from
        # (0, 3) has residual polynomial y^3 - 2 = (y + 1)^3 over GF(3)
        calls = _record_round2_calls(monkeypatch)
        maximal_order(ZPoly.from_text(text))
        assert calls.count("multipliers_mod_p") <= most

    def test_rank48_time_bound(self):
        # regular at 3: Ore's ring is 3-maximal and no Round 2 step runs
        start = time.process_time()
        order, d = maximal_order(ZPoly.from_text("t^48 - 243"))
        assert time.process_time() - start < 0.6
        assert fraction_rows(order.basis_in_parent)[-1][-1] == Fraction(1, 81)


class TestHeldVerdicts:
    """maximal_order uses each verdict a caller holds at the verdict's own prime."""

    @pytest.mark.parametrize("text", ["t^3 - 108", "t^6 + 108", "t^4 + 5*t^2 + 1"])
    def test_held_verdicts_give_the_same_order(self, monkeypatch, text):
        f = ZPoly.from_text(text)
        at2, at3 = dedekind_verdict(f, 2), dedekind_verdict(f, 3)
        order, d = maximal_order(f)
        factored = []
        factor = criteria.fp_factor

        def recording(g):
            factored.append(g.p)
            return factor(g)

        monkeypatch.setattr(criteria, "fp_factor", recording)
        for held in ([at2], [at3], [at2, at3], [at3, at2]):
            factored.clear()
            got, got_d = maximal_order(f, verdicts=held)
            assert (got.basis_in_parent, got_d) == (order.basis_in_parent, d), held
            # f is factored again only at the primes that no verdict covers
            assert not {v.modulus.p for v in held} & set(factored), held

    def test_a_verdict_about_another_polynomial_is_refused(self):
        # seeded cubics and quartics, each with a verdict at p in {2, 3} on a
        # g != f, half of them g = f + p*h with the same factors mod p as f
        rng = random.Random(4207)
        done = 0
        while done < 100:
            n, p = rng.choice([3, 4]), rng.choice([2, 3])
            f = random_monic_zpoly(rng, n, 30)
            if rng.random() < 0.5:
                g = f + ZPoly([p * rng.randrange(-3, 4) for _ in range(n)])
            else:
                g = random_monic_zpoly(rng, n, 30)
            if g == f or has_integer_root(f):
                continue
            held = [dedekind_verdict(f, 5), dedekind_verdict(g, p)]
            message = "^the verdict at %d is about another polynomial$" % p
            with pytest.raises(ValueError, match=message):
                maximal_order(f, verdicts=held)
            done += 1


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


@pytest.fixture(scope="module")
def recorded_orders():
    """Maximal orders whose record the split reads: the paper's fields,
    three high-degree radicals and seeded cubics to sextics."""
    polys = [fixtures.cubic_poly(), fixtures.quartic_poly()]
    polys += [ZPoly.from_text(t) for t in ("t^9 - 54", "t^24 - 54", "t^48 - 243")]
    return [maximal_order(f) for f in polys] + [
        (order, order_discriminant(order))
        for order in seeded_maximal_orders(random.Random(1801), 6)
    ]


class TestMaximalityRecord:
    """maximal_order's orders record their proof, and the split reads it."""

    def test_recorded_orders_pass_the_round2_step(self, recorded_orders):
        # the record is checked, not only trusted: at every p with p^2 | D
        # the ring of multipliers of the p-radical adds nothing
        steps = 0
        for order, d in recorded_orders:
            for p, e in trial_factor(d, 10**6).items():
                if e >= 2:
                    radical = orders.radical_mod_p(orders.frobenius_mod_p(order.table, p), p)
                    assert orders.multipliers_mod_p(order.table, p, radical) == [], p
                    steps += 1
        assert steps == 19

    def test_split_runs_the_step_only_without_the_record(
        self, monkeypatch, recorded_orders
    ):
        calls = _record_round2_calls(monkeypatch)
        for order, d in recorded_orders[2:5]:
            calls.clear()
            result = factor_p_in_order(order, 3)
            assert "multipliers_mod_p" not in calls
            # the same table as a plain Order is equal, but carries no record
            plain = Order(order.table)
            assert plain == order and hash(plain) == hash(order)
            calls.clear()
            assert [(e, f) for _, e, f in factor_p_in_order(plain, 3)] == [
                (e, f) for _, e, f in result
            ]
            assert calls.count("multipliers_mod_p") == 1
        with pytest.raises(ValueError, match="order is not 3-maximal"):
            factor_p_in_order(order_from_polynomial(ZPoly.from_text("t^9 - 54")), 3)


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
        basis = [(2, 0, 0), (0, 1, 0), (0, 0, 2)]
        # only the library builds these lattices, so this is a library bug
        with pytest.raises(AssertionError, match="span is not closed under multiplication"):
            orders._table_on_lattice(POWER_CUBIC.table, basis, 2)


class TestQuarticPaperBasis:
    def test_derived_multiplication_table(self):
        # basis 1, a, (2 - a + a^2 - a^3)/2, a^2 - a: validated by the
        # fundamental number and by lattice equality with the computed
        # maximal order
        rows = [
            (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2)),
            (Fraction(0), Fraction(-1), Fraction(1), Fraction(0)),
        ]
        computed, disc = maximal_order(fixtures.quartic_poly())
        assert disc == fixtures.QUARTIC_FUNDAMENTAL
        assert canonical_rows(rows) == computed.basis_in_parent


def _identity_basis(n):
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n)), 1


def _count_p_maximal_lattice(monkeypatch):
    """Record the prime of every per-prime enlargement step maximal_order makes."""
    primes = []
    real = orders.ore_lattice

    def counting(verdict, *rest):
        primes.append(verdict.modulus.p)
        return real(verdict, *rest)

    monkeypatch.setattr(orders, "ore_lattice", counting)
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

    for name in ("frobenius_mod_p", "radical_mod_p", "multipliers_mod_p"):
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


def _fraction_rows_det(basis):
    rows, d = basis
    return Fraction(fraction_determinant(rows), d ** len(rows))


def _lattice_member(vec, basis):
    basis = fraction_rows(basis)
    v = [Fraction(c) for c in vec]
    n = len(basis)
    for i in range(n - 1, -1, -1):
        q = v[i] / basis[i][i]
        if q.denominator != 1:
            return False
        for j in range(n):
            v[j] -= q * basis[i][j]
    return all(c == 0 for c in v)
