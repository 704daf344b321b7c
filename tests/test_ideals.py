import functools
import itertools
import random
import sys
import time
import types
from fractions import Fraction

import pytest

from conftest import (
    enumerate_primes_above,
    leftmost_pivot_hnf,
    provably_irreducible,
    radical_split_primes_above,
    random_irreducible_cubic,
    random_irreducible_quartic,
    random_monic_zpoly,
    random_power_basis_orders,
    seeded_maximal_orders,
)
from primesplit import fixtures, ideals, orders
from primesplit.criteria import (
    IndexDivisorError,
    SplittingShape,
    assign_prime_functions,
    factor_prime_via_polynomial,
)
from primesplit.fppoly import FpPoly, PrimeModulus, binary_power
from primesplit.ideals import (
    LatticeIdeal,
    _crt_pair,
    bracket_str,
    crt_good_generator,
    factor_p_in_order,
    ideal_from_generators,
    ideal_product,
    principal_ideal,
    whole_order,
)
from primesplit.lattice import hnf, lattice_divmod
from primesplit.orders import (
    Order,
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

# sqrt(-7) + sqrt(17) + sqrt(41): -7, 17 and 41 are 1 mod 8, so 2 splits
# into 8 primes of degree 1 in the compositum
OCTIC_SPLIT_AT_2 = "t^8 - 204*t^6 + 13278*t^4 + 19108*t^2 + 2064969"


class TestHnf:
    @pytest.mark.parametrize(
        "rows, message",
        [([], "no generators given"), ([(1, 0), (0,)], "rows have inconsistent width")],
    )
    def test_input_refusals(self, rows, message):
        with pytest.raises(ValueError, match=message):
            hnf(rows)

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


M5, M7 = PrimeModulus(5), PrimeModulus(7)


def _crt_at_7(*polys):
    return crt_good_generator(SQRT2, factor_p_in_order(SQRT2, M7), list(polys))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: LatticeIdeal(SQRT2.table, ((2, 0), (0, 2))), TypeError, "expected an Order"),
        # entries that are not integers are refused, not truncated
        (
            lambda: LatticeIdeal(SQRT2, [(Fraction(5, 2), 0), (0, 2)]),
            TypeError,
            "'Fraction' object cannot be interpreted as an integer",
        ),
        (
            lambda: LatticeIdeal(SQRT2, [(2.7, 0), (0, 2)]),
            TypeError,
            "'float' object cannot be interpreted as an integer",
        ),
        (
            lambda: _crt_at_7(FpPoly(M7, (0, 1))),
            ValueError,
            "need one prime function per prime ideal",
        ),
        (
            lambda: _crt_at_7(FpPoly(M5, (0, 1)), FpPoly(M5, (1, 1))),
            ValueError,
            "prime functions must share the modulus 7",
        ),
        (
            lambda: _crt_at_7(FpPoly(M7, (1, 0, 1)), FpPoly(M7, (1, 1))),
            ValueError,
            "degree mismatch: prime ideal of degree 1 got",
        ),
    ],
)
def test_input_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestLatticeIdealInvariants:
    def test_rejects_non_canonical_rows(self):
        with pytest.raises(ValueError):
            LatticeIdeal(MAX_CUBIC, ((2, 0, 0), (0, 1, 0), (3, 0, 1)))

    def test_rejects_unclosed_lattice(self):
        # the lattice 2Z + Z*a + Z*b is not an ideal of the maximal cubic
        # order: a*a = 2 + a + 2b lands outside 2Z at the identity spot
        with pytest.raises(ValueError):
            LatticeIdeal(MAX_CUBIC, ((3, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_trusted_rows_stored_as_given(self):
        # canonical tuples from hnf, lattice_rows_mod_p or whole_order are not rebuilt
        rows = hnf([[2, 0, 0], [0, 1, 0], [1, 0, 1]], 3)
        assert LatticeIdeal(MAX_CUBIC, rows, _trusted=True).rows is rows
        unit = whole_order(MAX_CUBIC).rows
        assert unit == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert isinstance(unit, tuple) and all(isinstance(r, tuple) for r in unit)
        # untrusted rows are still normalised to tuples of ints
        assert LatticeIdeal(MAX_CUBIC, [list(r) for r in IDEAL_A.rows]).rows == IDEAL_A.rows

    def test_bracket_rendering(self):
        assert bracket_str(IDEAL_A) == "[2, a, 1+b]"
        assert bracket_str(IDEAL_B) == "[2, 1+a, b]"


class TestIdealProduct:
    def test_six_products(self):
        named = {"a": IDEAL_A, "b": IDEAL_B, "c": IDEAL_C}
        for (x, y), rows in fixtures.CUBIC_SIX_PRODUCTS.items():
            assert ideal_product(named[x], named[y]).rows == rows
        # ca is also the ideal generated by 2 and alpha
        two_alpha = ideal_from_generators(MAX_CUBIC, [(2, 0, 0), (0, 1, 0)])
        assert two_alpha.rows == fixtures.CUBIC_SIX_PRODUCTS["c", "a"]

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

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            ideal_product(IDEAL_A, whole_order(SQRT2))


class TestIdealNorm:
    def test_primes(self):
        assert IDEAL_A.norm() == IDEAL_B.norm() == IDEAL_C.norm() == 2

    def test_principal_2(self):
        two = principal_ideal(MAX_CUBIC, MAX_CUBIC.element((2, 0, 0)))
        assert two.norm() == 8

    def test_whole_order(self):
        assert whole_order(MAX_CUBIC).norm() == 1

    def test_residues_are_canonical_and_number_the_norm(self):
        # each residue is its own canonical residue, one per class
        quartic, _ = maximal_order(fixtures.quartic_poly())
        primes = [IDEAL_A, IDEAL_B, IDEAL_C]
        primes += [ide for ide, _, _ in factor_p_in_order(quartic, 2)]
        primes += [ide for ide, _, _ in factor_p_in_order(SQRT2, 7)]
        assert len(primes) == 7
        for ide in primes:
            residues = list(ide.residues())
            assert len(residues) == ide.norm()
            assert residues == sorted(set(residues))
            for r in residues:
                assert lattice_divmod(ide.rows, r)[1] == r

    def test_multiplicative_on_fixture_set(self):
        ideals = [IDEAL_A, IDEAL_B, IDEAL_C]
        for x, y in itertools.product(ideals, repeat=2):
            assert ideal_product(x, y).norm() == x.norm() * y.norm()

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
            assert ideal_product(ix, iy).norm() == ix.norm() * iy.norm()
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


# (order, p, g, Round 2 steps): D = -503, 8 and 2^8 * 3^16.  The nonic
# from maximal_order carries its proof, so only its table rebuilt as a
# plain Order takes the Round 2 step
NONIC = maximal_order(ZPoly.from_text("t^9 - 54"))[0]
GATE_CASES = (
    (MAX_CUBIC, 2, 3, []),
    (MAX_CUBIC, 503, 2, []),
    (SQRT2, 5, 1, []),
    (NONIC, 3, 1, []),
    (Order(NONIC.table), 3, 1, [3]),
)


def _record_split(monkeypatch, order, p):
    """factor_p_in_order(order, p) with a record of the work it did.

    Returns (result, called, hnf_inputs, round2): the (name, checking)
    pair of every Python function called, checking being True once the
    product check's first hnf has started; the rows given to each hnf;
    and the prime of each Round 2 step.
    """
    called, hnf_inputs, round2 = [], [], []
    real_multipliers = orders.multipliers_mod_p

    def recording_hnf(rows, n=None):
        hnf_inputs.append([tuple(r) for r in rows])
        return hnf(rows, n)

    def recording_multipliers(table, q, radical):
        round2.append(q)
        return real_multipliers(table, q, radical)

    def profile(frame, event, arg):
        if event == "call":
            called.append((frame.f_code.co_name, bool(hnf_inputs)))

    monkeypatch.setattr(ideals, "hnf", recording_hnf)
    monkeypatch.setattr(orders, "multipliers_mod_p", recording_multipliers)
    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = factor_p_in_order(order, p)
    finally:
        sys.setprofile(outer)
        monkeypatch.undo()
    return result, called, hnf_inputs, round2


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
        power = order_from_polynomial(fixtures.cubic_poly())
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
        # the check starts from one P^e, and each hnf multiplies the running
        # product T, given as p*T and alpha*T, by a P^e not used before;
        # no P^e is the whole order, and the last product is p*order
        for order, p, g, _ in GATE_CASES:
            result, _, hnf_inputs, _ = _record_split(monkeypatch, order, p)
            n = order.n
            powers = [functools.reduce(ideal_product, [ide] * e) for ide, e, _ in result]
            assert whole_order(order) not in powers
            total = None
            for rows in hnf_inputs:
                assert all(c % p == 0 for r in rows[:n] for c in r)
                running = LatticeIdeal(order, [[c // p for c in r] for r in rows[:n]])
                if total is None:
                    powers.remove(running)
                assert total in (None, running)
                total = LatticeIdeal(order, hnf(rows, n))
                factors = [q for q in powers if ideal_product(running, q) == total]
                assert len(factors) == 1
                powers.remove(factors[0])
            assert len(hnf_inputs) == g - 1
            assert g == 1 or (not powers and total == principal_ideal(order, order.identity() * p))

    def test_work_gate(self, monkeypatch):
        # the primes come from idempotents, so no characteristic polynomial
        # is built or factored; alpha's multiplication matrix is the one
        # ring product per prime (none at g = 1, where alpha = 0), and the
        # product check multiplies by no other ring element: its products
        # are the n rows alpha*T of each hnf input
        for order, p, g, _ in GATE_CASES:
            result, called, hnf_inputs, _ = _record_split(monkeypatch, order, p)
            assert len(result) == g
            names = {name for name, _ in called}
            assert not names & {"char_poly", "charpoly_matrix", "fp_factor"}, names
            assert [name for name, _ in called].count("mul_matrix") == (g if g > 1 else 0)
            after = {name for name, checking in called if checking}
            assert not after & {"_vec_mul", "vec_mul", "mul_matrix", "_mul_matrix"}
            n = order.n
            assert sum(len(rows) - n for rows in hnf_inputs) <= (g - 1) * n

    def test_discriminant_proof_replaces_the_maximality_check(self, monkeypatch):
        # v_p(disc) < 2 proves p-maximality, and so does maximal_order's
        # record; otherwise the Round 2 step runs
        power = order_from_polynomial(fixtures.cubic_poly())
        calls = []
        real = orders.multipliers_mod_p

        def recording(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(orders, "multipliers_mod_p", recording)
        # D = -503
        assert [(ide.rows, e, f) for ide, e, f in factor_p_in_order(MAX_CUBIC, 2)] == [
            (fixtures.CUBIC_PRIMES_ABOVE_2[name], 1, 1) for name in "cab"
        ]
        assert calls == []
        # Z[t] has discriminant -2012 = -2^2 * 503, which proves nothing
        with pytest.raises(ValueError, match="not 2-maximal"):
            factor_p_in_order(power, 2)
        assert calls == [2]
        calls.clear()
        # D = 2^8 * 3^16: the plain Order on the nonic's table takes the step
        assert order_discriminant(NONIC) == 2**8 * 3**16
        assert [(e, f) for _, e, f in factor_p_in_order(NONIC, 3)] == [(9, 1)]
        assert calls == []
        assert [(e, f) for _, e, f in factor_p_in_order(Order(NONIC.table), 3)] == [(9, 1)]
        assert calls == [3]

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

    def test_matches_radical_split_oracle(self):
        fields = seeded_maximal_orders(random.Random(1801), 12)
        ramified = inert = below_rank = 0
        for order in fields:
            for p in (2, 3, 5, 7, 11, 13):
                primes = factor_p_in_order(order, p)
                for ideal, e, f in primes:
                    assert ideal.norm() == p**f
                    power = functools.reduce(ideal_product, [ideal] * e)
                    assert power.norm() == p ** (e * f)
                result = [(ide.rows, e, f) for ide, e, f in primes]
                expected = radical_split_primes_above(order, p)
                assert result == [(ide.rows, e, f) for ide, e, f in expected], (
                    order.table,
                    p,
                )
                ramified += any(e >= 2 for _, e, _ in result)
                inert += any(f >= 2 for _, _, f in result)
                below_rank += p < order.n
        assert ramified >= 40 and inert >= 200 and below_rank >= 90

    def test_both_cutting_branches_match_radical_split_oracle(self):
        # every p cuts the split subalgebra by powers of random elements
        # (the elements themselves at p = 2); several primes make several cuts
        fields = seeded_maximal_orders(random.Random(3301), 12)
        small = (2, 3, 5)
        large = (2**31 - 1, 2**61 - 1, 2**80 - 65)
        several = {small: 0, large: 0}
        # fields come in degree order, so fields[::3] keeps 4 of each degree
        for primes, orders_ in ((small, fields), (large, fields[::3])):
            for order in orders_:
                for p in primes:
                    result = [(ide.rows, e, f) for ide, e, f in factor_p_in_order(order, p)]
                    expected = radical_split_primes_above(order, p)
                    assert result == [(ide.rows, e, f) for ide, e, f in expected], (
                        order.table,
                        p,
                    )
                    several[primes] += len(result) >= 3
        assert several[small] >= 20 and several[large] >= 10
        # 8 primes above 2 take several draws
        octic, _ = maximal_order(ZPoly.from_text(OCTIC_SPLIT_AT_2))
        result = [(ide.rows, e, f) for ide, e, f in factor_p_in_order(octic, 2)]
        expected = radical_split_primes_above(octic, 2)
        assert result == [(ide.rows, e, f) for ide, e, f in expected]
        assert len(result) == 8

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_rank_one_and_gaussian_orders(self, p):
        rank_one = Order([[(1,)]])
        assert [(ide.rows, e, f) for ide, e, f in factor_p_in_order(rank_one, p)] == [
            (((p,),), 1, 1)
        ]
        gaussian = order_from_polynomial(ZPoly.from_text("t^2 + 1"))
        result = [(ide.rows, e, f) for ide, e, f in factor_p_in_order(gaussian, p)]
        expected = radical_split_primes_above(gaussian, p)
        assert result == [(ide.rows, e, f) for ide, e, f in expected]
        # 2 ramifies, 3 is inert and 5 = (2 + i)(2 - i) splits
        assert [(e, f) for _, e, f in result] == {2: [(2, 1)], 3: [(1, 2)], 5: [(1, 1)] * 2}[p]

    def test_idempotent_draws_change_no_prime(self, monkeypatch):
        # idempotents are unique, so the seed of the draws changes only the
        # run time, at p = 2 as at odd p
        cases = [
            (maximal_order(ZPoly.from_text("t^12 - 54"))[0], 97),
            (maximal_order(ZPoly.from_text(OCTIC_SPLIT_AT_2))[0], 2),
        ]
        fields = seeded_maximal_orders(random.Random(3301), 2)
        for order in fields:
            cases += [(order, p) for p in (3, 7, 2**31 - 1)]
        cases += [(order, 2) for order in fields if len(factor_p_in_order(order, 2)) >= 3]
        expected = [factor_p_in_order(order, p) for order, p in cases]
        assert sum(len(primes) >= 3 for primes in expected) >= 5
        at_2 = [len(primes) for (_, p), primes in zip(cases, expected) if p == 2]
        assert len(at_2) >= 3 and min(at_2) >= 3 and max(at_2) == 8
        for seed in range(1, 21):
            drawn = []

            def seeded(_, seed=seed):
                drawn.append(seed)
                return random.Random(seed)

            monkeypatch.setattr(ideals, "random", types.SimpleNamespace(Random=seeded))
            assert [factor_p_in_order(order, p) for order, p in cases] == expected, seed
            monkeypatch.undo()
            assert drawn == [seed] * sum(len(primes) > 1 for primes in expected)

    @pytest.mark.parametrize("c", [54, 243])
    def test_matches_radical_split_oracle_at_high_degree(self, c):
        # p^n is far beyond enumerate_primes_above at these degrees
        for n in (8, 12, 16, 24):
            order, _ = maximal_order(ZPoly.from_text("t^%d - %d" % (n, c)))
            result = [(ide.rows, e, f) for ide, e, f in factor_p_in_order(order, 3)]
            expected = radical_split_primes_above(order, 3)
            assert result == [(ide.rows, e, f) for ide, e, f in expected], n
            assert any(e >= 2 for _, e, _ in result)

    def test_one_product_per_extra_prime_and_no_maximality_check(self, monkeypatch):
        # g - 1 steps of 2n rows each, and the Round 2 step only where
        # v_p(disc) >= 2
        for order, p, g, steps in GATE_CASES:
            result, _, hnf_inputs, round2 = _record_split(monkeypatch, order, p)
            assert len(result) == g
            assert [len(rows) for rows in hnf_inputs] == [2 * order.n] * (g - 1)
            assert round2 == steps, (order.n, p)

    def test_high_degree_time_bound(self):
        order, _ = maximal_order(ZPoly.from_text("t^32 - 54"))
        # CPU time of this process, so other processes' load does not count
        start = time.process_time()
        result = factor_p_in_order(order, 3)
        assert time.process_time() - start < 0.25
        assert sum(e * f for _, e, f in result) == 32

    def test_large_index_divisors_time_bound(self):
        # p^n = 19683 and 117649: the cost must not depend on p^n
        for poly, p, disc in (("t^9 - 54", 3, 11019960576), ("t^6 + 343", 7, -3087)):
            order, d = maximal_order(ZPoly.from_text(poly))
            assert d == disc
            start = time.process_time()
            result = factor_p_in_order(order, p)
            assert time.process_time() - start < 2.0, poly
            assert any(e > 1 for _, e, _ in result) == (disc % p == 0)
            assert sum(e * f for _, e, f in result) == order.n

    def test_large_prime_time_bound(self):
        # the cost must depend on the bit length of p, not on p (the norm
        # p^f of each prime is recognised as a prime power in valuations)
        p = 2**31 - 1
        start = time.process_time()
        result = factor_p_in_order(MAX_CUBIC, p)
        assert time.process_time() - start < 2.0
        shape, _ = factor_prime_via_polynomial(fixtures.cubic_poly(), PrimeModulus(p))
        assert sorted((f, e) for _, e, f in result) == sorted(shape.parts)


class TestContainmentIsDivisibility:
    def test_divisor_lattice_of_8(self):
        named = {"a": IDEAL_A, "b": IDEAL_B, "c": IDEAL_C}
        one = whole_order(MAX_CUBIC)
        ideals = {}
        for i, j, k in itertools.product(range(4), repeat=3):
            ide = one
            for letter, count in (("a", i), ("b", j), ("c", k)):
                power = binary_power(named[letter], count, ideal_product, one)
                ide = ideal_product(ide, power)
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
                shape, _ = factor_prime_via_polynomial(f, p)
            except IndexDivisorError:
                continue
            order = p_enlarge(order_from_polynomial(f), p)
            via_ideals = factor_p_in_order(order, p)
            assert sorted((fx, e) for _, e, fx in via_ideals) == sorted(shape.parts)
            done += 1

    def test_routes_agree_at_64_and_80_bit_primes(self):
        # small coefficients keep p off the index, so both routes answer
        rng = random.Random(89)
        shapes = set()
        for n in (3, 4, 5):
            done = 0
            while done < 6:
                f = random_monic_zpoly(rng, n, 9)
                disc = discriminant(f)
                if not (f.coeffs[0] and disc and provably_irreducible(f, disc)):
                    continue
                order, d = maximal_order(f)
                for p in (PrimeModulus(2**64 - 59), PrimeModulus(2**80 - 65)):
                    assert (disc // d) % p.p  # disc f / D is the index squared
                    shape, _ = factor_prime_via_polynomial(f, p)
                    via_ideals = factor_p_in_order(order, p)
                    parts = sorted((fx, e) for _, e, fx in via_ideals)
                    assert parts == sorted(shape.parts), (f, p)
                    shapes.add(tuple(parts))
                done += 1
        assert len(shapes) > 3


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
            SQRT2, primes, [FpPoly(m7, (0, 1)), FpPoly(m7, (-1, 1))]
        )
        assert theta.coords == (25, 27)
        assert char_poly(theta) == ZPoly.from_text("t^2 - 50*t - 833")
        assert element_index(SQRT2, theta) == 27

    def test_congruences_hold(self):
        m7 = PrimeModulus(7)
        primes = factor_p_in_order(SQRT2, m7)
        theta = crt_good_generator(
            SQRT2, primes, [FpPoly(m7, (0, 1)), FpPoly(m7, (-1, 1))]
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
                primes,
                [FpPoly(m2, (0, 1)), FpPoly(m2, (1, 1)), FpPoly(m2, (0, 1))],
            )

    def test_degree_mismatch(self):
        m7 = PrimeModulus(7)
        primes = factor_p_in_order(SQRT2, m7)
        with pytest.raises(ValueError):
            crt_good_generator(
                SQRT2, primes, [FpPoly(m7, (1, 1, 1)), FpPoly(m7, (0, 1))]
            )

    def test_inert_single_prime(self):
        # 5 is inert in Z[sqrt 2]: one prime with e=1, f=2=n; the minimal
        # polynomial of sqrt 2 itself works as the prime function
        m5 = PrimeModulus(5)
        primes = factor_p_in_order(SQRT2, m5)
        poly = reduce_mod(ZPoly.from_text("t^2 - 2"), m5)
        theta = crt_good_generator(SQRT2, primes, [poly])
        assert element_index(SQRT2, theta) % 5 != 0
        assert reduce_mod(char_poly(theta), m5) == poly

    def test_ramified_prime_square_avoidance(self):
        # 2 ramifies in Z[sqrt 2]: the root of t must avoid the ideal square
        m2 = PrimeModulus(2)
        primes = factor_p_in_order(SQRT2, m2)
        theta = crt_good_generator(SQRT2, primes, [FpPoly(m2, (0, 1))])
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
            polys = assign_prime_functions(shape)
            theta = crt_good_generator(order, primes, polys)
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
