import itertools
import operator
import random
import time
import types

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    euclid_gcd,
    powering_fp_factor,
    powering_is_irreducible,
    random_fp_poly,
    schoolbook_mul,
    schoolbook_mulmod,
    schoolbook_powmod,
    seeded_fp_factor,
)
from primesplit import fixtures, fppoly
from primesplit.fppoly import (
    FpPoly,
    PrimeModulus,
    ResidueRing,
    _frobenius,
    _frobenius_rows,
    _x_to_the_p,
    binary_power,
    count_monic_irreducibles,
    enumerate_monic_irreducibles,
    fp_factor,
    fp_gcd,
    fp_is_irreducible,
    fp_one,
    fp_x,
)
from primesplit.integers import PRIMALITY_BOUND, is_prime
from primesplit.lattice import unit
from primesplit.orders import OrderElement, frobenius_mod_p
from primesplit.zpoly import ZPoly

M2 = PrimeModulus(2)
M7 = PrimeModulus(7)
ORACLE_PRIMES = (2, 3, 5, 7, 65537, 2**31 - 1, 2**64 - 59, 2**80 - 65)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PrimeModulus("7"), TypeError, "modulus must be an int"),
        (
            lambda: FpPoly(PrimeModulus(7), ()).monic(),
            ValueError,
            "cannot normalize the zero polynomial",
        ),
        # a generator refuses on its first item
        (
            lambda: next(enumerate_monic_irreducibles(3, 0)),
            ValueError,
            "degree must be >= 1",
        ),
    ],
)
def test_input_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestPrimeModulus:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 503, 2**31 - 1):
            assert PrimeModulus(p).p == p

    def test_rejects_composites(self):
        # 1373653 and 25326001 are strong pseudoprimes to the first few bases
        for n in (0, 1, 4, 9, 561, 1373653, 25326001):
            with pytest.raises(ValueError):
                PrimeModulus(n)

    def test_rejects_out_of_range(self):
        # every prime is_prime decides is a modulus; a number above
        # PRIMALITY_BOUND is refused with a message naming the bound
        for p in (2**31 + 11, 2**64 - 59, 2**80 - 65):
            assert PrimeModulus(p).p == p
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            PrimeModulus(3317044064679887385961993)

    def test_is_prime_small(self):
        sieve = [True] * 2000
        sieve[0] = sieve[1] = False
        for i in range(2, 2000):
            if sieve[i]:
                for j in range(2 * i, 2000, i):
                    sieve[j] = False
        for n in range(2000):
            assert is_prime(n) == sieve[n]

    def test_is_prime_bases_by_size(self):
        # the least strong pseudoprimes to the bases up to 7, 23 and 37
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)
        for n in (2**31 - 1, 2**61 - 1, 3215031749, 2**79 - 67):
            assert is_prime(n)
        assert not is_prime((2**31 - 1) * 3215031749)
        assert not is_prime(PRIMALITY_BOUND - 1)

    def test_is_prime_raises_above_its_bound(self):
        for n in (PRIMALITY_BOUND, 2**89 - 1):
            with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
                is_prime(n)


class TestArithmetic:
    def test_mul_example(self):
        t = FpPoly(M2, (0, 1))
        assert t * FpPoly(M2, (1, 1)) == FpPoly(M2, (0, 1, 1))

    def test_divrem_example(self):
        f = FpPoly.from_text(M2, "t^3 - t^2 - 2*t - 8")
        q, r = divmod(f, FpPoly(M2, (0, 0, 1)))
        assert q == FpPoly(M2, (1, 1))
        assert r.is_zero()

    def test_add_characteristic_two(self):
        g = FpPoly(M2, (1, 1))
        assert (g + g).is_zero()

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            FpPoly(M2, (1,)) + FpPoly(M7, (1,))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(FpPoly(M2, (1, 1)), FpPoly(M2, ()))

    def test_canonical_form(self):
        f = FpPoly(M7, (9, 14, 7))
        assert f.coeffs == (2,)
        assert FpPoly(M7, ()).degree is None

    def test_divmod_identity(self):
        rng = random.Random(3)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7])
            mp = PrimeModulus(p)
            a = random_fp_poly(rng, mp, 6)
            b = random_fp_poly(rng, mp, 4)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree

    def test_mul_matches_schoolbook(self):
        rng = random.Random(4)
        for p in ORACLE_PRIMES:
            mp = PrimeModulus(p)
            top = FpPoly(mp, [p - 1] * 40)
            for _ in range(30):
                a = random_fp_poly(rng, mp, 40)
                b = random_fp_poly(rng, mp, 40)
                assert a * b == schoolbook_mul(a, b)
                assert a * top == schoolbook_mul(a, top)
            assert top * top == schoolbook_mul(top, top)
            assert (top * FpPoly(mp, ())).is_zero()


def _exact(value, e):
    return value


def _powering_sites():
    """(name, power(base, e), base, mul, one, reduce) for every caller of binary_power.

    power(base, e) must equal reduce(naive, e), naive the product of e
    copies of base by mul.
    """
    mod = FpPoly(M7, (2, 0, 1, 1))
    ring = ResidueRing(mod)
    order = fixtures.maximal_cubic_order()
    return [
        (
            "int",
            lambda b, e: binary_power(b, e, operator.mul, 1),
            3,
            operator.mul,
            1,
            _exact,
        ),
        (
            "FpPoly",
            operator.pow,
            FpPoly(M7, (3, 1, 5)),
            schoolbook_mul,
            fp_one(M7),
            _exact,
        ),
        (
            "ResidueRing.power",
            lambda b, e: ring.poly(ring.power(ring.element(b), e)),
            FpPoly(M7, (3, 1, 5, 6, 2)),
            lambda a, b: schoolbook_mulmod(a, b, mod),
            fp_one(M7),
            _exact,
        ),
        ("ZPoly", operator.pow, ZPoly((2, -1, 1)), operator.mul, ZPoly((1,)), _exact),
        (
            "OrderElement",
            operator.pow,
            OrderElement(order, (1, 1, -1)),
            operator.mul,
            order.identity(),
            _exact,
        ),
        (
            # row i of the matrix mod e is basis_i^e, reduced mod e when e > 1
            # (e = 0 and e = 1 return the identity and the unit untouched)
            "frobenius_mod_p",
            lambda u, e: tuple(frobenius_mod_p(order.table, e)[u.index(1)]),
            unit(3, 2),
            order.vec_mul,
            unit(3, 0),
            lambda value, e: tuple(c % e for c in value) if e > 1 else value,
        ),
    ]


class TestBinaryPower:
    @pytest.mark.parametrize(
        "site", _powering_sites(), ids=lambda site: site[0]
    )
    def test_matches_repeated_products(self, site):
        _, power, base, mul, one, reduce = site
        naive = one
        for e in range(131):
            assert power(base, e) == reduce(naive, e), e
            naive = mul(naive, base)
        with pytest.raises(ValueError, match="negative exponent"):
            power(base, -1)

    def test_product_count(self):
        calls = []

        def counting(a, b):
            calls.append(1)
            return a * b

        assert binary_power(2, 0, counting, 1) == 1 and not calls
        for e in range(1, 131):
            del calls[:]
            assert binary_power(2, e, counting, 1) == 2**e
            assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1


class TestGcd:
    def test_gcd_example(self):
        a = FpPoly(M2, (0, 1, 1))  # t^2 + t
        b = FpPoly(M2, (1, 0, 1))  # t^2 + 1
        assert fp_gcd(a, b) == FpPoly(M2, (1, 1))

    def test_gcd_with_zero(self):
        f = FpPoly(M7, (3, 0, 6))
        assert fp_gcd(f, FpPoly(M7, ())) == f.monic()

    def test_matches_euclid_oracle(self):
        rng = random.Random(13)
        for p in ORACLE_PRIMES:
            mp = PrimeModulus(p)
            for _ in range(40):
                c = random_fp_poly(rng, mp, 6)
                a = random_fp_poly(rng, mp, 20) * c
                b = random_fp_poly(rng, mp, 20) * c
                assert fp_gcd(a, b) == euclid_gcd(a, b)
                assert fp_gcd(b, FpPoly(mp, ())) == euclid_gcd(b, FpPoly(mp, ()))

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            fp_gcd(FpPoly(M2, ()), FpPoly(M2, ()))


class TestFactor:
    def test_cubic_mod_2(self):
        f = FpPoly.from_text(M2, "t^3 - t^2 - 2*t - 8")
        assert fp_factor(f) == [
            (FpPoly(M2, (0, 1)), 2),
            (FpPoly(M2, (1, 1)), 1),
        ]

    def test_quadratic_mod_7(self):
        f = FpPoly.from_text(M7, "t^2 - 50*t - 833")
        assert fp_factor(f) == [
            (FpPoly(M7, (0, 1)), 1),
            (FpPoly(M7, (6, 1)), 1),
        ]

    def test_irreducible_quadratic_mod_2(self):
        f = FpPoly(M2, (1, 1, 1))
        assert fp_factor(f) == [(f, 1)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fp_factor(FpPoly(M2, ()))

    def test_round_trip_random(self):
        rng = random.Random(42)
        for trial in range(250):
            p = rng.choice([2, 3, 5, 7])
            mp = PrimeModulus(p)
            f = random_fp_poly(rng, mp, 8)
            prod = FpPoly(mp, (f.coeffs[-1],))
            for g, e in seeded_fp_factor(f, trial):
                assert fp_is_irreducible(g)
                assert g.is_monic()
                prod = prod * g**e
            assert prod == f

    def test_factors_pairwise_distinct_and_sorted(self):
        rng = random.Random(5)
        for trial in range(100):
            p = rng.choice([2, 3, 5])
            mp = PrimeModulus(p)
            f = random_fp_poly(rng, mp, 7)
            if f.degree == 0:
                continue
            fac = seeded_fp_factor(f, trial)
            keys = [g.sort_key() for g, _ in fac]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_draws_change_no_factor(self, monkeypatch):
        # equal-degree splitting through the trace map (t^6 + ... + 1 at 2,
        # d = 3) and through the Frobenius rows (t^4 + 1 at 3, d = 2); each
        # seed must draw, so the equal lists are not vacuous
        cases = [FpPoly(M2, (1,) * 7), FpPoly(PrimeModulus(3), (1, 0, 0, 0, 1))]
        expected = [fp_factor(f) for f in cases]
        assert [[(g.degree, e) for g, e in fac] for fac in expected] == [
            [(3, 1), (3, 1)],
            [(2, 1), (2, 1)],
        ]
        draws = []

        class Counting(random.Random):
            def randrange(self, *args):
                draws.append(args)
                return super().randrange(*args)

        for seed in range(1, 21):
            monkeypatch.setattr(
                fppoly, "random", types.SimpleNamespace(Random=lambda _: Counting(seed))
            )
            for f, fac in zip(cases, expected):
                draws.clear()
                assert fp_factor(f) == fac, (seed, f)
                assert draws, (seed, f)


def _product(mp, factors, lc=1):
    out = FpPoly(mp, (lc,))
    for g in factors:
        out = out * g
    return out


def _random_monic(rng, mp, degree):
    return FpPoly(mp, [rng.randrange(mp.p) for _ in range(degree)] + [1])


def _distinct_irreducibles(rng, mp, degree, count):
    """`count` distinct monic irreducibles of one degree, accepted by the oracle."""
    count = min(count, count_monic_irreducibles(mp, degree))
    found = set()
    while len(found) < count:
        g = _random_monic(rng, mp, degree)
        if powering_is_irreducible(g):
            found.add(g)
    return sorted(found, key=FpPoly.sort_key)


def _oracle_cases(rng, mp):
    """Seeded polynomials of degree 1-40 over GF(p), by kind."""
    p = mp.p
    lc = rng.randrange(1, p)
    for _ in range(4):
        yield "random", _product(mp, [_random_monic(rng, mp, rng.randrange(1, 41))], lc)
    g = _random_monic(rng, mp, rng.randrange(1, 6))
    h = _random_monic(rng, mp, rng.randrange(0, 11))
    yield "repeated", _product(mp, [g] * rng.randrange(2, 5) + [h], lc)
    if 2 * p <= 40:
        # f = g(x**p) has f' = 0: the p-th root path
        inner = [rng.randrange(p) for _ in range(rng.randrange(1, 40 // p))] + [1]
        coeffs = [0] * ((len(inner) - 1) * p + 1)
        coeffs[::p] = inner
        yield "pth power", FpPoly(mp, coeffs)
    # distinct irreducibles of degrees 1 and 2: a divisor of x**(p**2) - x
    small = _distinct_irreducibles(rng, mp, 1, 6) + _distinct_irreducibles(rng, mp, 2, 6)
    yield "equal degree", _product(mp, small, lc)
    d = rng.randrange(3, 6)
    yield "equal degree", _product(mp, _distinct_irreducibles(rng, mp, d, 30 // d), lc)


def _kernel_moduli(rng, mp, degrees=range(1, 65)):
    """(f, top, half, a) for each degree n: f a seeded monic, or the monic
    whose other coefficients are all p - 1; top all p - 1; half like top
    but with leading coefficient (p - 1)/2; a random.

    top * half fills the low slots of the product almost to n * (p - 1)**2
    while its high slots are about p/2 mod p, so with a seeded f its
    reduction comes near the (2n - 1) * (p - 1)**2 the slot width allows.
    """
    p = mp.p
    for n in degrees:
        top = FpPoly(mp, [p - 1] * n)
        half = FpPoly(mp, [p - 1] * (n - 1) + [(p - 1) // 2])
        for f in (_random_monic(rng, mp, n), FpPoly(mp, [p - 1] * n + [1])):
            yield f, top, half, FpPoly(mp, [rng.randrange(p) for _ in range(n)])


# the powering checks cost about lg p schoolbook products each
SAMPLED_DEGREES = (1, 2, 3, 5, 16, 31, 64)


class TestResidueRing:
    def test_product_matches_schoolbook(self):
        rng = random.Random(37)
        for p in ORACLE_PRIMES:
            mp = PrimeModulus(p)
            for f, top, half, a in _kernel_moduli(rng, mp):
                ring = ResidueRing(f)
                for u, v in ((top, top), (top, half), (top, a), (a, a)):
                    product = ring.mul(ring.element(u), ring.element(v))
                    assert ring.poly(product) == schoolbook_mulmod(u, v, f), (p, f)
                    assert ring.pack(ring.unpack(product)) == product

    def test_powmod_matches_repeated_products(self):
        rng = random.Random(41)
        for p in ORACLE_PRIMES:
            mp = PrimeModulus(p)
            for f, top, _, a in _kernel_moduli(rng, mp, SAMPLED_DEGREES):
                ring = ResidueRing(f)
                for base in (top, a, top * a + f):  # the last needs reducing mod f
                    packed = ring.element(base)
                    naive = fp_one(mp) % f
                    for e in range(6):
                        assert ring.poly(ring.power(packed, e)) == naive, (p, f, e)
                        naive = schoolbook_mulmod(naive, base, f)
                e = rng.randrange(p, 2 * p)
                power = ring.poly(ring.power(ring.element(a), e))
                assert power == schoolbook_powmod(a, e, f)

    def test_edge_cases(self):
        for p in ORACLE_PRIMES:
            mp = PrimeModulus(p)
            for f in (FpPoly(mp, (p - 1, 1)), FpPoly(mp, (p - 1, p - 1, 1))):
                ring = ResidueRing(f)
                for base in (FpPoly(mp, ()), f, f * FpPoly(mp, (3,))):  # base = 0 mod f
                    zero = ring.element(base)
                    assert zero == 0
                    assert ring.poly(ring.power(zero, 0)) == fp_one(mp)
                    assert ring.power(zero, 1) == ring.power(zero, p) == 0
                x = fp_x(mp)
                assert ring.poly(ring.power(ring.element(x), 1)) == x % f
                assert ring.power(ring.element(x), 0) == ring.pack([1])

    def test_rejects_bad_moduli(self):
        for f in (FpPoly(M7, ()), FpPoly(M7, (3,)), FpPoly(M7, (1, 2))):
            with pytest.raises(ValueError, match="monic modulus of degree >= 1"):
                ResidueRing(f)
        with pytest.raises(ValueError, match="modulus mismatch"):
            ResidueRing(FpPoly(M7, (1, 1, 1))).element(FpPoly(M2, (1, 1)))

    def test_frobenius_matches_schoolbook(self):
        rng = random.Random(43)
        for p in ORACLE_PRIMES:
            mp = PrimeModulus(p)
            for f, top, _, a in _kernel_moduli(rng, mp, SAMPLED_DEGREES):
                ring = ResidueRing(f)
                rows = [ring.poly(row) for row in _frobenius_rows(ring, _x_to_the_p(ring))]
                assert len(rows) == f.degree
                assert rows[0] == fp_one(mp)
                if f.degree > 1:
                    assert rows[1] == schoolbook_powmod(fp_x(mp), p, f)
                for i in range(2, f.degree):
                    assert rows[i] == schoolbook_mulmod(rows[i - 1], rows[1], f)
                packed = [ring.element(row) for row in rows]
                frob = FpPoly(mp, _frobenius(ring, packed, top.coeffs))
                assert frob == schoolbook_powmod(top, p, f), (p, f)


class TestFrobenius:
    def test_rows_are_pth_powers_of_x(self):
        rng = random.Random(29)
        for p in ORACLE_PRIMES:
            mp = PrimeModulus(p)
            for _ in range(3):
                f = _random_monic(rng, mp, rng.randrange(1, 13))
                ring = ResidueRing(f)
                rows = _frobenius_rows(ring, _x_to_the_p(ring))
                assert len(rows) == f.degree
                for i, row in enumerate(rows):
                    assert ring.poly(row) == schoolbook_powmod(fp_x(mp), i * p, f)
                r = FpPoly(mp, [rng.randrange(p) for _ in range(f.degree)])
                assert FpPoly(mp, _frobenius(ring, rows, r.coeffs)) == schoolbook_powmod(
                    r, p, f
                )

    def test_matches_powering_oracle(self):
        rng = random.Random(31)
        kinds, shapes = set(), set()
        for p in ORACLE_PRIMES:
            mp = PrimeModulus(p)
            for trial, (kind, f) in enumerate(_oracle_cases(rng, mp)):
                assert 1 <= f.degree <= 40
                fac = seeded_fp_factor(f, trial)
                assert fac == powering_fp_factor(f, seed=trial), (p, kind, f)
                kinds.add(kind)
                shapes.add(len(fac) == 1 and fac[0][1] == 1)
        assert kinds == {"random", "repeated", "pth power", "equal degree"}
        assert shapes == {True, False}

    def test_one_powering_by_p_per_factorization(self, monkeypatch):
        p = 2**31 - 1
        f = _random_monic(random.Random(12), PrimeModulus(p), 12)
        assert fp_gcd(f, f.derivative()).is_one()
        exponents = []
        real = ResidueRing.power

        def counting(ring, a, e):
            exponents.append(e)
            return real(ring, a, e)

        monkeypatch.setattr(ResidueRing, "power", counting)
        fac = fp_factor(f)
        assert len(fac) > 1
        assert exponents.count(p) == 1
        assert set(exponents) <= {p, (p - 1) // 2}

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(
        p=st.sampled_from(ORACLE_PRIMES),
        coeffs=st.lists(st.integers(0, 2**80 - 66), min_size=1, max_size=20),
        repeated=st.lists(st.integers(0, 2**80 - 66), max_size=4),
        seed=st.integers(0, 9),
    )
    def test_factorization_properties(self, p, coeffs, repeated, seed):
        mp = PrimeModulus(p)
        square = FpPoly(mp, repeated + [1]) ** 2
        f = FpPoly(mp, coeffs) * square
        assume(f.degree is not None and f.degree >= 1)
        fac = seeded_fp_factor(f, seed)
        prod = FpPoly(mp, (f.coeffs[-1],))
        for g, e in fac:
            assert g.is_monic() and fp_is_irreducible(g)
            prod = prod * g**e
        assert prod == f
        keys = [g.sort_key() for g, _ in fac]
        assert keys == sorted(set(keys))

    def test_degree_100_time_bound(self):
        # one powering per degree step took about 3-7 s here
        p = 2**31 - 1
        f = _random_monic(random.Random(100), PrimeModulus(p), 100)
        start = time.process_time()
        fac = fp_factor(f)
        assert time.process_time() - start < 1.5
        assert sum(g.degree * e for g, e in fac) == 100

    def test_degree_100_at_80_bits(self):
        # products size their slots from bitlen(p), so an 80-bit prime
        # costs a small multiple of a 31-bit one
        mp = PrimeModulus(2**80 - 65)
        f = _random_monic(random.Random(100), mp, 100)
        start = time.process_time()
        fac = fp_factor(f)
        assert time.process_time() - start < 1.0
        prod = fp_one(mp)
        for g, e in fac:
            prod = prod * g**e
        assert prod == f

    def test_degree_100_kernel_time_bound(self):
        # schoolbook products mod f took 0.6-0.75 s here
        p = 2**31 - 1
        f = _random_monic(random.Random(100), PrimeModulus(p), 100)
        # CPU time of this process, so other processes' load does not count
        start = time.process_time()
        fac = fp_factor(f)
        assert time.process_time() - start < 0.4
        assert sum(g.degree * e for g, e in fac) == 100


class TestSquarefreeDecomposition:
    """fp_factor splits each part A_m of f = prod A_m**m once."""

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(
        p=st.sampled_from((2, 3, 5, 7, 13)),
        factors=st.lists(
            st.tuples(st.lists(st.integers(0, 12), min_size=1, max_size=2), st.integers(0, 26)),
            min_size=1,
            max_size=3,
        ),
        pure=st.booleans(),
        lc=st.integers(0, 11),
        seed=st.integers(0, 9),
    )
    def test_matches_powering_oracle(self, p, factors, pure, lc, seed):
        # multiplicities up to 2p + 1; with `pure`, f is a p-th power
        # whose multiplicities are p or 2p
        mp = PrimeModulus(p)
        f = FpPoly(mp, (1 + lc % (p - 1),))
        for low, m in factors:
            m = p * (1 + m % 2) if pure else 1 + m % (2 * p + 1)
            f = f * FpPoly(mp, low + [1]) ** m
        assert seeded_fp_factor(f, seed) == powering_fp_factor(f, seed)

    def test_parts_sum_to_the_radical(self, monkeypatch):
        degrees = []
        real = fppoly._factor_squarefree

        def recording(f, rng):
            degrees.append(f.degree)
            return real(f, rng)

        monkeypatch.setattr(fppoly, "_factor_squarefree", recording)
        m3, x3 = PrimeModulus(3), fp_x(PrimeModulus(3))
        m2, x2 = PrimeModulus(2), fp_x(PrimeModulus(2))
        one3, one2 = fp_one(m3), fp_one(m2)
        # the recursive separation passed degrees summing to 7 and 6
        for f in (
            x3 * (x3 + one3) ** 8 * (x3 + one3 + one3) ** 2,
            (x2 + one2) ** 5 * (x2 * x2 + x2 + one2) ** 3,
        ):
            degrees.clear()
            fp_factor(f)
            assert sum(degrees) == 3, f
        rng = random.Random(37)
        for trial in range(200):
            mp = PrimeModulus(rng.choice((2, 3, 5, 7, 13)))
            f = _product(
                mp,
                [
                    _random_monic(rng, mp, rng.randrange(1, 4)) ** rng.randrange(1, 2 * mp.p + 2)
                    for _ in range(rng.randrange(1, 4))
                ],
            )
            degrees.clear()
            seeded_fp_factor(f, trial)
            radical = sum(g.degree for g, _ in powering_fp_factor(f, trial))
            assert sum(degrees) == radical, f


class TestIrreducible:
    def test_examples(self):
        assert fp_is_irreducible(FpPoly(M2, (1, 1, 1)))
        assert not fp_is_irreducible(FpPoly(M2, (1, 0, 1)))
        assert fp_is_irreducible(FpPoly(M2, (1, 1, 0, 1)))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            fp_is_irreducible(FpPoly(M2, (1,)))
        with pytest.raises(ValueError):
            fp_is_irreducible(FpPoly(M2, ()))

    def test_cubics_mod_2_against_root_check(self):
        # degree <= 3: irreducible iff no roots (and nonzero leading term)
        for bits in range(8):
            coeffs = (bits & 1, (bits >> 1) & 1, (bits >> 2) & 1, 1)
            f = FpPoly(M2, coeffs)
            has_root = any(
                sum(c * x**i for i, c in enumerate(coeffs)) % 2 == 0
                for x in (0, 1)
            )
            assert fp_is_irreducible(f) == (not has_root)

    def test_classifies_like_count_and_oracle(self):
        for p, top in ((2, 8), (3, 5), (5, 4), (7, 3)):
            mp = PrimeModulus(p)
            for n in range(1, top + 1):
                irreducible = 0
                for lower in itertools.product(range(p), repeat=n):
                    f = FpPoly(mp, lower + (1,))
                    verdict = fp_is_irreducible(f)
                    assert verdict == powering_is_irreducible(f), f
                    irreducible += verdict
                assert irreducible == count_monic_irreducibles(mp, n)
                assert irreducible == sum(1 for _ in enumerate_monic_irreducibles(mp, n))

    def test_matches_factor_count(self):
        rng = random.Random(17)
        for trial in range(150):
            p = rng.choice([2, 3, 5])
            mp = PrimeModulus(p)
            f = random_fp_poly(rng, mp, 6)
            if f.degree == 0:
                continue
            fac = seeded_fp_factor(f.monic(), trial)
            assert fp_is_irreducible(f) == (len(fac) == 1 and fac[0][1] == 1)


class TestCountEnumerate:
    def test_count_examples(self):
        assert count_monic_irreducibles(M2, 1) == 2
        assert count_monic_irreducibles(M2, 2) == 1
        assert count_monic_irreducibles(M2, 3) == 2

    def test_count_rejects_zero(self):
        with pytest.raises(ValueError):
            count_monic_irreducibles(M2, 0)

    @pytest.mark.parametrize(
        "modulus, degree, message",
        [
            (4, 1, "not prime"),
            (6, 2, "not prime"),
            pytest.param(
                3317044064679887385961993, 2, "not decided", id="above-primality-bound"
            ),
        ],
    )
    def test_count_checks_the_modulus(self, modulus, degree, message):
        # as enumerate_monic_irreducibles does: 4 and 6 are not prime, and
        # 3317044064679887385961993 lies above PRIMALITY_BOUND
        with pytest.raises(ValueError, match=message):
            count_monic_irreducibles(modulus, degree)

    def test_count_takes_large_primes(self):
        # (p^2 - p)/2 monic irreducible quadratics
        for p in (2**61 - 1, 2**80 - 65):
            assert count_monic_irreducibles(p, 2) == (p * p - p) // 2

    def test_enumerate_examples(self):
        assert [g.coeffs for g in enumerate_monic_irreducibles(M2, 1)] == [
            (0, 1),
            (1, 1),
        ]
        assert [g.coeffs for g in enumerate_monic_irreducibles(M2, 2)] == [(1, 1, 1)]
        assert [g.coeffs for g in enumerate_monic_irreducibles(3, 1)] == [
            (0, 1),
            (1, 1),
            (2, 1),
        ]

    def test_enumeration_matches_count(self):
        for p in (2, 3, 5, 7):
            for f in range(1, 5):
                polys = list(enumerate_monic_irreducibles(p, f))
                assert len(polys) == count_monic_irreducibles(p, f)
                assert all(g.is_monic() and g.degree == f for g in polys)
                keys = [g.coeffs for g in polys]
                assert keys == sorted(keys)

    def test_necklace_identity(self):
        for p in (2, 3, 5, 7):
            for f in range(1, 7):
                total = sum(
                    d * count_monic_irreducibles(p, d)
                    for d in range(1, f + 1)
                    if f % d == 0
                )
                assert total == p**f
