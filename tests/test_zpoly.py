import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    divisor_scan_roots,
    fraction_determinant,
    random_monic_zpoly,
    seeded_fp_factor,
    sylvester_resultant,
)
from primesplit import criteria, zpoly
from primesplit.fppoly import FpPoly, PrimeModulus
from primesplit.zpoly import (
    ZPoly,
    bareiss_determinant,
    cofactor_m,
    discriminant,
    integer_roots,
    lift,
    reduce_mod,
    resultant,
)

M2 = PrimeModulus(2)
M7 = PrimeModulus(7)


class TestArithmetic:
    def test_mul_example(self):
        assert ZPoly.from_text("t - 2") * ZPoly.from_text("t^2 + t + 4") == (
            ZPoly.from_text("t^3 - t^2 + 2*t - 8")
        )

    def test_divrem_exact_example(self):
        q, r = divmod(
            ZPoly.from_text("t^3 - 9*t^2 + 26*t - 24"), ZPoly.from_text("t - 2")
        )
        assert q == ZPoly.from_text("t^2 - 7*t + 12")
        assert r.is_zero()

    def test_add_identity(self):
        f = ZPoly.from_text("t^3 - t^2 - 2*t - 8")
        assert f + ZPoly(()) == f

    def test_non_monic_divisor_rejected(self):
        with pytest.raises(ValueError):
            divmod(ZPoly((1, 1)), ZPoly((1, 2)))

    @pytest.mark.parametrize(
        "op",
        [operator.add, operator.sub, operator.mul, operator.floordiv, operator.mod, divmod],
    )
    @pytest.mark.parametrize("zpoly_first", [True, False], ids=["ZPoly-first", "FpPoly-first"])
    def test_mixed_rings_refused(self, op, zpoly_first):
        z, g = ZPoly.from_text("t^2 + 2*t + 1"), FpPoly(M2, (1, 1))
        with pytest.raises(TypeError):
            op(z, g) if zpoly_first else op(g, z)

    def test_zero_degree_sentinel(self):
        assert ZPoly(()).degree is None
        assert ZPoly((0, 0)).degree is None
        assert ZPoly((5,)).degree == 0

    def test_divmod_random_identity(self):
        rng = random.Random(2)
        for _ in range(100):
            a = ZPoly([rng.randrange(-9, 10) for _ in range(rng.randrange(8))])
            b = random_monic_zpoly(rng, rng.randrange(1, 4), 9)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


class TestDiscriminant:
    def test_cubic(self):
        assert discriminant(ZPoly.from_text("t^3 - t^2 - 2*t - 8")) == -2012

    def test_skewed_quadratic(self):
        assert discriminant(ZPoly.from_text("t^2 - 50*t - 833")) == 5832

    def test_gaussian(self):
        assert discriminant(ZPoly.from_text("t^2 + 1")) == -4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            discriminant(ZPoly((1, 2)))
        with pytest.raises(ValueError):
            discriminant(ZPoly((3,)))

    @pytest.mark.parametrize("a", [0, 1, -1, 7, -(2**70)])
    def test_linear_is_one(self, a):
        # res(t + a, 1) = 1: a linear f needs no case of its own
        assert discriminant(ZPoly((a, 1))) == 1

    def test_quadratic_closed_form(self):
        rng = random.Random(6)
        for _ in range(200):
            b, c = rng.randrange(-20, 21), rng.randrange(-20, 21)
            assert discriminant(ZPoly((c, b, 1))) == b * b - 4 * c

    def test_matches_sylvester_oracle(self):
        # independent oracle: the Sylvester matrix determinant by exact
        # fraction elimination, with the same sign normalization; at n = 1
        # the matrix is f' = 1 alone
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randrange(1, 6)
            f = random_monic_zpoly(rng, n, 9)
            fp = f.derivative()
            if fp.is_zero():
                continue
            size = n + fp.degree
            fs = list(reversed(f.coeffs))
            gs = list(reversed(fp.coeffs))
            rows = []
            for i in range(fp.degree):
                rows.append([0] * i + fs + [0] * (size - n - 1 - i))
            for i in range(n):
                rows.append([0] * i + gs + [0] * (size - fp.degree - 1 - i))
            res = fraction_determinant(rows)
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            assert discriminant(f) == sign * res

    def test_disc_mod_p_detects_repeated_factors(self):
        rng = random.Random(21)
        for trial in range(250):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            mp = PrimeModulus(p)
            f = random_monic_zpoly(rng, rng.randrange(2, 6), 9)
            d = discriminant(f)
            fac = seeded_fp_factor(reduce_mod(f, mp), trial)
            repeated = any(e >= 2 for _, e in fac)
            assert (d % p == 0) == repeated


class TestResultantDeterminant:
    def test_bareiss_refuses_non_square(self):
        with pytest.raises(ValueError, match="matrix is not square"):
            bareiss_determinant([[1, 2, 3], [4, 5, 6]])

    def test_bareiss_matches_fraction_oracle(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randrange(1, 6)
            m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(m) == fraction_determinant(m)

    def test_resultant_multiplicative_in_roots(self):
        # res(t-a, t-b) = b - a ... sign convention: res(f,g) = prod f-roots g(root)
        a, b = 3, 11
        f = ZPoly((-a, 1))
        g = ZPoly((-b, 1))
        assert resultant(f, g) == g(a)

    def test_matches_sylvester_bareiss_oracle(self):
        rng = random.Random(37)

        def draw(degree):
            # non-monic, with contents up to 6 and either leading sign
            content = rng.choice((1, 1, 2, 3, -6))
            lead = rng.choice((-1, 1)) * rng.randrange(1, 10)
            cs = [rng.randrange(-30, 31) for _ in range(degree)] + [lead]
            return ZPoly([content * c for c in cs])

        for trial in range(500):
            n, m = rng.randrange(0, 13), rng.randrange(0, 13)
            if trial % 5 == 0:
                # deg f < deg g with both degrees odd: the sign of the swap
                n, m = sorted(rng.sample(range(1, 13, 2), 2))
            f, g = draw(n), draw(m)
            if trial % 5 == 1:
                common = draw(rng.randrange(1, 4))
                f, g = f * common, g * common
                assert resultant(f, g) == 0
            assert resultant(f, g) == sylvester_resultant(f, g), (f, g)

    def test_zero_input_rejected(self):
        for f, g in ((ZPoly(()), ZPoly((1, 1))), (ZPoly((1, 1)), ZPoly(()))):
            with pytest.raises(ValueError):
                resultant(f, g)

    def test_discriminant_matches_oracle_at_poly_route_size(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randrange(4, 17)
            f = random_monic_zpoly(rng, n, 2**20)
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            assert discriminant(f) == sign * sylvester_resultant(f, f.derivative())

    def test_degree_64_discriminant_time_bound(self):
        f = random_monic_zpoly(random.Random(64), 64, 2**20)
        start = time.process_time()
        discriminant(f)
        assert time.process_time() - start < 0.3


class TestReduceLift:
    def test_reduce_examples(self):
        f = ZPoly.from_text("t^3 - t^2 - 2*t - 8")
        assert reduce_mod(f, M2) == FpPoly(M2, (0, 0, 1, 1))
        assert reduce_mod(ZPoly.from_text("t^2 - 50*t - 833"), M7) == FpPoly(
            M7, (0, 6, 1)
        )

    def test_round_trip(self):
        rng = random.Random(4)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            mp = PrimeModulus(p)
            g = FpPoly(mp, [rng.randrange(p) for _ in range(rng.randrange(8))])
            assert reduce_mod(lift(g), mp) == g
            assert all(0 <= c < p for c in lift(g).coeffs)


class TestCofactor:
    def test_paper_lifts(self):
        f = ZPoly.from_text("t^3 - t^2 - 2*t - 8")
        m = cofactor_m(f, M2, [(ZPoly((0, 1)), 2), (ZPoly((-1, 1)), 1)])
        assert m == ZPoly((4, 1))

    def test_sqrt2(self):
        m = cofactor_m(ZPoly.from_text("t^2 - 2"), M2, [(ZPoly((0, 1)), 2)])
        assert m == ZPoly((1,))

    def test_exact_lift_gives_zero(self):
        f = ZPoly.from_text("t^2 + 3*t + 2")
        m = cofactor_m(f, M7, [(ZPoly((1, 1)), 1), (ZPoly((2, 1)), 1)])
        assert m.is_zero()

    def test_congruence_violation(self):
        with pytest.raises(ValueError):
            cofactor_m(ZPoly.from_text("t^2 - 2"), M2, [(ZPoly((1, 1)), 2)])

    def test_non_monic_refused(self):
        with pytest.raises(ValueError, match="cofactor requires monic f"):
            cofactor_m(ZPoly((-2, 0, 3)), M2, [(ZPoly((0, 1)), 2)])
        with pytest.raises(ValueError, match="lifted factors must be monic"):
            cofactor_m(ZPoly.from_text("t^2 - 2"), M2, [(ZPoly((0, 3)), 2)])

    def test_defining_identity(self):
        # f = prod(lifts^e) - p*M exactly
        rng = random.Random(8)
        for trial in range(200):
            p = rng.choice([2, 3, 5])
            mp = PrimeModulus(p)
            f = random_monic_zpoly(rng, rng.randrange(2, 6), 9)
            fac = seeded_fp_factor(reduce_mod(f, mp), trial)
            lifts = [(lift(g), e) for g, e in fac]
            m = cofactor_m(f, mp, lifts)
            prod = ZPoly((1,))
            for g, e in lifts:
                prod = prod * g**e
            assert prod - m * ZPoly((p,)) == f


def _random_lift_pair(rng, p):
    """f = R^e*T - p*N with R = P + p*X, T = S + p*Y, e >= 2, built by construction."""
    mp = PrimeModulus(p)
    e = rng.randrange(2, 4)
    dp = rng.randrange(1, 3)
    ds = rng.randrange(0, 3)
    P = random_monic_zpoly(rng, dp, p - 1)
    S = random_monic_zpoly(rng, ds, p - 1) if ds else ZPoly((1,))
    if reduce_mod(S, mp) % reduce_mod(P, mp) == FpPoly(mp, ()):
        return None
    X = ZPoly([rng.randrange(-2, 3) for _ in range(dp)])
    Y = ZPoly([rng.randrange(-2, 3) for _ in range(ds)])
    R = P + X * ZPoly((p,))
    T = S + Y * ZPoly((p,))
    W = ZPoly([rng.randrange(-3, 4) for _ in range(e * dp + ds)])
    f = P**e * S - W * ZPoly((p,))
    return mp, f, P, S, R, T, e


class TestLiftIndependence:
    def test_section5_alternative_lifts(self):
        f = ZPoly.from_text("t^3 - t^2 - 2*t - 8")
        m = cofactor_m(f, M2, [(ZPoly((0, 1)), 2), (ZPoly((-1, 1)), 1)])
        n = cofactor_m(f, M2, [(ZPoly((2, 1)), 2), (ZPoly((1, 1)), 1)])
        diff = reduce_mod(m - n, M2)
        assert (diff % FpPoly(M2, (0, 1))).is_zero()

    def test_random_lift_pairs(self):
        # M - N is divisible by P mod p whenever e >= 2
        rng = random.Random(15)
        done = 0
        while done < 220:
            p = rng.choice([2, 3, 5])
            built = _random_lift_pair(rng, p)
            if built is None:
                continue
            mp, f, P, S, R, T, e = built
            m = cofactor_m(f, mp, [(P, e), (S, 1)])
            n = cofactor_m(f, mp, [(R, e), (T, 1)])
            diff = reduce_mod(m - n, mp)
            pmod = reduce_mod(P, mp)
            assert diff.is_zero() or (diff % pmod).is_zero()
            done += 1


def _planted(roots, cofactor):
    """The monic polynomial prod(t - r) * cofactor (ascending coefficients)."""
    f = ZPoly(cofactor)
    for r in roots:
        f = f * ZPoly((-r, 1))
    return f


class TestIntegerRoots:
    FIXED = [
        ((1,), (1, 1, 1)),
        ((-1,), (3, 0, 1)),
        ((1, -1), (5, 1, 1)),
        ((5, -5), (2, 1)),  # the screen names +5
        ((3, 3), (1, 0, 1)),  # (t-3)^2 (t^2+1), discriminant 0
        ((-2, -2, -2), (1, 1)),
        ((313, -317), (1, 0, 1)),  # |a0| = 99221
        ((), (1, 0, 1)),
        ((), (-2, 0, 0, 1)),
        ((), (1, 0, 1, 0, 1)),  # (t^2+t+1)(t^2-t+1), no integer root
        ((), (1, 0, 2, 0, 1)),  # (t^2+1)^2: discriminant 0 and no root
    ]

    def test_agrees_with_divisor_scan(self):
        rng = random.Random(43)
        cases = [_planted(roots, cofactor) for roots, cofactor in self.FIXED]
        while len(cases) < 400:
            roots = [
                rng.choice((1, -1, rng.randrange(-40, 41)))
                for _ in range(rng.randrange(0, 4))
            ]
            if roots and rng.random() < 0.2:
                roots.append(-roots[0])
            cofactor = [rng.randrange(-20, 21) for _ in range(rng.randrange(0, 4))]
            f = _planted(roots, cofactor + [1])
            if f.degree >= 2 and 0 < abs(f.coeffs[0]) <= 10**5:
                cases.append(f)
        verdicts = set()
        for f in cases:
            expected = divisor_scan_roots(f)
            assert integer_roots(f) == expected, f
            if expected:
                with pytest.raises(ValueError) as exc:
                    criteria.rational_root_screen(f)
                assert str(exc.value) == (
                    "polynomial is reducible (integer root %d)" % expected[0]
                )
            else:
                criteria.rational_root_screen(f)
            verdicts.add(bool(expected))
        assert verdicts == {True, False}

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(
        roots=st.lists(st.integers(-10**6, 10**6).filter(bool), max_size=3),
        constant=st.integers(-1000, 1000).filter(bool),
        middle=st.lists(st.integers(-1000, 1000), max_size=3),
    )
    def test_planted_roots_are_found(self, roots, constant, middle):
        f = _planted(roots, [constant] + middle + [1])
        found = integer_roots(f)
        assert set(roots) <= set(found)
        assert all(f(r) == 0 for r in found)

    def test_squarefree_part_when_every_small_prime_divides_disc(self, monkeypatch):
        # P is the product of the primes up to 29 and divides each
        # discriminant, so f mod q is not squarefree at any q <= 29; the
        # squarefree part then taken has gcd(f, f') = 1 and is f itself
        big = 6469693230
        primitive_gcd = zpoly._primitive_gcd
        gcds = []

        def recording_gcd(a, b):
            gcds.append(primitive_gcd(a, b))
            return gcds[-1]

        monkeypatch.setattr(zpoly, "_primitive_gcd", recording_gcd)
        cases = [
            (ZPoly((-1, 1)) * ZPoly((-1 - big, 1)), [1, big + 1]),
            (ZPoly((-big, 0, 1)), []),
        ]
        for f, roots in cases:
            assert discriminant(f) % big == 0
            assert integer_roots(f) == roots, f
        assert gcds == [ZPoly((1,))] * 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            integer_roots(ZPoly((1, 1, 2)))
        with pytest.raises(ValueError):
            integer_roots(ZPoly((0, 1, 1)))
