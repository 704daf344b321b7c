import contextlib
import random
import sys
import time
from fractions import Fraction

import pytest

from conftest import random_irreducible_cubic, random_monic_zpoly
from primesplit import criteria
from primesplit.criteria import (
    IndexDivisorError,
    IndexVerdict,
    SplittingShape,
    assign_prime_functions,
    balanced_lift,
    common_index_divisor,
    dedekind_verdict,
    factor_prime_via_polynomial,
    index_divisible,
)
from primesplit.fppoly import FpPoly, PrimeModulus, fp_is_irreducible
from primesplit.integers import DEGREE_BOUND
from primesplit.orders import order_discriminant, order_from_polynomial, p_enlarge
from primesplit.zpoly import ZPoly, discriminant, lift, reduce_mod

M2 = PrimeModulus(2)
M7 = PrimeModulus(7)

CUBIC = ZPoly.from_text("t^3 - t^2 - 2*t - 8")


class TestShapeType:
    def test_sum_invariant(self):
        s = SplittingShape(2, [(1, 2), (1, 1)])
        assert s.n == 3
        assert s.degree_counts() == {1: 2}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplittingShape(2, [(0, 1)])
        with pytest.raises(ValueError):
            SplittingShape(2, [(1, 0)])
        # an empty shape has n = 0 and would report no common index divisor
        with pytest.raises(ValueError, match="^a splitting shape needs at least one part$"):
            SplittingShape(2, [])

    @pytest.mark.parametrize("parts", [[(1.5, 1), (1, 1)], [(1, Fraction(3, 2))]])
    def test_rejects_non_integers(self, parts):
        # entries that are not integers are refused, not truncated
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            SplittingShape(2, parts)

    def test_degree_above_the_bound_is_refused(self):
        assert SplittingShape(2, [(DEGREE_BOUND // 2, 2)]).n == DEGREE_BOUND
        for parts in ([(DEGREE_BOUND + 1, 1)], [(DEGREE_BOUND, 1), (1, 1)], [(1, 10**6)]):
            n = sum(f * e for f, e in parts)
            message = "shape degree %d exceeds DEGREE_BOUND = %d" % (n, DEGREE_BOUND)
            with pytest.raises(ValueError) as info:
                SplittingShape(2, parts)
            assert str(info.value) == message

    def test_equality_is_multiset(self):
        assert SplittingShape(5, [(1, 2), (2, 1)]) == SplittingShape(
            5, [(2, 1), (1, 2)]
        )


class TestVerdictType:
    def test_verdict_follows_factors_and_cofactor(self):
        t = FpPoly(M2, (0, 1))
        factors = dedekind_verdict(CUBIC, M2).factors
        v = IndexVerdict(CUBIC, M2, factors)
        assert (v.f, v.cofactor) == (CUBIC, ZPoly((4, 1)))
        assert v.dividing == [(t, 2)]
        assert v.divisible
        assert v.witness == (t, 2)
        assert repr(v) == "IndexVerdict(divisible, witness=(t, 2))"
        # the same factors mod 2, of an f whose cofactor t + 1 is prime to t:
        # M decides the verdict
        other = IndexVerdict(ZPoly.from_text("t^3 - t^2 - 2*t - 2"), M2, factors)
        assert other.cofactor == ZPoly((1, 1))
        assert other.dividing == []
        # at t^2 + t + 2, t + 1 divides M = -t - 1 mod 2 but is a simple factor
        for text in ("t^2 - 2", "t^2 + t + 2"):
            v = dedekind_verdict(ZPoly.from_text(text), M2)
            assert v.dividing == [], text
            assert not v.divisible
            assert v.witness is None
            assert repr(v) == "IndexVerdict(not divisible)"

    def test_plain_int_modulus_refused(self):
        # maximal_order reads verdict.modulus.p, so a bare int is refused here
        factors = dedekind_verdict(CUBIC, M2).factors
        with pytest.raises(TypeError, match="^IndexVerdict needs a PrimeModulus, not 2$"):
            IndexVerdict(CUBIC, 2, factors)

    def test_another_polynomials_factors_fail_the_congruence(self):
        # the verdict forms M from f itself, so factors of a g that differs
        # from f mod p are refused, and those of a g = f mod p give f's M
        rng = random.Random(4203)
        refused = agreed = 0
        for _ in range(300):
            p = PrimeModulus(rng.choice([2, 3]))
            f = random_monic_zpoly(rng, 3, 30)
            g = random_monic_zpoly(rng, 3, 30)
            if rng.random() < 0.3:
                g = f + ZPoly([p.p * rng.randrange(-3, 4) for _ in range(3)])
            factors = dedekind_verdict(g, p).factors
            if reduce_mod(f, p) == reduce_mod(g, p):
                assert IndexVerdict(f, p, factors).cofactor == dedekind_verdict(f, p).cofactor
                agreed += 1
            else:
                message = "^lift product is not congruent to f mod %d$" % p.p
                with pytest.raises(ValueError, match=message):
                    IndexVerdict(f, p, factors)
                refused += 1
        assert refused >= 150 and agreed >= 50, (refused, agreed)


class TestBalancedLift:
    def test_mod2(self):
        assert balanced_lift(FpPoly(M2, (1, 1))) == ZPoly((-1, 1))
        assert balanced_lift(FpPoly(M2, (0, 1))) == ZPoly((0, 1))

    def test_mod7(self):
        assert balanced_lift(FpPoly(M7, (6, 4, 3, 1))) == ZPoly((-1, -3, 3, 1))


class TestIndexDivisible:
    def test_cubic_at_2(self):
        v = index_divisible(CUBIC, M2)
        assert v.divisible
        assert v.witness == (FpPoly(M2, (0, 1)), 2)
        assert v.cofactor == ZPoly((4, 1))

    def test_sqrt2_at_2(self):
        v = index_divisible(ZPoly.from_text("t^2 - 2"), M2)
        assert not v.divisible
        # cross-check via the discriminant ratio 8/8 = 1^2
        order = order_from_polynomial(ZPoly.from_text("t^2 - 2"))
        assert discriminant(ZPoly.from_text("t^2 - 2")) == order_discriminant(order)

    def test_skewed_generator_at_7(self):
        assert not index_divisible(ZPoly.from_text("t^2 - 50*t - 833"), M7).divisible

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            index_divisible(ZPoly((1, 1, 2)), M2)

    def test_rational_root_screen(self):
        with pytest.raises(ValueError):
            index_divisible(ZPoly.from_text("t^3 - t^2 + 2*t - 8"), M2)  # root 2
        with pytest.raises(ValueError):
            index_divisible(ZPoly.from_text("t^2 - t"), M2)  # divisible by t

    def test_screen_time_depends_on_bit_length(self):
        # the cost must follow the bit length of the constant term, not its value
        for c in (10**9 + 1, 10**18 + 1):
            start = time.process_time()
            index_divisible(ZPoly((-c, 0, 0, 1)), PrimeModulus(3))
            assert time.process_time() - start < 1.0, c

    def test_screen_names_large_root(self):
        with pytest.raises(ValueError, match=r"integer root 1000000\)"):
            index_divisible(ZPoly((-10**18, 0, 0, 1)), PrimeModulus(3))


class TestFactorPrimeViaPolynomial:
    def test_sqrt2_at_7(self):
        shape, factors = factor_prime_via_polynomial(ZPoly.from_text("t^2 - 2"), M7)
        assert shape == SplittingShape(7, [(1, 1), (1, 1)])
        assert factors == [(FpPoly(M7, (3, 1)), 1), (FpPoly(M7, (4, 1)), 1)]

    def test_cubic_at_2_refuses(self):
        with pytest.raises(IndexDivisorError) as exc:
            factor_prime_via_polynomial(CUBIC, M2)
        assert exc.value.verdict.witness == (FpPoly(M2, (0, 1)), 2)

    def test_gaussian_at_2(self):
        shape, _ = factor_prime_via_polynomial(ZPoly.from_text("t^2 + 1"), M2)
        assert shape == SplittingShape(2, [(1, 2)])
        # brute-force oracle over the 4-element quotient Z[i]/2: residues
        # x + y*i with x, y in {0, 1}; the proper nonzero ideals are found
        # by closing each residue under multiplication
        def mul(a, b):
            return (
                (a[0] * b[0] - a[1] * b[1]) % 2,
                (a[0] * b[1] + a[1] * b[0]) % 2,
            )

        residues = [(x, y) for x in (0, 1) for y in (0, 1)]
        ideals = set()
        for r in residues:
            span = {(0, 0), r}
            changed = True
            while changed:
                changed = False
                for s in list(span):
                    for g in residues:
                        q = mul(s, g)
                        if q not in span:
                            span.add(q)
                            changed = True
                # additive closure mod 2
                for s in list(span):
                    for u in list(span):
                        q = ((s[0] + u[0]) % 2, (s[1] + u[1]) % 2)
                        if q not in span:
                            span.add(q)
                            changed = True
            ideals.add(frozenset(span))
        proper = [i for i in ideals if len(i) not in (1, 4)]
        # exactly one proper nonzero ideal {0, 1+i}, and its square is 0:
        assert proper == [frozenset({(0, 0), (1, 1)})]
        assert mul((1, 1), (1, 1)) == (0, 0)
        # matching the single part with e = 2, f = 1
        assert shape.parts == ((1, 2),)

    def test_shape_sums_to_degree(self):
        rng = random.Random(23)
        done = 0
        while done < 200:
            f = random_monic_zpoly(rng, rng.randrange(2, 6), 9)
            p = PrimeModulus(rng.choice([2, 3, 5, 7]))
            try:
                shape, factors = factor_prime_via_polynomial(f, p)
            except (IndexDivisorError, ValueError):
                continue
            assert shape.n == f.degree
            assert shape.parts == tuple((g.degree, e) for g, e in factors)
            for g, _ in factors:
                assert g.is_monic() and fp_is_irreducible(g)
                # the generator P(theta) is P's [0, p) lift, printed as P
                assert str(lift(g)) == str(g)
            done += 1

    @pytest.mark.parametrize("text, p", [("t^2 - 2", 7), ("t^2 + 1", 2), ("t^3 - 5", 11)])
    def test_factors_f_mod_p_once(self, monkeypatch, text, p):
        calls = []
        real = criteria.fp_factor

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(criteria, "fp_factor", counting)
        factor_prime_via_polynomial(ZPoly.from_text(text), PrimeModulus(p))
        assert len(calls) == 1

    def test_each_input_check_runs_once(self, monkeypatch):
        # the modulus and f's leading coefficient are checked once per call
        # chain, not again by each criteria function the chain passes through
        checks = []
        real_modulus, real_monic = criteria.as_modulus, ZPoly.is_monic

        def modulus(m):
            checks.append("modulus")
            return real_modulus(m)

        def monic(f):
            if sys._getframe(1).f_globals["__name__"] == criteria.__name__:
                checks.append("monic")
            return real_monic(f)

        monkeypatch.setattr(criteria, "as_modulus", modulus)
        monkeypatch.setattr(ZPoly, "is_monic", monic)
        for call in (dedekind_verdict, index_divisible, factor_prime_via_polynomial):
            checks.clear()
            with contextlib.suppress(IndexDivisorError):
                call(CUBIC, 2)
            assert checks == ["modulus", "monic"], call

    @pytest.mark.parametrize(
        "f, p, message",
        [(ZPoly((1, 1, 2)), 2, "expected a monic polynomial"), (CUBIC, 4, "not prime")],
    )
    def test_refusals_keep_their_messages(self, f, p, message):
        for call in (index_divisible, factor_prime_via_polynomial, dedekind_verdict):
            with pytest.raises(ValueError, match=message):
                call(f, p)


class TestCommonIndexDivisor:
    def test_three_linear_mod_2(self):
        divisor, report = common_index_divisor(SplittingShape(2, [(1, 1)] * 3))
        assert divisor
        assert report == [(1, 3, 2)]

    def test_two_quadratics_mod_2(self):
        divisor, _ = common_index_divisor(SplittingShape(2, [(2, 1)] * 2))
        assert divisor

    def test_three_linear_mod_3(self):
        divisor, _ = common_index_divisor(SplittingShape(3, [(1, 1)] * 3))
        assert not divisor

    @pytest.mark.parametrize(
        "p, linear", [(2, 2), (2, 3), (3, 3), (3, 4), (5, 5), (5, 6), (7, 7), (7, 8)]
    )
    def test_answers_at_the_shapes_own_prime(self, p, linear):
        # k linear primes above p need k distinct roots, and GF(p) has p
        divisor, report = common_index_divisor(SplittingShape(p, [(1, 1)] * linear))
        assert (divisor, report) == (linear > p, [(1, linear, p)])


class TestAssignPrimeFunctions:
    def test_two_linear_mod_7(self):
        out = assign_prime_functions(SplittingShape(7, [(1, 1), (1, 1)]))
        assert [g.coeffs for g in out] == [(0, 1), (1, 1)]

    def test_infeasible_mod_2(self):
        assert assign_prime_functions(SplittingShape(2, [(1, 1)] * 3)) is None

    def test_ramified_pair_mod_2(self):
        out = assign_prime_functions(SplittingShape(2, [(1, 2), (1, 1)]))
        assert [g.coeffs for g in out] == [(0, 1), (1, 1)]

    def test_absent_iff_common_divisor(self):
        rng = random.Random(33)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            parts = []
            budget = rng.randrange(2, 7)
            while budget > 0:
                f = rng.randrange(1, min(budget, 3) + 1)
                e = rng.randrange(1, (budget // f) + 1)
                parts.append((f, e))
                budget -= e * f
            shape = SplittingShape(p, parts)
            divisor, _ = common_index_divisor(shape)
            polys = assign_prime_functions(shape)
            assert (polys is None) == divisor
            if polys is not None:
                assert len(set(g.coeffs for g in polys)) == len(polys)
                for g, (f, _) in zip(polys, shape.parts):
                    assert g.degree == f and fp_is_irreducible(g)


class TestCriterionVersusOrderOracle:
    def test_no_repeated_factor_means_not_divisible(self):
        rng = random.Random(41)
        done = 0
        while done < 200:
            f = random_monic_zpoly(rng, rng.randrange(2, 6), 9)
            p = rng.choice([2, 3, 5, 7, 11, 13])
            if f.coeffs[0] == 0 or discriminant(f) == 0:
                continue
            if discriminant(f) % p == 0:
                continue
            try:
                assert not index_divisible(f, PrimeModulus(p)).divisible
            except ValueError:
                continue  # rational-root screen fired
            done += 1

    def test_agrees_with_p_enlargement_index(self):
        # oracle: p | k exactly when the p-enlargement of Z[t]/(f) is strict,
        # i.e. disc(f) / disc(p-maximal overorder) is a nontrivial square
        rng = random.Random(47)
        done = 0
        while done < 200:
            f = random_irreducible_cubic(rng, 10)
            p = PrimeModulus(rng.choice([2, 3, 5]))
            if discriminant(f) == 0:
                continue
            order = order_from_polynomial(f)
            enlarged = p_enlarge(order, p)
            ratio, rem = divmod(order_discriminant(order), order_discriminant(enlarged))
            assert rem == 0
            k2 = abs(ratio)
            assert int(round(k2**0.5)) ** 2 == k2
            oracle_divisible = k2 > 1
            assert index_divisible(f, p).divisible == oracle_divisible
            done += 1


class TestTheoremIVForward:
    def test_successful_split_never_common_divisor(self):
        rng = random.Random(53)
        done = 0
        while done < 200:
            f = random_monic_zpoly(rng, rng.randrange(2, 6), 9)
            p = PrimeModulus(rng.choice([2, 3, 5]))
            try:
                shape, _ = factor_prime_via_polynomial(f, p)
            except (IndexDivisorError, ValueError):
                continue
            divisor, _ = common_index_divisor(shape)
            assert not divisor
            done += 1
