"""Acceptance suite: every criterion at its stated tolerance.

All arithmetic is exact, so every tolerance is exact equality; "up to
sign" is stated where the source prints one sign choice.  Each test
emits one PASS line on success (visible under pytest -s); a failure is
a failing test.
"""

import random
from math import gcd

from conftest import (
    random_fp_poly,
    random_irreducible_cubic,
    random_irreducible_quartic,
    random_monic_zpoly,
    seeded_fp_factor,
)
from primesplit import fixtures
from primesplit.criteria import (
    IndexDivisorError,
    SplittingShape,
    common_index_divisor,
    factor_prime_via_polynomial,
    index_divisible,
)
from primesplit.fppoly import (
    FpPoly,
    PrimeModulus,
    count_monic_irreducibles,
    fp_is_irreducible,
)
from primesplit.ideals import (
    LatticeIdeal,
    crt_good_generator,
    factor_p_in_order,
    ideal_product,
    principal_ideal,
    whole_order,
)
from primesplit.indexform import common_value_divisor, index_form
from primesplit.orders import (
    char_poly,
    cubic_family,
    element_index,
    maximal_order,
    order_discriminant,
    order_from_polynomial,
    p_enlarge,
)
from primesplit.zpoly import ZPoly, cofactor_m, discriminant, reduce_mod


def _report(number, text):
    print("PASS criterion %s: %s" % (number, text))


def test_criterion_1_discriminant_and_fundamental_number():
    f = fixtures.cubic_poly()
    assert discriminant(f) == -2012
    assert -2012 == (2**2) * (-503)
    _, d = maximal_order(f)
    assert d == -503
    assert discriminant(f) == (2**2) * d
    _report(1, "disc = -2012 = 2^2 * (-503), fundamental number -503")


def test_criterion_2_dedekind_criterion_cubic_at_2():
    verdict = index_divisible(fixtures.cubic_poly(), 2)
    assert verdict.cofactor == ZPoly((4, 1))  # t + 4
    assert verdict.divisible is True
    assert verdict.witness == (FpPoly(PrimeModulus(2), (0, 1)), 2)
    _report(2, "M = t + 4, witness (t, 2), verdict divisible")


def test_criterion_3_three_primes_above_2():
    order = fixtures.maximal_cubic_order()
    result = factor_p_in_order(order, 2)
    got = sorted(ide.rows for ide, _, _ in result)
    expected = sorted(
        [
            ((2, 0, 0), (0, 1, 0), (1, 0, 1)),  # [2, a, 1+b]
            ((2, 0, 0), (1, 1, 0), (0, 0, 1)),  # [2, 1+a, b]
            ((2, 0, 0), (0, 1, 0), (0, 0, 1)),  # [2, a, b]
        ]
    )
    assert got == expected
    assert all(ide.norm() == 2 for ide, _, _ in result)
    assert all((e, f) == (1, 1) for _, e, f in result)
    product = whole_order(order)
    for ide, e, _ in result:
        for _ in range(e):
            product = ideal_product(product, ide)
    assert product == principal_ideal(order, order.element((2, 0, 0)))
    _report(3, "primes above 2 are [2,a,1+b], [2,1+a,b], [2,a,b]; product = 2*O")


def test_criterion_4_product_tables():
    order = fixtures.maximal_cubic_order()
    named = {
        name: LatticeIdeal(order, rows)
        for name, rows in fixtures.CUBIC_PRIMES_ABOVE_2.items()
    }
    for (x, y), rows in fixtures.CUBIC_SIX_PRODUCTS.items():
        assert ideal_product(named[x], named[y]).rows == rows, (x, y)
    for word, rows, mu in fixtures.CUBIC_TEN_PRINCIPAL:
        acc = whole_order(order)
        for letter in word:
            acc = ideal_product(acc, named[letter])
        assert acc.rows == rows, word
        assert acc == principal_ideal(order, order.element(mu)), word
    _report(4, "six products and ten principal ideals reproduce as exact bases")


def test_criterion_5_index_form_and_evenness():
    order = fixtures.maximal_cubic_order()
    form = index_form(order)
    target = fixtures.CUBIC_INDEX_FORM_TERMS
    assert form.terms in (target, {e: -c for e, c in target.items()})
    assert common_value_divisor(form, 2) is True
    _report(5, "index form = +/-(2x^3 - x^2y - xy^2 - 2y^3), always even")


def test_criterion_6_cubic_family_discriminant():
    order, disc = cubic_family(2, 2, 1, -1)
    assert disc == -503
    assert order_discriminant(order) == -503
    rng = random.Random(1006)
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
    _report(6, "closed-form discriminant matches the trace form on 200 quadruples")


def test_criterion_7_quartic_fundamental_number_and_shape():
    f = fixtures.quartic_poly()
    order, d = maximal_order(f)
    assert d == 2873 == 13**2 * 17
    result = factor_p_in_order(order, 2)
    shape = SplittingShape(2, [(fx, e) for _, e, fx in result])
    assert sorted(shape.parts) == [(2, 1), (2, 1)]
    divisor, report = common_index_divisor(shape)
    assert divisor is True
    assert report == [(2, 2, 1)]
    _report(7, "quartic D = 2873 = 13^2*17; shape {(2,1)x2}; 2 is a common index divisor")


def test_criterion_8_skewed_generator_of_sqrt2():
    order = fixtures.sqrt2_order()
    m7 = PrimeModulus(7)
    primes = factor_p_in_order(order, m7)
    theta = crt_good_generator(order, primes, [FpPoly(m7, (0, 1)), FpPoly(m7, (-1, 1))])
    # congruent to 25 + 27*sqrt2 modulo 49 (and canonically reduced to it)
    assert theta.coords == (25, 27)
    diff = theta - order.element((25, 27))
    assert all(c % 49 == 0 for c in diff.coords)
    cp = char_poly(theta)
    assert reduce_mod(cp, m7) == FpPoly(m7, (0, 6, 1))  # t^2 - t
    k = element_index(order, theta)
    assert k == 27 and k % 7 != 0
    # independent oracle: disc ratio 5832 / 8 = 729 = 27^2, so the index is
    # 27 (the translated footnote prints 729 = 3^6, which is k^2, not k)
    assert discriminant(cp) == 5832
    assert discriminant(cp) // order_discriminant(order) == 729 == k * k
    _report(8, "theta = 25 + 27*sqrt2 mod 49, char poly t^2-t mod 7, index 27")


# -- criterion 9: randomized property suite, fixed seeds --------------------

def test_criterion_9a_factorization_round_trip():
    rng = random.Random(2009)
    done = 0
    while done < 200:
        p = rng.choice([2, 3, 5, 7])
        mp = PrimeModulus(p)
        f = random_fp_poly(rng, mp, 8)
        if f.degree == 0:
            continue
        prod = FpPoly(mp, (f.coeffs[-1],))
        for g, e in seeded_fp_factor(f, done):
            assert fp_is_irreducible(g)
            prod = prod * g**e
        assert prod == f
        done += 1
    _report("9a", "factorization round-trip on 200 random polynomials")


def test_criterion_9b_shape_degree_sum():
    rng = random.Random(2010)
    done = 0
    while done < 200:
        f = random_monic_zpoly(rng, rng.randrange(2, 6), 9)
        p = PrimeModulus(rng.choice([2, 3, 5, 7]))
        try:
            shape, _ = factor_prime_via_polynomial(f, p)
        except (IndexDivisorError, ValueError):
            continue
        assert shape.n == f.degree
        done += 1
    _report("9b", "sum of e*f equals the degree on 200 random splittings")


def test_criterion_9c_norm_multiplicativity():
    order = fixtures.maximal_cubic_order()
    rng = random.Random(2011)
    done = 0
    while done < 200:
        x = order.element([rng.randrange(-6, 7) for _ in range(3)])
        y = order.element([rng.randrange(-6, 7) for _ in range(3)])
        try:
            ix, iy = principal_ideal(order, x), principal_ideal(order, y)
        except ValueError:
            continue
        assert ideal_product(ix, iy).norm() == ix.norm() * iy.norm()
        done += 1
    _report("9c", "norm multiplicativity on 200 random principal pairs")


def test_criterion_9d_lift_independence():
    rng = random.Random(2012)
    done = 0
    while done < 200:
        p = rng.choice([2, 3, 5])
        mp = PrimeModulus(p)
        e = rng.randrange(2, 4)
        P = random_monic_zpoly(rng, rng.randrange(1, 3), p - 1)
        S = random_monic_zpoly(rng, rng.randrange(0, 3), p - 1)
        W = ZPoly([rng.randrange(-3, 4) for _ in range(e * P.degree + S.degree)])
        f = P**e * S - W * ZPoly((p,))
        X = ZPoly([rng.randrange(-2, 3) for _ in range(P.degree)])
        Y = ZPoly([rng.randrange(-2, 3) for _ in range(S.degree)])
        m = cofactor_m(f, mp, [(P, e), (S, 1)])
        n = cofactor_m(f, mp, [(P + X * ZPoly((p,)), e), (S + Y * ZPoly((p,)), 1)])
        diff = reduce_mod(m - n, mp)
        pmod = reduce_mod(P, mp)
        assert diff.is_zero() or (diff % pmod).is_zero()
        done += 1
    _report("9d", "cofactor difference divisible by the repeated factor, 200 cases")


def test_criterion_9e_criterion_versus_enlargement_oracle():
    rng = random.Random(2013)
    done = 0
    while done < 200:
        if done % 2:
            f = random_irreducible_quartic(rng, 3)
        else:
            f = random_irreducible_cubic(rng, 10)
        if discriminant(f) == 0:
            continue
        p = PrimeModulus(rng.choice([2, 3, 5]))
        order = order_from_polynomial(f)
        enlarged = p_enlarge(order, p)
        k2, rem = divmod(order_discriminant(order), order_discriminant(enlarged))
        assert rem == 0
        oracle = k2 > 1  # p divides the index iff the p-enlargement is strict
        assert index_divisible(f, p).divisible == oracle
        done += 1
    _report("9e", "criterion agrees with the p-enlargement index oracle, 200 cases")


def test_criterion_9f_ramification_iff_divides_fundamental_number():
    corpus = [
        (fixtures.maximal_cubic_order(), -503, [2, 503]),
        (fixtures.sqrt2_order(), 8, [2, 7]),
        (order_from_polynomial(ZPoly.from_text("t^2 + 1")), -4, [2, 3]),
    ]
    quartic_max, dq = maximal_order(fixtures.quartic_poly())
    corpus.append((quartic_max, dq, [2, 13, 17]))
    for order, disc, primes in corpus:
        assert order_discriminant(order) == disc
        for p in primes:
            result = factor_p_in_order(order, p)
            assert any(e > 1 for _, e, _ in result) == (disc % p == 0)
    _report("9f", "p | D exactly when some e > 1, across the fixture corpus")


def test_criterion_9g_necklace_identity():
    for p in (2, 3, 5, 7, 65537, 2**31 - 1):
        for f in range(1, 41):
            assert sum(
                d * count_monic_irreducibles(p, d)
                for d in range(1, f + 1)
                if f % d == 0
            ) == p**f
    _report("9g", "necklace identity for p in {2, 3, 5, 7, 65537, 2^31 - 1}, f <= 40")


# -- criterion 10: non-gating stretch check ---------------------------------

def _gauss_period_quartic():
    """Minimal polynomial of the quartic period of the 13th roots of unity.

    Brute-force oracle: exact arithmetic in the cyclotomic integers as
    length-12 vectors over the power basis, reduced by the 13th
    cyclotomic polynomial; the elementary symmetric functions of the
    four periods must come out rational.
    """
    n = 12

    def reduce_vec(vec):
        v = list(vec) + [0] * (2 * n - len(vec))
        for k in range(2 * n - 1, n - 1, -1):
            c = v[k]
            if c:
                v[k] = 0
                for j in range(n):
                    v[k - n + j] -= c
        return v[:n]

    def mul(a, b):
        out = [0] * (2 * n)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return reduce_vec(out)

    def zeta_pow(k):
        k %= 13
        vec = [0] * n
        if k < n:
            vec[k] = 1
            return vec
        return reduce_vec([0] * k + [1])

    cosets = [[c * g % 13 for g in (1, 3, 9)] for c in (1, 2, 4, 8)]
    periods = []
    for coset in cosets:
        v = [0] * n
        for e in coset:
            v = [x + y for x, y in zip(v, zeta_pow(e))]
        periods.append(v)

    coeffs = [zeta_pow(0)]  # ascending coefficients of prod (t - period)
    for eta in periods:
        neg = [-x for x in eta]
        new = [[0] * n for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            new[i + 1] = [x + y for x, y in zip(new[i + 1], c)]
            new[i] = [x + y for x, y in zip(new[i], mul(c, neg))]
        coeffs = new
    out = []
    for c in coeffs:
        assert all(x == 0 for x in c[1:]), "period coefficient is not rational"
        out.append(c[0])
    return ZPoly(out)


def test_criterion_10_kronecker_quartic_stretch():
    f = _gauss_period_quartic()
    assert f == ZPoly((3, -4, 2, 1, 1))  # frozen from the oracle above
    # the four periods sum to -1 and have pairwise products consistent
    # with a degree-4 field of discriminant 13^3
    assert discriminant(f) == 3**2 * 13**3
    order, d = maximal_order(f)
    assert d == 13**3 == 2197
    result = factor_p_in_order(order, 3)
    shape = SplittingShape(3, [(fx, e) for _, e, fx in result])
    assert sorted(shape.parts) == [(1, 1)] * 4
    divisor, report = common_index_divisor(shape)
    assert divisor is True
    assert report == [(1, 4, 3)]
    _report(10, "3 splits into four degree-1 primes; 3 is a common index divisor")
