import itertools
import random
import time

import pytest

from conftest import (
    OraclePoly,
    cofactor_index_form,
    exhaustive_common_value_divisor,
    is_enlarged,
    random_monic_zpoly,
    random_power_basis_orders,
    random_renderer_coefficient,
    reference_format_multipoly,
)
from primesplit import fixtures, indexform
from primesplit.criteria import common_index_divisor
from primesplit.fppoly import PrimeModulus
from primesplit.ideals import factor_p_in_order
from primesplit.indexform import (
    _VAR_ALPHABET,
    MultiPoly,
    _monomials,
    _product_table,
    common_value_divisor,
    format_multipoly,
    index_form,
)
from primesplit.orders import (
    Order,
    cubic_family,
    element_index,
    maximal_order,
    order_from_polynomial,
)
from primesplit.zpoly import ZPoly, discriminant

MAX_CUBIC = fixtures.maximal_cubic_order()


def _coprime_cubic_family(rng, count):
    from math import gcd

    out = []
    while len(out) < count:
        vals = [rng.randrange(-9, 10) for _ in range(4)]
        g = 0
        for v in vals:
            g = gcd(g, v)
        if g == 1:
            out.append(cubic_family(*vals)[0])
    return out


def _enlarged_quintics(rng, count):
    """Maximal orders of seeded quintics whose power basis is not maximal."""
    out = []
    while len(out) < count:
        f = random_monic_zpoly(rng, 5, 9)
        disc = discriminant(f)
        if not f.coeffs[0] or not disc:
            continue
        try:
            order, fundamental = maximal_order(f)
        except ValueError:  # an integer root
            continue
        if fundamental != disc:
            out.append(order)
    return out


@pytest.fixture(scope="module")
def oracle_corpus():
    """(order, oracle form) pairs: seeded power bases of rank 2-5, cubic family,
    enlarged quintic maximal orders, fixtures."""
    rng = random.Random(2024)
    orders = []
    for rank, count in ((2, 10), (3, 10), (4, 10), (5, 6)):
        orders += random_power_basis_orders(rng, rank, count)
    orders += _coprime_cubic_family(rng, 30)
    orders += [
        maximal_order(fixtures.quartic_poly())[0],
        fixtures.sqrt2_order(),
        MAX_CUBIC,
    ]
    # the forms benchmark range, |a_i| <= 9, and bases that are not power bases
    rng = random.Random(2025)
    for rank, count in ((4, 20), (5, 8)):
        orders += random_power_basis_orders(rng, rank, count, bound=9)
    orders += _enlarged_quintics(rng, 6)
    return [(order, cofactor_index_form(order)) for order in orders]


class TestMultiPoly:
    def test_zero_coefficients_dropped(self):
        f = OraclePoly(("x", "y"), {(1, 0): 1}) - OraclePoly(("x", "y"), {(1, 0): 1})
        assert f.is_zero()
        assert f.terms == {}
        assert MultiPoly(("x", "y"), {(1, 0): 0, (0, 1): 2}).terms == {(0, 1): 2}

    def test_evaluate_refuses_wrong_point_length(self):
        with pytest.raises(ValueError, match="need 2 coordinates"):
            MultiPoly(("x", "y"), {(1, 0): 1}).evaluate((1, 2, 3))

    def test_mul_and_evaluate(self):
        x = OraclePoly.variable(("x", "y"), "x")
        y = OraclePoly.variable(("x", "y"), "y")
        f = (x + y) * (x - y)
        assert f.terms == {(2, 0): 1, (0, 2): -1}
        assert f.evaluate((5, 3)) == 16

    def test_format(self):
        f = MultiPoly(
            ("x", "y"), {(3, 0): 2, (2, 1): -1, (1, 2): -1, (0, 3): -2}
        )
        assert format_multipoly(f) == "2x^3 - x^2y - xy^2 - 2y^3"

    def test_format_off_the_memoised_monomials(self):
        # not homogeneous, or not in index-form variables: rendered term by term
        x = OraclePoly.variable(("x", "y"), "x")
        y = OraclePoly.variable(("x", "y"), "y")
        a = OraclePoly.variable(("a", "b"), "a")
        b = OraclePoly.variable(("a", "b"), "b")
        one = OraclePoly(("x", "y"), {(0, 0): 1})
        for f in (
            -(x * x * y) + 3 * x - one * 7,
            (x - y) * (x - y) * 12 + y,
            (a * a * b - b * b * 2) * -1,
            one * -5,
            MultiPoly(("x", "y"), {}),
        ):
            assert format_multipoly(f) == reference_format_multipoly(f)
        assert format_multipoly(-(x * x * y) + 3 * x - one * 7) == "-x^2y + 3x - 7"

    def test_format_matches_reference_on_seeded_polys(self):
        # zeros, +-1, constants and 30-digit coefficients, on forms in the
        # index-form variables (memoised texts) and on any other MultiPoly
        rng = random.Random(42)
        checked = 0
        for _ in range(300):
            v = rng.randrange(1, 5)
            names = _VAR_ALPHABET[:v] if rng.randrange(2) else ("a", "b", "c", "d")[:v]
            d = rng.randrange(0, 6)
            degrees = [d] if rng.randrange(2) else range(d + 1)
            terms = {
                exps: random_renderer_coefficient(rng)
                for k in degrees
                for exps in _monomials(v, k)
            }
            f = MultiPoly(names, terms)
            assert format_multipoly(f) == reference_format_multipoly(f), f.terms
            checked += not f.is_zero()
        assert checked > 250


class TestIndexForm:
    def test_maximal_cubic(self):
        form = index_form(MAX_CUBIC)
        assert form.vars == ("x", "y")
        assert form.terms == fixtures.CUBIC_INDEX_FORM_TERMS

    def test_cubic_family_closed_form(self):
        rng = random.Random(3)
        from math import gcd

        done = 0
        while done < 50:
            vals = [rng.randrange(-9, 10) for _ in range(4)]
            g = 0
            for v in vals:
                g = gcd(g, v)
            if g != 1:
                continue
            a, b, ap, bp = vals
            order, _ = cubic_family(a, b, ap, bp)
            form = index_form(order)
            expected = {
                k: v
                for k, v in {
                    (3, 0): b,
                    (2, 1): -ap,
                    (1, 2): bp,
                    (0, 3): -a,
                }.items()
                if v
            }
            assert form.terms == expected
            done += 1

    def test_power_basis_generator_has_index_one(self):
        for poly in (fixtures.cubic_poly(), fixtures.quartic_poly()):
            order = order_from_polynomial(poly)
            form = index_form(order)
            point = (1,) + (0,) * (order.n - 2)
            assert abs(form.evaluate(point)) == 1

    def test_homogeneous(self):
        for order in (
            MAX_CUBIC,
            order_from_polynomial(fixtures.quartic_poly()),
            fixtures.sqrt2_order(),
        ):
            form = index_form(order)
            n = order.n
            assert {sum(e) for e in form.terms} == {n * (n - 1) // 2}

    def test_rank_bound(self):
        big = order_from_polynomial(ZPoly.from_text("t^7 - 2"))
        with pytest.raises(ValueError, match="^index form rank 7 exceeds MAX_RANK = 6$"):
            index_form(big)

    def test_rank_one_refused(self):
        with pytest.raises(ValueError, match="needs rank >= 2, got rank 1"):
            index_form(Order([[(1,)]]))

    def test_evaluation_matches_element_index(self):
        rng = random.Random(11)
        for order in (
            MAX_CUBIC,
            fixtures.sqrt2_order(),
            order_from_polynomial(fixtures.cubic_poly()),
            order_from_polynomial(fixtures.quartic_poly()),
        ):
            form = index_form(order)
            for _ in range(100):
                coords = [rng.randrange(-9, 10) for _ in range(order.n)]
                theta = order.element(coords)
                assert abs(form.evaluate(tuple(coords[1:]))) == element_index(theta)

    def test_parity_identity_for_even_family(self):
        # a, b even and a', b' odd force the form = x^2 y + x y^2 mod 2
        rng = random.Random(13)
        from math import gcd

        done = 0
        while done < 50:
            a = 2 * rng.randrange(-4, 5)
            b = 2 * rng.randrange(-4, 5)
            ap = 2 * rng.randrange(-4, 5) + 1
            bp = 2 * rng.randrange(-4, 5) + 1
            g = 0
            for v in (a, b, ap, bp):
                g = gcd(g, v)
            if g != 1:
                continue
            order, _ = cubic_family(a, b, ap, bp)
            form = index_form(order)
            mod2 = {e: c % 2 for e, c in form.terms.items() if c % 2}
            assert mod2 == {(2, 1): 1, (1, 2): 1}
            done += 1


class TestAgainstCofactorOracle:
    def test_same_form(self, oracle_corpus):
        for order, expected in oracle_corpus:
            form = index_form(order)
            assert form.vars == expected.vars
            assert form.terms == expected.terms, order.table

    def test_same_text(self, oracle_corpus):
        # graded-lex order and signs, which form.terms == does not see
        for order, expected in oracle_corpus:
            assert format_multipoly(index_form(order)) == reference_format_multipoly(
                expected
            )

    def test_corpus_reaches_every_rank_and_enlarged_quintics(self, oracle_corpus):
        ranks = [order.n for order, _ in oracle_corpus]
        assert {2, 3, 4, 5} <= set(ranks)
        assert ranks.count(5) >= 20
        enlarged = [order for order, _ in oracle_corpus if order.n == 5 and is_enlarged(order)]
        assert len(enlarged) >= 6

    def test_rank5_time_bound(self):
        f = ZPoly.from_text("t^5 - 7*t^4 + 3*t^3 - 9*t^2 + 5*t - 8")
        order = order_from_polynomial(f)
        start = time.process_time()
        index_form(order)
        assert time.process_time() - start < 2.0

    @pytest.mark.parametrize(
        "text, maximal", [("t^6 - 2", False), ("t^6 - t^3 + 1", False), ("t^6 + 108", True)]
    )
    def test_rank6_cases(self, text, maximal):
        f = ZPoly.from_text(text)
        order = maximal_order(f)[0] if maximal else order_from_polynomial(f)
        if maximal:
            assert is_enlarged(order)
        form = index_form(order)
        assert form.vars == ("x", "y", "w", "v", "u")
        expected = cofactor_index_form(order)
        assert form == expected
        assert format_multipoly(form) == reference_format_multipoly(expected)

    def test_rank6_time_bound(self):
        # dense: 3849 terms of degree 15; the monomial tables are built afresh
        order = order_from_polynomial(ZPoly.from_text("t^6 + 3*t^2 - 7*t + 2"))
        _product_table.cache_clear()
        start = time.process_time()
        form = index_form(order)
        assert time.process_time() - start < 2.0
        assert len(form.terms) == 3849

    @pytest.mark.parametrize(
        "text, bound",
        [("t^5 - 7*t^4 + 3*t^3 - 9*t^2 + 5*t - 8", 3193), ("t^6 + 3*t^2 - 7*t + 2", 124326)],
    )
    def test_multiply_add_bound(self, monkeypatch, text, bound):
        # work, not wall time: each product costs its outer factor's nonzero
        # coefficients times its inner factor's length in multiply-adds; the
        # packed kernel multiplies in one variable fewer
        work = []
        mul_into = indexform._mul_into

        def counted(out, a, b, table, sign=1):
            work.append(sum(1 for c in a if c) * len(b))
            mul_into(out, a, b, table, sign)

        monkeypatch.setattr(indexform, "_mul_into", counted)
        index_form(order_from_polynomial(ZPoly.from_text(text)))
        assert sum(work) <= bound


def _zero_product_order(n):
    """Z + Z e1 + ... with e_i e_j = 0 for i, j >= 1: every index form value is 0."""
    zero = (0,) * n
    rows = [[zero] * n for _ in range(n)]
    rows[0] = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    for j in range(1, n):
        rows[j][0] = rows[0][j]
    return Order(rows)


def _slot_width(order):
    """The packed kernel's slot width: bitlen(A^(n(n-1)/2)) + 1, A the largest
    L1 norm of a multiplication map on the non-identity coordinates."""
    n = order.n
    a = max(sum(abs(c) for vec in row[1:] for c in vec) for row in order.table)
    return (a ** (n * (n - 1) // 2)).bit_length() + 1


def _enlarged_maximal_orders(rng, ranks):
    """Maximal orders of t^n + 8a t + 4b, |a|, |b| < 10^4, that are not Z[t]."""
    out = []
    for n in ranks:
        while True:
            a, b = (rng.choice((-1, 1)) * rng.randrange(1, 10**4) for _ in range(2))
            f = ZPoly([4 * b, 8 * a] + [0] * (n - 2) + [1])
            try:
                order, fundamental = maximal_order(f)
            except ValueError:  # an integer root, or a discriminant beyond trial division
                continue
            if fundamental != discriminant(f):
                out.append(order)
                break
    return out


@pytest.fixture(scope="module")
def packed_corpus():
    """(order, oracle form) pairs with large table entries of both signs, and zero forms."""
    rng = random.Random(2027)
    orders = []
    for rank, count in ((2, 4), (3, 4), (4, 3), (5, 2)):
        orders += random_power_basis_orders(rng, rank, count, bound=10**6)
    a, b = (rng.choice((-1, 1)) * rng.randrange(10**5, 10**6) for _ in range(2))
    orders.append(order_from_polynomial(ZPoly([b, 0, 0, a, 0, 0, 1])))
    orders += _enlarged_maximal_orders(rng, (3, 4, 5, 5, 6))
    orders += [_zero_product_order(3), _zero_product_order(6)]
    return [(order, cofactor_index_form(order)) for order in orders]


class TestPackedKernel:
    def test_same_form_as_cofactor_oracle(self, packed_corpus):
        for order, expected in packed_corpus:
            form = index_form(order)
            assert form == expected, order.table
            assert format_multipoly(form) == reference_format_multipoly(expected)

    def test_coefficients_fit_the_slots(self, packed_corpus):
        # every coefficient is a balanced digit of the slot width
        for order, expected in packed_corpus:
            top = max(map(abs, expected.terms.values()), default=0)
            assert top < 1 << (_slot_width(order) - 1)

    def test_corpus_reaches_large_entries_and_zero_forms(self, packed_corpus):
        ranks = {order.n for order, _ in packed_corpus}
        assert ranks == {2, 3, 4, 5, 6}
        entries = [
            c for order, _ in packed_corpus for row in order.table for vec in row for c in vec
        ]
        assert min(entries) < -10**5 and max(entries) > 10**5
        zero = [order.n for order, form in packed_corpus if form.is_zero()]
        assert zero == [3, 6]
        enlarged = [order.n for order, _ in packed_corpus if is_enlarged(order)]
        assert enlarged == [3, 4, 5, 5, 6]


class TestProductTables:
    def test_tables_match_exponent_addition(self):
        for v in range(5):
            for d in range(11):
                expected = {
                    e for e in itertools.product(range(d + 1), repeat=v) if sum(e) == d
                }
                assert len(_monomials(v, d)) == len(expected)
                assert set(_monomials(v, d)) == expected
            for d1 in range(11):
                left = _monomials(v, d1)
                for d2 in range(11 - d1):
                    right = _monomials(v, d2)
                    product = _monomials(v, d1 + d2)
                    table = _product_table(v, d1, d2)
                    assert len(table) == len(left)
                    for e1, row in zip(left, table):
                        assert len(row) == len(right)
                        for e2, k in zip(right, row):
                            assert product[k] == tuple(a + b for a, b in zip(e1, e2))


class TestCommonValueDivisor:
    def test_matches_exhaustive_oracle(self, oracle_corpus):
        verdicts = []
        for _, form in oracle_corpus:
            for p in (2, 3, 5, 7):
                expected = exhaustive_common_value_divisor(form, p)
                assert common_value_divisor(form, p) is expected, (form, p)
                verdicts.append(expected)
        assert True in verdicts and False in verdicts

    def test_degree_below_p_matches_exhaustive_oracle(self, oracle_corpus):
        # every exponent is below p, so no exponent is reduced; the scaled and
        # nearly scaled copies give True and False verdicts on the same path
        verdicts = []
        for _, form in oracle_corpus:
            if len(form.vars) > 3:
                continue
            for p in (11, 13):
                assert max(map(sum, form.terms)) < p
                lead, _ = form.ordered_terms()[0]
                scaled = MultiPoly(form.vars, {e: p * c for e, c in form.terms.items()})
                nearly = MultiPoly(
                    form.vars, {e: c if e == lead else p * c for e, c in form.terms.items()}
                )
                for f in (form, scaled, nearly):
                    expected = exhaustive_common_value_divisor(f, p)
                    assert common_value_divisor(f, p) is expected, (f, p)
                    verdicts.append(expected)
        assert True in verdicts and False in verdicts

    def test_composite_modulus_rejected(self):
        form = MultiPoly(("x", "y"), fixtures.CUBIC_INDEX_FORM_TERMS)
        with pytest.raises(ValueError, match="not prime"):
            common_value_divisor(form, 4)

    def test_cubic_form_examples(self):
        form = MultiPoly(("x", "y"), fixtures.CUBIC_INDEX_FORM_TERMS)
        assert common_value_divisor(form, 2) is True
        assert common_value_divisor(form, 3) is False
        # spot value used to justify the mod-3 verdict
        assert form.evaluate((1, 1)) == -2

    def test_single_variable(self):
        x = MultiPoly(("x",), {(1,): 1})
        for p in (2, 3, 5):
            assert common_value_divisor(x, p) is False

    def test_consistency_with_splitting_criterion(self):
        # common divisor of index-form values == common index divisor from
        # the true splitting shape, across the fixture corpus
        cases = []
        cases.append((MAX_CUBIC, [2, 3, 5]))
        quartic_max, _ = maximal_order(fixtures.quartic_poly())
        cases.append((quartic_max, [2, 3]))
        cases.append((fixtures.sqrt2_order(), [2, 3]))
        for order, ps in cases:
            form = index_form(order)
            for p in ps:
                modulus = PrimeModulus(p)
                divisor, _ = common_index_divisor(factor_p_in_order(order, modulus).shape)
                assert common_value_divisor(form, modulus) == divisor, (p,)
