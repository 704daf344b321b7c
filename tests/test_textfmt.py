import random
import time

import pytest

from conftest import (
    random_renderer_coefficient,
    reference_bracket_entry,
    reference_format_poly,
)
from primesplit.integers import DEGREE_BOUND
from primesplit.textfmt import bracket_entry, format_poly, parse_poly, signed_sum


def test_parse_basic():
    assert parse_poly("t^3 - t^2 - 2*t - 8") == [-8, -2, -1, 1]
    assert parse_poly("t^2-50t-833") == [-833, -50, 1]
    assert parse_poly("7") == [7]
    assert parse_poly("-t") == [0, -1]
    assert parse_poly("t + t") == [0, 2]


def test_parse_whitespace_insensitive():
    assert parse_poly("  t ^3- t^ 2 -2* t- 8 ") == parse_poly("t^3-t^2-2t-8")


def test_parse_star_optional():
    assert parse_poly("2*t") == parse_poly("2t") == [0, 2]


def test_format_styles():
    assert format_poly([-8, -2, -1, 1]) == "t^3 - t^2 - 2*t - 8"
    assert format_poly([]) == "0"
    assert format_poly([0, 1]) == "t"
    assert format_poly([1, -1]) == "-t + 1"
    assert format_poly([5]) == "5"


def test_round_trip():
    rng = random.Random(7)
    for draw in (lambda: rng.randrange(-20, 21), lambda: random_renderer_coefficient(rng)):
        for _ in range(200):
            coeffs = [draw() for _ in range(rng.randrange(1, 8))]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            assert parse_poly(format_poly(coeffs)) == coeffs
    # unit and 30-digit coefficients on every power, and the constant 1
    big = 10**29 + 7
    for coeffs in ([1, 1, 1], [-1, -1, -1], [1, 0, -1], [big, -big, big], [-big, 1, -1, big]):
        assert parse_poly(format_poly(coeffs)) == coeffs


class TestSignedSum:
    """The one writer of signed sums, and the renderers that call it against their oracles."""

    def test_joiners_units_and_times(self):
        terms = [(-1, "x"), (2, "y"), (-3, ""), (1, ""), (0, "z"), (-1, "w")]
        assert signed_sum(terms) == "-x + 2y - 3 + 1 - w"
        assert signed_sum(terms, spaced=False) == "-x+2y-3+1-w"
        assert signed_sum(terms, times="*") == "-x + 2*y - 3 + 1 - w"
        assert signed_sum([(5, "t"), (-1, "")], times="*") == "5*t - 1"
        assert signed_sum([(-7, "")]) == "-7"

    def test_empty_and_zero_sums(self):
        for spaced in (True, False):
            assert signed_sum([], spaced=spaced) == "0"
            assert signed_sum([(0, "x"), (0, "")], spaced=spaced) == "0"

    def test_format_poly_matches_reference(self):
        rng = random.Random(40)
        cases = [[], [0], [0, 0], [1], [-1], [0, 1], [0, -1], [1, -1], [-5], [10**30]]
        for _ in range(500):
            cases.append([random_renderer_coefficient(rng) for _ in range(rng.randrange(9))])
        for coeffs in cases:
            assert format_poly(coeffs) == reference_format_poly(coeffs), coeffs
            assert format_poly(tuple(coeffs)) == reference_format_poly(coeffs), coeffs

    def test_bracket_entry_matches_reference(self):
        rng = random.Random(41)
        # the label "1" is the constant wherever it stands
        label_sets = [("1", "a", "w2", "w3"), ("a", "1", "b"), ("r",), ("1",), ("1", "a", "a^2")]
        cases = [([0, 0, 0, 0], label_sets[0]), ([1, -1, 1, -1], label_sets[0]), ([-1], ("1",))]
        for _ in range(500):
            labels = rng.choice(label_sets)
            cases.append(([random_renderer_coefficient(rng) for _ in labels], labels))
        for coords, labels in cases:
            expected = reference_bracket_entry(coords, labels)
            assert bracket_entry(coords, labels) == expected, (coords, labels)
            assert bracket_entry(tuple(coords), labels) == expected, (coords, labels)


def test_parse_errors():
    for bad in ("", "t^", "t +", "++t", "t*t", "&", "x^2 + 1"):
        with pytest.raises(ValueError):
            parse_poly(bad)
    # a "*" with no coefficient before it
    for bad in ("*t", "-*t", "* t^2", "*7", "t^2 + *t - 1"):
        with pytest.raises(ValueError, match="cannot parse polynomial at"):
            parse_poly(bad)


class TestDegreeBound:
    def test_exponent_at_the_bound_parses(self):
        assert parse_poly("t^%d - 1" % DEGREE_BOUND) == [-1] + [0] * (DEGREE_BOUND - 1) + [1]
        assert DEGREE_BOUND == 4096

    def test_exponent_above_the_bound_is_refused_before_any_list_is_built(self):
        for e in (DEGREE_BOUND + 1, 10**7, 10**50):
            start = time.process_time()
            with pytest.raises(ValueError) as info:
                parse_poly("t^%d + 1" % e)
            assert time.process_time() - start < 0.1
            assert str(info.value) == "exponent %d exceeds DEGREE_BOUND = %d" % (e, DEGREE_BOUND)
        # a term that cancels is still refused: the bound is on the text
        with pytest.raises(ValueError, match="DEGREE_BOUND"):
            parse_poly("t^5000 - t^5000 + 1")
