import pytest

from primesplit.textfmt import format_poly, parse_poly


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
    import random

    rng = random.Random(7)
    for _ in range(200):
        coeffs = [rng.randrange(-20, 21) for _ in range(rng.randrange(1, 8))]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        assert parse_poly(format_poly(coeffs)) == coeffs


def test_parse_errors():
    for bad in ("", "t^", "t +", "++t", "t*t", "&", "x^2 + 1"):
        with pytest.raises(ValueError):
            parse_poly(bad)
    # a "*" with no coefficient before it
    for bad in ("*t", "-*t", "* t^2", "*7", "t^2 + *t - 1"):
        with pytest.raises(ValueError, match="cannot parse polynomial at"):
            parse_poly(bad)
