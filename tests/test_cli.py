import json
import os
import subprocess
import sys
import time

import pytest

import primesplit
from conftest import cofactor_index_form, exhaustive_common_value_divisor
from primesplit import cli, criteria, orders
from primesplit.cli import _int_digits_unlimited, _paper_checks, main
from primesplit.indexform import format_multipoly
from primesplit.orders import order_from_polynomial
from primesplit.zpoly import ZPoly, discriminant


def run_cli(*argv):
    """Run the CLI in-process, capturing stdout/stderr and the exit status."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue(), err.getvalue()


def child_env(**extra):
    """The caller's environment, with this suite's primesplit first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(primesplit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


class TestFactorModP:
    def test_cubic(self):
        status, out, _ = run_cli("factor-mod-p", "t^3-t^2-2t-8", "2")
        assert status == 0
        assert out.splitlines()[0] == "poly_mod_p: t^3 + t^2"
        assert "cofactor_m: t + 4" in out
        assert "poly: t" in out and "e: 2" in out

    def test_sqrt2_mod_7(self):
        status, out, _ = run_cli("factor-mod-p", "t^2-2", "7")
        assert status == 0
        assert "poly: t + 3" in out
        assert "poly: t + 4" in out

    def test_composite_modulus(self):
        status, _, err = run_cli("factor-mod-p", "t", "4")
        assert status == 2
        assert "not prime" in err

    def test_parse_error(self):
        status, _, err = run_cli("factor-mod-p", "t^^3", "2")
        assert status == 2
        assert "bad polynomial" in err


class TestDiscriminant:
    def test_cubic(self):
        status, out, _ = run_cli("discriminant", "t^3-t^2-2t-8")
        assert status == 0
        assert "discriminant: -2012" in out

    def test_constant_is_usage_error(self):
        # a monic constant has no discriminant
        status, out, err = run_cli("discriminant", "1")
        assert status == 2
        assert out == ""
        assert err == "error: discriminant requires degree >= 1\n"

    def test_exponent_above_the_degree_bound_is_refused(self):
        status, out, err = run_cli("discriminant", "t^10000000 + 1")
        assert (status, out) == (2, "")
        assert err == (
            "error: bad polynomial 't^10000000 + 1': "
            "exponent 10000000 exceeds DEGREE_BOUND = 4096\n"
        )

    def test_prints_integers_of_any_size(self):
        # the value has over 10^4 digits, past the interpreter's default
        # int-to-str limit, which main lifts only while it runs
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        expected = discriminant(ZPoly.from_text("t^3000+t+1"))
        status, out, _ = run_cli("discriminant", "t^3000+t+1")
        assert status == 0
        with _int_digits_unlimited():
            assert out == "discriminant: %d\n" % expected
        status, out, _ = run_cli("--json", "discriminant", "t^3000+t+1")
        assert status == 0
        with _int_digits_unlimited():
            assert json.loads(out)["results"]["discriminant"] == expected
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        if limit is not None and 0 < limit < 5000:
            with pytest.raises(ValueError):
                str(10**5000)


class TestDedekindCriterion:
    def test_cubic(self):
        status, out, _ = run_cli("--json", "dedekind-criterion", "t^3-t^2-2t-8", "2")
        assert status == 0
        payload = json.loads(out)
        assert list(payload["results"]) == ["p", "index_divisible", "witness", "cofactor_m"]
        assert payload["results"]["index_divisible"] is True
        assert payload["results"]["witness"] == {"poly": "t", "e": 2}
        assert payload["results"]["cofactor_m"] == "t + 4"

    def test_not_divisible(self):
        status, out, _ = run_cli("--json", "dedekind-criterion", "t^2-50t-833", "7")
        payload = json.loads(out)
        assert status == 0
        assert list(payload["results"]) == ["p", "index_divisible", "cofactor_m"]
        assert payload["results"]["index_divisible"] is False

    def test_large_constant_term(self):
        status, _, _ = run_cli("dedekind-criterion", "t^3 - 1000000000000000001", "3")
        assert status == 0


class TestSplitPrime:
    def test_good_path(self):
        status, out, _ = run_cli("--json", "split-prime", "t^2-2", "7")
        payload = json.loads(out)
        assert status == 0
        results = payload["results"]
        assert list(results) == ["p", "parts", "index_divisible", "generators"]
        assert results["index_divisible"] is False
        assert results["parts"] == [{"f": 1, "e": 1}, {"f": 1, "e": 1}]
        assert [list(g.items()) for g in results["generators"]] == [
            [("p", 7), ("generator", "t + 3"), ("e", 1), ("f", 1)],
            [("p", 7), ("generator", "t + 4"), ("e", 1), ("f", 1)],
        ]

    def test_skewed_generator(self):
        status, out, _ = run_cli("--json", "split-prime", "t^2-50t-833", "7")
        payload = json.loads(out)
        assert status == 0
        assert payload["results"]["index_divisible"] is False
        assert payload["results"]["parts"] == [{"f": 1, "e": 1}, {"f": 1, "e": 1}]

    def test_index_divisor_path(self):
        status, out, _ = run_cli("--json", "split-prime", "t^3-t^2-2t-8", "2")
        payload = json.loads(out)
        assert status == 0
        results = payload["results"]
        assert results["index_divisible"] is True
        assert results["fundamental_number"] == -503
        assert results["common_index_divisor"] is True
        assert sorted(i["basis"] for i in results["ideals"]) == [
            "[2, 1+a, w2]",
            "[2, a, 1+w2]",
            "[2, a, w2]",
        ]

    def test_sextic_index_divisor(self):
        # p^n = 117649: the order route must not depend on p^n
        status, out, _ = run_cli("--json", "split-prime", "t^6+343", "7")
        assert status == 0
        results = json.loads(out)["results"]
        assert results["index_divisible"] is True
        assert results["parts"] == [{"f": 1, "e": 2}] * 3
        assert results["fundamental_number"] == -3087

    def test_rank9_totally_ramified(self):
        status, out, _ = run_cli("--json", "split-prime", "t^9-54", "3")
        assert status == 0
        assert json.loads(out)["results"]["parts"] == [{"f": 1, "e": 9}]

    def test_rank24_split_after_round2(self):
        # t^24 - 54 is not 3-regular (residual polynomial (y + 1)^3), so
        # Round 2 runs in the maximal order, which carries its proof, so
        # the split starts from the radical and runs no Round 2 step
        status, out, _ = run_cli("split-prime", "t^24 - 54", "3")
        assert status == 0
        assert out.splitlines()[5:10] == [
            "fundamental_number: -24468564110761075452266287672983242561028096",
            "ideals:",
            "    basis: [3, a, a^2, a^3, a^4, a^5, a^6, a^7, 1+w8, w9, w10, w11, w12, w13, "
            "w14, w15, 2+w16, w17, w18, w19, w20, w21, w22, w23]",
            "    e: 24",
            "    f: 1",
        ]

    @pytest.mark.parametrize(
        "poly, p",
        [("t^3-t^2-2t-8", 2), ("t^6+343", 7), ("t^9-54", 3), ("t^3-108", 3), ("t^2-45", 3)],
    )
    def test_order_route_factors_f_mod_p_once(self, monkeypatch, poly, p):
        # the verdict that sends the query to the order route already holds
        # the factors of f mod p and the cofactor; the screen runs twice,
        # in index_divisible and in maximal_order
        factored, screened = [], []
        real_factor, real_screen = criteria.fp_factor, criteria.rational_root_screen

        def factor(g):
            factored.append(g.p)
            return real_factor(g)

        def screen(f):
            screened.append(f)
            return real_screen(f)

        monkeypatch.setattr(criteria, "fp_factor", factor)
        for module in (criteria, orders):
            monkeypatch.setattr(module, "rational_root_screen", screen)
        status, out, _ = run_cli("--json", "split-prime", poly, str(p))
        assert status == 0
        assert json.loads(out)["results"]["index_divisible"] is True
        assert factored.count(p) == 1
        assert len(screened) == 2

    def test_order_route_hands_the_discriminant_to_the_split(self, monkeypatch):
        # D = -503 has v_2(D) = 0, which proves the order 2-maximal, and
        # f is regular at 2, so no Round 2 step runs on Ore's ring; the
        # order maximal_order returns carries its proof into the split
        calls = []
        real_multipliers, real_split = orders.multipliers_mod_p, cli.factor_p_in_order

        def multipliers(*args):
            calls.append(args[1])
            return real_multipliers(*args)

        def split(*args):
            calls.append("split")
            return real_split(*args)

        monkeypatch.setattr(orders, "multipliers_mod_p", multipliers)
        monkeypatch.setattr(cli, "factor_p_in_order", split)
        status, out, _ = run_cli("split-prime", "t^3 - t^2 - 2*t - 8", "2")
        assert status == 0
        lines = out.splitlines()
        assert "fundamental_number: -503" in lines
        for basis in ("[2, a, w2]", "[2, a, 1+w2]", "[2, 1+a, w2]"):
            assert "    basis: %s" % basis in lines
        assert calls == ["split"]
        calls.clear()

        # D = 2^8 * 3^16: t^9 - 54 is not 3-regular, so Round 2 runs in
        # maximal_order, and the split makes no Round 2 call of its own
        status, out, _ = run_cli("--json", "split-prime", "t^9-54", "3")
        assert status == 0
        assert json.loads(out)["results"]["fundamental_number"] == 2**8 * 3**16
        assert calls == [3, 3, 3, 3, "split"]

    def test_order_route_computes_the_discriminant_once(self, monkeypatch):
        # the maximal order keeps D, so the split reads v_p(D) off it
        calls = []
        real = orders.bareiss_determinant

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(orders, "bareiss_determinant", counting)
        for argv in (
            ("split-prime", "t^9 - 54", "3"),
            ("split-prime", "t^3 - t^2 - 2*t - 8", "2"),
            ("maximal-order", "t^9 - 54"),
        ):
            calls.clear()
            status, _, _ = run_cli(*argv)
            assert status == 0
            assert len(calls) == 1, argv

    def test_primes_above_2_31(self):
        # 2^32 + 15 = 7 mod 8, so 2 is a square: 2348684638^2 = 2
        p = 2**32 + 15
        status, out, _ = run_cli("--json", "split-prime", "t^2 - 2", str(p))
        assert status == 0
        results = json.loads(out)["results"]
        assert [g["generator"] for g in results["generators"]] == [
            "t + 1946282673",
            "t + 2348684638",
        ]
        assert pow(2348684638, 2, p) == 2
        # t^2 - 3q^2 with q = 2^31 + 11 = 7 mod 12: 3 is not a square mod q
        q = 2**31 + 11
        status, out, _ = run_cli("--json", "split-prime", "t^2 - %d" % (3 * q * q), str(q))
        assert status == 0
        results = json.loads(out)["results"]
        assert (results["index_divisible"], results["fundamental_number"]) == (True, 12)
        assert results["parts"] == [{"f": 2, "e": 1}]
        # t^3 - 2q^2 with q = 2^64 - 59 and 2q^2 = -1 mod 9: D = -12q^2
        q = 2**64 - 59
        status, out, _ = run_cli("--json", "split-prime", "t^3 - %d" % (2 * q * q), str(q))
        assert status == 0
        results = json.loads(out)["results"]
        assert results["fundamental_number"] == -12 * q * q
        assert results["parts"] == [{"f": 1, "e": 3}]

    def test_modulus_above_the_primality_bound_is_refused(self):
        status, _, err = run_cli("factor-mod-p", "t^2 + 1", "3317044064679887385961993")
        assert status == 2
        assert err.startswith("error: bad prime 3317044064679887385961993: ")
        assert "3317044064679887385961981" in err

    def test_bound_caps_trial_division(self):
        status, _, err = run_cli("--bound", "1", "split-prime", "t^3-t^2-2t-8", "2")
        assert status == 2
        assert "trial-division bound 1" in err


class TestCommonIndexDivisorCommand:
    def test_shapes(self):
        status, out, _ = run_cli("--json", "common-index-divisor", "2", "1:1,1:1,1:1")
        payload = json.loads(out)
        assert status == 0
        assert payload["results"]["common_index_divisor"] is True
        status, out, _ = run_cli("--json", "common-index-divisor", "3", "1:1,1:1,1:1")
        assert json.loads(out)["results"]["common_index_divisor"] is False

    def test_json_schema(self):
        # a shape's parts keep their given order, f before e
        status, out, _ = run_cli("--json", "common-index-divisor", "2", "1:2,1:1")
        assert status == 0
        results = json.loads(out)["results"]
        assert list(results) == ["p", "parts", "common_index_divisor", "supply"]
        assert results["p"] == 2
        assert [list(part.items()) for part in results["parts"]] == [
            [("f", 1), ("e", 2)],
            [("f", 1), ("e", 1)],
        ]

    def test_bad_shape(self):
        # the parser's own message, never Python's unpacking or int() one;
        # a shape that parses keeps SplittingShape's reason
        for shape, reason in [
            ("nonsense", ""),
            ("1:1:1", ""),
            ("1:1,", ""),
            ("1:x", ""),
            ("0:1", ": degrees and exponents must be positive"),
        ]:
            status, out, err = run_cli("common-index-divisor", "2", shape)
            assert (status, out) == (2, "")
            assert err == "error: bad shape %r (want f:e,f:e,...)%s\n" % (shape, reason)

    def test_shape_above_the_degree_bound_is_refused_at_once(self):
        start = time.process_time()
        status, out, err = run_cli("common-index-divisor", "2", "1000000:1")
        assert time.process_time() - start < 0.5
        assert (status, out) == (2, "")
        assert err == (
            "error: bad shape '1000000:1' (want f:e,f:e,...): "
            "shape degree 1000000 exceeds DEGREE_BOUND = 4096\n"
        )
        # the largest accepted shape still reports its exact supply
        status, out, _ = run_cli("--json", "common-index-divisor", "2", "4096:1")
        assert status == 0
        with _int_digits_unlimited():
            supply = json.loads(out)["results"]["supply"]
        assert supply[0]["degree"] == 4096
        assert supply[0]["available"] == (2**4096 - 2**2048) // 4096


class TestMaximalOrderCommand:
    def test_quartic(self):
        status, out, _ = run_cli("--json", "maximal-order", "t^4-t^3+t^2-2t+4")
        payload = json.loads(out)
        assert status == 0
        assert payload["results"]["fundamental_number"] == 2873
        assert payload["results"]["discriminant_power_basis"] == 11492

    def test_discriminant_computed_once(self, monkeypatch):
        calls = []
        real = orders.discriminant

        def counting(f):
            calls.append(f)
            return real(f)

        for module in (cli, orders):
            monkeypatch.setattr(module, "discriminant", counting)
        status, out, _ = run_cli("--json", "maximal-order", "t^3-t^2-2t-8")
        assert status == 0
        assert json.loads(out)["results"]["discriminant_power_basis"] == -2012
        assert len(calls) == 1

    def test_squarefree_discriminant(self):
        status, out, _ = run_cli("--json", "maximal-order", "t^3-t-1")
        results = json.loads(out)["results"]
        assert status == 0
        assert results["fundamental_number"] == -23
        assert results["basis_in_power_coordinates"] == [
            "[1, 0, 0]", "[0, 1, 0]", "[0, 0, 1]"
        ]

    def test_trial_division_bound_exceeded(self):
        status, _, err = run_cli(
            "--bound", "1", "maximal-order", "t^3-t^2-2t-8"
        )
        assert status == 2
        assert "bound" in err

    def test_bound_zero_is_not_the_default(self):
        # with the default bound the cubic's discriminant -2012 factors
        status, _, _ = run_cli("maximal-order", "t^3-t^2-2t-8")
        assert status == 0
        for command in (
            ["maximal-order", "t^3-t^2-2t-8"],
            ["split-prime", "t^3-t^2-2t-8", "2"],
            ["index-form", "t^3-t^2-2t-8", "--maximal"],
        ):
            status, _, err = run_cli("--bound", "0", *command)
            assert status == 2
            assert err.startswith("error: ")
            assert "trial-division bound 0" in err

    def test_prime_square_above_the_modulus_cap(self):
        # disc = 12 q^2 with q = 2^31 + 11, a modulus above 2^31: trial
        # factoring finds q^2 at once, and t^2 - 3q^2 gives Z[sqrt 3]
        start = time.process_time()
        status, out, err = run_cli("maximal-order", "t^2 - 13835058197016084843")
        assert time.process_time() - start < 2
        assert (status, err) == (0, "")
        lines = out.splitlines()
        assert "fundamental_number: 12" in lines
        assert lines[-2:] == ["  - [1, 0]", "  - [0, 1/2147483659]"]


class TestIndexFormCommand:
    def test_maximal_cubic_form(self):
        # the computed maximal order uses its own canonical basis, so the
        # form is a unimodular change of variables away from the bracket
        # basis version; its value set (hence evenness) is unchanged
        status, out, _ = run_cli(
            "--json", "index-form", "t^3-t^2-2t-8", "--maximal", "--divisor", "2"
        )
        payload = json.loads(out)
        assert status == 0
        assert payload["results"]["index_form"] == "2x^3 + 5x^2y + 3xy^2 - 2y^3"
        assert payload["results"]["common_value_divisor"]["divides_all_values"] is True

    def test_power_basis_form(self):
        status, out, _ = run_cli("--json", "index-form", "t^2-2", "--divisor", "3")
        payload = json.loads(out)
        assert status == 0
        assert payload["results"]["index_form"] == "x"
        assert payload["results"]["common_value_divisor"]["divides_all_values"] is False

    def test_rank5_form_matches_cofactor_oracle(self):
        poly = "t^5 - 3t^4 + 7t^2 - t + 6"
        status, out, _ = run_cli("--json", "index-form", poly, "--divisor", "3")
        payload = json.loads(out)
        assert status == 0
        expected = cofactor_index_form(order_from_polynomial(ZPoly.from_text(poly)))
        assert payload["results"]["index_form"] == format_multipoly(expected)
        assert payload["results"]["common_value_divisor"] == {
            "p": 3,
            "divides_all_values": exhaustive_common_value_divisor(expected, 3),
        }

    def test_divisor_beyond_a_million_points(self):
        status, out, _ = run_cli("--json", "index-form", "t^5+t+1", "--divisor", "101")
        payload = json.loads(out)
        assert status == 0
        # the generator t has index 1, so 101 cannot divide every value
        assert payload["results"]["common_value_divisor"] == {
            "p": 101,
            "divides_all_values": False,
        }

    def test_divisor_refused_before_the_form_is_built(self, monkeypatch):
        def no_form(order):
            raise AssertionError("index_form ran before --divisor was checked")

        monkeypatch.setattr(cli, "index_form", no_form)
        status, out, err = run_cli("index-form", "t^6+t+1", "--divisor", "4")
        assert status == 2
        assert out == "" and err == "error: bad prime 4: modulus 4 is not prime\n"

    def test_unsupported_orders_are_usage_errors(self):
        for poly in ("t^7+1", "2t^3+1", "t+1"):
            status, out, err = run_cli("index-form", poly)
            assert status == 2, poly
            assert out == "" and err.startswith("error: "), poly


class TestPaperExamples:
    def test_all_pass(self):
        status, out, _ = run_cli("paper-examples")
        assert status == 0
        assert "0 failed" in out
        assert "FAIL" not in out

    def test_json_mode(self):
        status, out, _ = run_cli("--json", "paper-examples")
        payload = json.loads(out)
        assert status == 0
        assert payload["results"]["failed"] == 0
        assert all(c["ok"] for c in payload["results"]["checks"])

    def test_fault_injection_named(self):
        status, out, _ = run_cli("paper-examples", "--inject-fault", "cubic_cofactor_m")
        assert status == 1
        assert "FAIL cubic_cofactor_m" in out
        assert "expected" in out and "computed" in out

    def test_injecting_each_id_fails_exactly_that_check(self):
        ids = [check_id for check_id, _, _ in _paper_checks()]
        assert len(ids) == 43 and len(set(ids)) == 43
        for check_id in ids:
            status, out, _ = run_cli("--json", "paper-examples", "--inject-fault", check_id)
            assert status == 1, check_id
            results = json.loads(out)["results"]
            failed = [check["id"] for check in results["checks"] if not check["ok"]]
            assert failed == [check_id]
            assert results["failed"] == 1 and results["passed"] == 42

    def test_fault_injection_unknown_id_is_a_usage_error(self):
        status, out, err = run_cli("paper-examples", "--inject-fault", "no_such_check")
        assert status == 2
        assert out == ""
        assert "'no_such_check'" in err

    def test_matches_golden_report(self):
        golden = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "perfbench",
            "golden",
            "paper_examples.json",
        )
        with open(golden, encoding="utf-8") as fh:
            expected = fh.read()
        status, out, _ = run_cli("--json", "paper-examples")
        assert status == 0
        assert out == expected

    def test_golden_stability(self):
        runs = [run_cli("--json", "paper-examples") for _ in range(2)]
        assert runs[0] == runs[1]
        text_runs = [run_cli("split-prime", "t^2-2", "7") for _ in range(2)]
        assert text_runs[0] == text_runs[1]


# one input per subcommand that the library refuses, with its message
REFUSALS = [
    (["factor-mod-p", "2t^3+1", "7"], "expected a monic polynomial"),
    (["discriminant", "2t^2+1"], "discriminant requires a monic polynomial"),
    (["dedekind-criterion", "t^2-1", "3"], "polynomial is reducible (integer root 1)"),
    (["split-prime", "2*t^2 + 1", "7"], "expected a monic polynomial"),
    (["common-index-divisor", "2", "0:1"], "degrees and exponents must be positive"),
    (["maximal-order", "t^2-2t+1"], "polynomial is reducible (integer root 1)"),
    (["index-form", "t^7+1"], "index form rank 7 exceeds MAX_RANK = 6"),
    (["paper-examples", "--inject-fault", "no_such_check"], "no check named"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[argv[0] for argv, _ in REFUSALS])
def test_every_subcommand_prints_the_library_refusal(argv, message):
    status, out, err = run_cli(*argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [["maximal-order"], ["split-prime", "3"]], ids=lambda a: a[0])
def test_repeated_root_refused(argv):
    # (t^2 + 1)^2 passes the rational-root screen; its discriminant refuses it
    status, out, err = run_cli(argv[0], "t^4 + 2*t^2 + 1", *argv[1:])
    assert status == 2
    assert out == ""
    assert err == "error: polynomial has a repeated root (discriminant 0)\n"


class TestEntryPoint:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "primesplit.cli", "discriminant", "t^2+1"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "discriminant: -4" in proc.stdout

    def test_plain_output_env_accepted(self):
        proc = subprocess.run(
            [sys.executable, "-m", "primesplit.cli", "discriminant", "t^2+1"],
            capture_output=True,
            text=True,
            env=child_env(PLAIN_OUTPUT="1"),
        )
        assert proc.returncode == 0
        assert proc.stdout.isascii()
