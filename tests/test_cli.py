import json
import os
import subprocess
import sys

import primesplit
from conftest import cofactor_index_form, exhaustive_common_value_divisor
from primesplit.cli import main
from primesplit.indexform import format_multipoly
from primesplit.orders import order_from_polynomial
from primesplit.zpoly import ZPoly


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


class TestDedekindCriterion:
    def test_cubic(self):
        status, out, _ = run_cli("--json", "dedekind-criterion", "t^3-t^2-2t-8", "2")
        assert status == 0
        payload = json.loads(out)
        assert payload["results"]["index_divisible"] is True
        assert payload["results"]["witness"] == {"poly": "t", "e": 2}
        assert payload["results"]["cofactor_m"] == "t + 4"

    def test_not_divisible(self):
        status, out, _ = run_cli("--json", "dedekind-criterion", "t^2-50t-833", "7")
        payload = json.loads(out)
        assert status == 0
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
        assert results["index_divisible"] is False
        assert results["parts"] == [{"f": 1, "e": 1}, {"f": 1, "e": 1}]
        assert [g["generator"] for g in results["generators"]] == ["t + 3", "t + 4"]

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

    def test_bad_shape(self):
        status, _, err = run_cli("common-index-divisor", "2", "nonsense")
        assert status == 2


class TestMaximalOrderCommand:
    def test_quartic(self):
        status, out, _ = run_cli("--json", "maximal-order", "t^4-t^3+t^2-2t+4")
        payload = json.loads(out)
        assert status == 0
        assert payload["results"]["fundamental_number"] == 2873
        assert payload["results"]["discriminant_power_basis"] == 11492

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

    def test_unsupported_orders_are_usage_errors(self):
        for poly in ("t^6+1", "2t^3+1", "t+1"):
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
