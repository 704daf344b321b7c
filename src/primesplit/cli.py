"""Command-line interface.

Subcommands cover the pipeline pieces (factor-mod-p, discriminant,
dedekind-criterion, split-prime, common-index-divisor, maximal-order,
index-form) plus paper-examples, which recomputes the whole worked
fixture suite and exits nonzero on any mismatch.

Output is plain ASCII (basis labels a, b, ... stand in for Greek
letters) and deterministic, so reports are usable as golden files.
Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import fixtures
from .criteria import (
    IndexDivisorError,
    SplittingShape,
    common_index_divisor,
    factor_prime_via_polynomial,
    factorization_with_cofactor,
    index_divisible,
)
from .fppoly import FpPoly, PrimeModulus, enumerate_monic_irreducibles
from .ideals import (
    LatticeIdeal,
    bracket_str,
    crt_good_generator,
    factor_p_in_order,
    ideal_product,
    principal_ideal,
    whole_order,
)
from .indexform import common_value_divisor, format_multipoly, index_form
from .orders import (
    DEFAULT_TRIAL_BOUND,
    char_poly,
    cubic_family,
    element_index,
    maximal_order,
    order_discriminant,
    order_from_polynomial,
)
from .zpoly import ZPoly, discriminant, reduce_mod


class UsageError(ValueError):
    pass


@dataclass
class RunReport:
    """Deterministic result bundle for one CLI invocation."""

    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    status: int = 0

    def to_json(self):
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "status": self.status,
        }
        return json.dumps(payload, indent=2, sort_keys=False)

    def to_text(self):
        lines = []
        _render(self.results, lines, "")
        return "\n".join(lines)


def _render(value, lines, indent):
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (indent, k))
                _render(v, lines, indent + "  ")
            else:
                lines.append("%s%s: %s" % (indent, k, v))
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                _render(v, lines, indent + "  ")
            else:
                lines.append("%s- %s" % (indent, v))
    else:
        lines.append("%s%s" % (indent, value))


def _parse_poly_arg(text):
    try:
        return ZPoly.from_text(text)
    except ValueError as exc:
        raise UsageError("bad polynomial %r: %s" % (text, exc))


def _parse_prime_arg(p):
    try:
        return PrimeModulus(int(p))
    except (TypeError, ValueError) as exc:
        raise UsageError("bad prime %r: %s" % (p, exc))


def _parse_shape_arg(modulus, text):
    parts = []
    try:
        for chunk in text.split(","):
            f, e = chunk.split(":")
            parts.append((int(f), int(e)))
        return SplittingShape(modulus, parts)
    except ValueError as exc:
        raise UsageError("bad shape %r (want f:e,f:e,...): %s" % (text, exc))


def cmd_factor_mod_p(args):
    f = _parse_poly_arg(args.poly)
    modulus = _parse_prime_arg(args.p)
    if not f.is_monic():
        raise UsageError("polynomial must be monic")
    factors, m = factorization_with_cofactor(f, modulus, seed=args.seed)
    results = {
        "poly_mod_p": str(reduce_mod(f, modulus)),
        "factors": [{"poly": str(g), "e": e} for g, e in factors],
        "cofactor_m": str(m),
    }
    return RunReport("factor-mod-p", {"poly": str(f), "p": modulus.p}, results)


def cmd_discriminant(args):
    f = _parse_poly_arg(args.poly)
    if not f.is_monic():
        raise UsageError("polynomial must be monic")
    try:
        disc = discriminant(f)
    except ValueError as exc:
        raise UsageError(str(exc))
    return RunReport("discriminant", {"poly": str(f)}, {"discriminant": disc})


def cmd_dedekind_criterion(args):
    f = _parse_poly_arg(args.poly)
    modulus = _parse_prime_arg(args.p)
    try:
        verdict = index_divisible(f, modulus, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc))
    results = {"p": modulus.p}
    results.update(verdict.to_json_dict())
    results["cofactor_m"] = str(verdict.cofactor)
    return RunReport(
        "dedekind-criterion", {"poly": str(f), "p": modulus.p}, results
    )


def cmd_split_prime(args):
    f = _parse_poly_arg(args.poly)
    modulus = _parse_prime_arg(args.p)
    if not f.is_monic():
        raise UsageError("polynomial must be monic")
    inputs = {"poly": str(f), "p": modulus.p}
    try:
        shape, symbols = factor_prime_via_polynomial(f, modulus, seed=args.seed)
    except IndexDivisorError:
        pass
    except ValueError as exc:
        raise UsageError(str(exc))
    else:
        results = shape.to_json_dict()
        results["index_divisible"] = False
        results["generators"] = [s.to_json_dict() for s in symbols]
        return RunReport("split-prime", inputs, results)

    try:
        order, fundamental = maximal_order(f, bound=args.bound)
        primes = factor_p_in_order(order, modulus)
    except ValueError as exc:
        raise UsageError(str(exc))
    shape = SplittingShape(modulus, [(fx, e) for _, e, fx in primes])
    divisor, report = common_index_divisor(modulus, shape)
    results = shape.to_json_dict()
    results["index_divisible"] = True
    results["fundamental_number"] = fundamental
    results["ideals"] = [
        {"basis": bracket_str(ide), "e": e, "f": fx} for ide, e, fx in primes
    ]
    results["common_index_divisor"] = divisor
    results["supply"] = report
    return RunReport("split-prime", inputs, results)


def cmd_common_index_divisor(args):
    modulus = _parse_prime_arg(args.p)
    shape = _parse_shape_arg(modulus, args.shape)
    divisor, report = common_index_divisor(modulus, shape)
    results = shape.to_json_dict()
    results["common_index_divisor"] = divisor
    results["supply"] = report
    return RunReport(
        "common-index-divisor", {"p": modulus.p, "shape": args.shape}, results
    )


def cmd_maximal_order(args):
    f = _parse_poly_arg(args.poly)
    try:
        order, fundamental = maximal_order(f, bound=args.bound)
    except ValueError as exc:
        raise UsageError(str(exc))
    basis = [
        "[%s]" % ", ".join(str(c) for c in row)
        for row in order.basis_in_parent
    ]
    return RunReport(
        "maximal-order",
        {"poly": str(f)},
        {
            "discriminant_power_basis": discriminant(f),
            "fundamental_number": fundamental,
            "basis_in_power_coordinates": basis,
        },
    )


def cmd_index_form(args):
    f = _parse_poly_arg(args.poly)
    try:
        if args.maximal:
            order, _ = maximal_order(f, bound=args.bound)
        else:
            order = order_from_polynomial(f)
        form = index_form(order)
    except ValueError as exc:
        raise UsageError(str(exc))
    results = {"index_form": format_multipoly(form)}
    if args.divisor is not None:
        modulus = _parse_prime_arg(args.divisor)
        results["common_value_divisor"] = {
            "p": modulus.p,
            "divides_all_values": common_value_divisor(form, modulus),
        }
    return RunReport(
        "index-form",
        {"poly": str(f), "maximal": bool(args.maximal)},
        results,
    )


# -- fixture replay ----------------------------------------------------------

def _paper_checks(fault=None):
    """Yield (check id, computed, expected) triples for the replay suite."""

    def expected_for(check_id, value):
        if fault == check_id:
            return "INJECTED-FAULT"
        return value

    f = fixtures.cubic_poly()
    m2 = PrimeModulus(2)
    yield "cubic_discriminant", discriminant(f), expected_for(
        "cubic_discriminant", fixtures.CUBIC_DISC
    )
    yield "cubic_discriminant_split", fixtures.CUBIC_DISC, expected_for(
        "cubic_discriminant_split", -(2**2) * 503
    )

    factors, m = factorization_with_cofactor(f, m2)
    yield "cubic_factorization_mod_2", [(str(g), e) for g, e in factors], expected_for(
        "cubic_factorization_mod_2", [("t", 2), ("t + 1", 1)]
    )
    yield "cubic_cofactor_m", str(m), expected_for("cubic_cofactor_m", "t + 4")
    verdict = index_divisible(f, m2)
    yield "cubic_index_divisible", (
        verdict.divisible,
        str(verdict.witness[0]),
        verdict.witness[1],
    ), expected_for("cubic_index_divisible", (True, "t", 2))

    order = fixtures.maximal_cubic_order()
    alpha = order.element((0, 1, 0))
    beta = order.element((0, 0, 1))
    yield "fundamental_number", order_discriminant(order), expected_for(
        "fundamental_number", fixtures.CUBIC_FUNDAMENTAL
    )
    computed_max, computed_d = maximal_order(f)
    yield "maximal_order_discriminant", computed_d, expected_for(
        "maximal_order_discriminant", fixtures.CUBIC_FUNDAMENTAL
    )
    yield "index_of_alpha", element_index(order, alpha), expected_for(
        "index_of_alpha", 2
    )
    yield "beta_charpoly", str(char_poly(beta)), expected_for(
        "beta_charpoly", "t^3 + t^2 + 2*t - 8"
    )

    primes = factor_p_in_order(order, m2)
    yield "primes_above_2", sorted(ide.rows for ide, _, _ in primes), expected_for(
        "primes_above_2", sorted(fixtures.CUBIC_PRIMES_ABOVE_2.values())
    )
    yield "primes_above_2_shape", sorted(
        (fx, e) for _, e, fx in primes
    ), expected_for("primes_above_2_shape", [(1, 1), (1, 1), (1, 1)])

    named = {
        name: LatticeIdeal(order, rows)
        for name, rows in fixtures.CUBIC_PRIMES_ABOVE_2.items()
    }
    for pair, rows in sorted(fixtures.CUBIC_SIX_PRODUCTS.items()):
        prod = ideal_product(named[pair[0]], named[pair[1]])
        yield "product_%s%s" % pair, prod.rows, expected_for(
            "product_%s%s" % pair, rows
        )

    for word, rows, mu in fixtures.CUBIC_TEN_PRINCIPAL:
        acc = whole_order(order)
        for letter in word:
            acc = ideal_product(acc, named[letter])
        ok_rows = acc.rows
        principal = principal_ideal(order, order.element(mu))
        yield "principal_%s" % word, (ok_rows, principal.rows), expected_for(
            "principal_%s" % word, (rows, rows)
        )

    for text, lhs, rhs in fixtures.CUBIC_MU_RELATIONS:
        left = order.identity()
        for coords in lhs:
            left = left * order.element(coords)
        right = order.identity()
        for coords in rhs:
            right = right * order.element(coords)
        yield "relation %s" % text, left.coords, expected_for(
            "relation %s" % text, right.coords
        )

    form = index_form(order)
    match = form.terms in (
        fixtures.CUBIC_INDEX_FORM_TERMS,
        {e: -c for e, c in fixtures.CUBIC_INDEX_FORM_TERMS.items()},
    )
    yield "index_form_cubic", (match, format_multipoly(form)), expected_for(
        "index_form_cubic", (True, format_multipoly(form))
    )
    yield "index_form_always_even", common_value_divisor(form, m2), expected_for(
        "index_form_always_even", True
    )
    yield "index_form_not_div_3", common_value_divisor(
        form, PrimeModulus(3)
    ), expected_for("index_form_not_div_3", False)

    family_order, family_disc = cubic_family(2, 2, 1, -1)
    yield "family_discriminant", family_disc, expected_for(
        "family_discriminant", -503
    )
    yield "family_alpha_minpoly", str(
        char_poly(family_order.element((0, 1, 0)))
    ), expected_for("family_alpha_minpoly", str(f))

    quartic = fixtures.quartic_poly()
    _, dq = maximal_order(quartic)
    yield "quartic_fundamental_number", dq, expected_for(
        "quartic_fundamental_number", fixtures.QUARTIC_FUNDAMENTAL
    )
    yield "quartic_fundamental_split", fixtures.QUARTIC_FUNDAMENTAL, expected_for(
        "quartic_fundamental_split", 13**2 * 17
    )
    yield "only_one_quadratic_mod_2", [
        str(g) for g in enumerate_monic_irreducibles(m2, 2)
    ], expected_for("only_one_quadratic_mod_2", ["t^2 + t + 1"])

    sq = fixtures.sqrt2_order()
    m7 = PrimeModulus(7)
    primes7 = factor_p_in_order(sq, m7)
    theta = crt_good_generator(
        sq, m7, primes7, [FpPoly(m7, (0, 1)), FpPoly(m7, (-1, 1))]
    )
    yield "sqrt2_generator", theta.coords, expected_for(
        "sqrt2_generator", fixtures.SQRT2_GENERATOR_COORDS
    )
    yield "sqrt2_generator_charpoly", str(char_poly(theta)), expected_for(
        "sqrt2_generator_charpoly", fixtures.SQRT2_GENERATOR_CHARPOLY
    )
    yield "sqrt2_generator_index", element_index(sq, theta), expected_for(
        "sqrt2_generator_index", fixtures.SQRT2_GENERATOR_INDEX
    )


def cmd_paper_examples(args):
    checks = []
    failures = 0
    for check_id, computed, expected in _paper_checks(fault=args.inject_fault):
        ok = computed == expected
        if not ok:
            failures += 1
        checks.append(
            {
                "id": check_id,
                "ok": ok,
                "computed": _jsonable(computed),
                "expected": _jsonable(expected),
            }
        )
    results = {
        "checks": checks,
        "passed": len(checks) - failures,
        "failed": failures,
    }
    report = RunReport(
        "paper-examples",
        {"inject_fault": args.inject_fault},
        results,
        status=1 if failures else 0,
    )
    return report


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def _paper_examples_text(report):
    lines = []
    for check in report.results["checks"]:
        if check["ok"]:
            lines.append("ok   %s" % check["id"])
        else:
            lines.append(
                "FAIL %s\n     expected: %s\n     computed: %s"
                % (check["id"], check["expected"], check["computed"])
            )
    lines.append(
        "%d passed, %d failed"
        % (report.results["passed"], report.results["failed"])
    )
    return "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="primesplit",
        description="Exact prime-splitting computations in number-field orders.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized factor splitting")
    parser.add_argument(
        "--bound",
        type=int,
        default=DEFAULT_TRIAL_BOUND,
        help="trial-division bound for factoring discriminants (default 10^6)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("factor-mod-p", help="factor a polynomial modulo p, with cofactor M")
    s.add_argument("poly")
    s.add_argument("p", type=int)
    s.set_defaults(func=cmd_factor_mod_p)

    s = sub.add_parser("discriminant", help="discriminant of a monic integer polynomial")
    s.add_argument("poly")
    s.set_defaults(func=cmd_discriminant)

    s = sub.add_parser("dedekind-criterion", help="does p divide the index of the root?")
    s.add_argument("poly")
    s.add_argument("p", type=int)
    s.set_defaults(func=cmd_dedekind_criterion)

    s = sub.add_parser("split-prime", help="splitting shape of p, via the polynomial or the maximal order")
    s.add_argument("poly")
    s.add_argument("p", type=int)
    s.set_defaults(func=cmd_split_prime)

    s = sub.add_parser("common-index-divisor", help="test a splitting shape for insufficient polynomial supply")
    s.add_argument("p", type=int)
    s.add_argument("shape", help="comma-separated f:e pairs, e.g. 1:1,1:1,1:1")
    s.set_defaults(func=cmd_common_index_divisor)

    s = sub.add_parser("maximal-order", help="maximal order and fundamental number")
    s.add_argument("poly")
    s.set_defaults(func=cmd_maximal_order)

    s = sub.add_parser("index-form", help="symbolic index form of an order")
    s.add_argument("poly")
    s.add_argument("--maximal", action="store_true", help="use the maximal order instead of the power basis")
    s.add_argument("--divisor", type=int, default=None, help="also test p as a common divisor of the form's values")
    s.set_defaults(func=cmd_index_form)

    s = sub.add_parser("paper-examples", help="recompute and verify every worked example")
    s.add_argument(
        "--inject-fault",
        default=None,
        metavar="CHECK",
        help="test mode: corrupt the named check's expected value",
    )
    s.set_defaults(func=cmd_paper_examples)

    return parser


_PARSER = build_parser()


def main(argv=None):
    # Output is unconditionally plain ASCII; PLAIN_OUTPUT is accepted for
    # interface compatibility but changes nothing.
    args = _PARSER.parse_args(argv)
    try:
        report = args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    elif report.command == "paper-examples":
        print(_paper_examples_text(report))
    else:
        print(report.to_text())
    return report.status


if __name__ == "__main__":
    sys.exit(main())
