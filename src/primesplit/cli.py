"""Command-line interface.

Subcommands cover the pipeline pieces (factor-mod-p, discriminant,
dedekind-criterion, split-prime, common-index-divisor, maximal-order,
index-form) plus paper-examples, which recomputes the whole worked
fixture suite and exits nonzero on any mismatch.

Output is plain ASCII (basis labels a, b, ... stand in for Greek
letters) and deterministic, so reports are usable as golden files.
Every report field is written here, from the library's plain results;
a basis entry c over the denominator d is written as Fraction(c, d).
Exit codes: 0 success, 1 verification failure, 2 refused input.  The
shell repeats none of the library's input checks: every ValueError is
printed as ``error: <message>`` on stderr with exit 2, the message
being the library's own or, for an argument that does not parse, a
``bad polynomial/prime/shape`` one.
"""

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import fixtures
from .criteria import (
    IndexDivisorError,
    SplittingShape,
    common_index_divisor,
    dedekind_verdict,
    factor_prime_via_polynomial,
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
from .integers import DEFAULT_TRIAL_BOUND
from .lattice import lattice_index
from .orders import (
    char_poly,
    cubic_family,
    element_index,
    maximal_order,
    order_discriminant,
    order_from_polynomial,
)
from .zpoly import ZPoly, discriminant, reduce_mod


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
        raise ValueError("bad polynomial %r: %s" % (text, exc))


def _parse_prime_arg(p):
    try:
        return PrimeModulus(p)
    except ValueError as exc:
        raise ValueError("bad prime %r: %s" % (p, exc))


def _parse_shape_arg(modulus, text):
    bad = "bad shape %r (want f:e,f:e,...)" % text
    try:
        parts = [(int(f), int(e)) for f, e in (c.split(":") for c in text.split(","))]
    except ValueError:
        raise ValueError(bad)
    try:
        return SplittingShape(modulus, parts)
    except ValueError as exc:
        raise ValueError("%s: %s" % (bad, exc))


def _shape_fields(shape):
    """The report fields of a splitting shape: p and its (f, e) parts."""
    return {"p": shape.p.p, "parts": [{"f": f, "e": e} for f, e in shape.parts]}


def _with_supply(results, shape):
    """results with the common-index-divisor verdict for shape and its supply report."""
    divisor, report = common_index_divisor(shape)
    results["common_index_divisor"] = divisor
    results["supply"] = [
        {"degree": d, "required": required, "available": available}
        for d, required, available in report
    ]
    return results


def cmd_factor_mod_p(args):
    f = _parse_poly_arg(args.poly)
    modulus = _parse_prime_arg(args.p)
    verdict = dedekind_verdict(f, modulus)
    results = {
        "poly_mod_p": str(reduce_mod(f, modulus)),
        "factors": [{"poly": str(g), "e": e} for g, e in verdict.factors],
        "cofactor_m": str(verdict.cofactor),
    }
    return RunReport("factor-mod-p", {"poly": str(f), "p": modulus.p}, results)


def cmd_discriminant(args):
    f = _parse_poly_arg(args.poly)
    return RunReport("discriminant", {"poly": str(f)}, {"discriminant": discriminant(f)})


def cmd_dedekind_criterion(args):
    f = _parse_poly_arg(args.poly)
    modulus = _parse_prime_arg(args.p)
    verdict = index_divisible(f, modulus)
    results = {"p": modulus.p, "index_divisible": verdict.divisible}
    if verdict.divisible:
        g, e = verdict.witness
        results["witness"] = {"poly": str(g), "e": e}
    results["cofactor_m"] = str(verdict.cofactor)
    return RunReport(
        "dedekind-criterion", {"poly": str(f), "p": modulus.p}, results
    )


def cmd_split_prime(args):
    f = _parse_poly_arg(args.poly)
    modulus = _parse_prime_arg(args.p)
    inputs = {"poly": str(f), "p": modulus.p}
    try:
        shape, factors = factor_prime_via_polynomial(f, modulus)
    except IndexDivisorError as exc:
        verdict = exc.verdict
    else:
        results = _shape_fields(shape)
        results["index_divisible"] = False
        # the prime (p, P(theta)) is written through P's [0, p) lift,
        # which prints as P does
        results["generators"] = [
            {"p": modulus.p, "generator": str(g), "e": e, "f": g.degree}
            for g, e in factors
        ]
        return RunReport("split-prime", inputs, results)

    # the verdict at p holds the factors of f mod p and the cofactor, so
    # neither is computed again, and the order carries its proof of
    # p-maximality into the split
    order, fundamental = maximal_order(f, args.bound, [verdict])
    primes = factor_p_in_order(order, modulus)
    shape = SplittingShape(modulus, [(fx, e) for _, e, fx in primes])
    results = _shape_fields(shape)
    results["index_divisible"] = True
    results["fundamental_number"] = fundamental
    results["ideals"] = [
        {"basis": bracket_str(ide), "e": e, "f": fx} for ide, e, fx in primes
    ]
    return RunReport("split-prime", inputs, _with_supply(results, shape))


def cmd_common_index_divisor(args):
    modulus = _parse_prime_arg(args.p)
    shape = _parse_shape_arg(modulus, args.shape)
    return RunReport(
        "common-index-divisor",
        {"p": modulus.p, "shape": args.shape},
        _with_supply(_shape_fields(shape), shape),
    )


def cmd_maximal_order(args):
    f = _parse_poly_arg(args.poly)
    order, fundamental = maximal_order(f, bound=args.bound)
    rows, d = order.basis_in_parent
    basis = ["[%s]" % ", ".join(str(Fraction(c, d)) for c in row) for row in rows]
    return RunReport(
        "maximal-order",
        {"poly": str(f)},
        {
            # disc f = [O : Z[t]]^2 * D, so it is read off the basis rather
            # than computed a second time
            "discriminant_power_basis": fundamental * lattice_index(rows, d) ** 2,
            "fundamental_number": fundamental,
            "basis_in_power_coordinates": basis,
        },
    )


def cmd_index_form(args):
    f = _parse_poly_arg(args.poly)
    # the divisor is refused before the form, which costs far more, is built
    modulus = None if args.divisor is None else _parse_prime_arg(args.divisor)
    if args.maximal:
        order, _ = maximal_order(f, bound=args.bound)
    else:
        order = order_from_polynomial(f)
    form = index_form(order)
    results = {"index_form": format_multipoly(form)}
    if modulus is not None:
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

def _paper_checks():
    """Yield (check id, computed, expected) triples for the replay suite."""
    f = fixtures.cubic_poly()
    m2 = PrimeModulus(2)
    yield "cubic_discriminant", discriminant(f), fixtures.CUBIC_DISC
    yield "cubic_discriminant_split", fixtures.CUBIC_DISC, -(2**2) * 503

    verdict = index_divisible(f, m2)
    yield "cubic_factorization_mod_2", [(str(g), e) for g, e in verdict.factors], [
        ("t", 2), ("t + 1", 1)
    ]
    yield "cubic_cofactor_m", str(verdict.cofactor), "t + 4"
    yield "cubic_index_divisible", (
        verdict.divisible,
        str(verdict.witness[0]),
        verdict.witness[1],
    ), (True, "t", 2)

    order = fixtures.maximal_cubic_order()
    alpha = order.element((0, 1, 0))
    beta = order.element((0, 0, 1))
    yield "fundamental_number", order_discriminant(order), fixtures.CUBIC_FUNDAMENTAL
    _, computed_d = maximal_order(f)
    yield "maximal_order_discriminant", computed_d, fixtures.CUBIC_FUNDAMENTAL
    yield "index_of_alpha", element_index(order, alpha), 2
    yield "beta_charpoly", str(char_poly(beta)), "t^3 + t^2 + 2*t - 8"

    primes = factor_p_in_order(order, m2)
    yield "primes_above_2", sorted(ide.rows for ide, _, _ in primes), sorted(
        fixtures.CUBIC_PRIMES_ABOVE_2.values()
    )
    yield "primes_above_2_shape", sorted((fx, e) for _, e, fx in primes), [(1, 1)] * 3

    named = {
        name: LatticeIdeal(order, rows)
        for name, rows in fixtures.CUBIC_PRIMES_ABOVE_2.items()
    }
    for pair, rows in sorted(fixtures.CUBIC_SIX_PRODUCTS.items()):
        prod = ideal_product(named[pair[0]], named[pair[1]])
        yield "product_%s%s" % pair, prod.rows, rows

    for word, rows, mu in fixtures.CUBIC_TEN_PRINCIPAL:
        acc = whole_order(order)
        for letter in word:
            acc = ideal_product(acc, named[letter])
        principal = principal_ideal(order, order.element(mu))
        yield "principal_%s" % word, (acc.rows, principal.rows), (rows, rows)

    for text, lhs, rhs in fixtures.CUBIC_MU_RELATIONS:
        left = order.identity()
        for coords in lhs:
            left = left * order.element(coords)
        right = order.identity()
        for coords in rhs:
            right = right * order.element(coords)
        yield "relation %s" % text, left.coords, right.coords

    form = index_form(order)
    match = form.terms in (
        fixtures.CUBIC_INDEX_FORM_TERMS,
        {e: -c for e, c in fixtures.CUBIC_INDEX_FORM_TERMS.items()},
    )
    form_text = format_multipoly(form)
    yield "index_form_cubic", (match, form_text), (True, form_text)
    yield "index_form_always_even", common_value_divisor(form, m2), True
    yield "index_form_not_div_3", common_value_divisor(form, PrimeModulus(3)), False

    family_order, family_disc = cubic_family(2, 2, 1, -1)
    yield "family_discriminant", family_disc, -503
    yield "family_alpha_minpoly", str(
        char_poly(family_order.element((0, 1, 0)))
    ), str(f)

    quartic = fixtures.quartic_poly()
    _, dq = maximal_order(quartic)
    yield "quartic_fundamental_number", dq, fixtures.QUARTIC_FUNDAMENTAL
    yield "quartic_fundamental_split", fixtures.QUARTIC_FUNDAMENTAL, 13**2 * 17
    yield "only_one_quadratic_mod_2", [
        str(g) for g in enumerate_monic_irreducibles(m2, 2)
    ], ["t^2 + t + 1"]

    sq = fixtures.sqrt2_order()
    m7 = PrimeModulus(7)
    primes7 = factor_p_in_order(sq, m7)
    theta = crt_good_generator(sq, primes7, [FpPoly(m7, (0, 1)), FpPoly(m7, (-1, 1))])
    yield "sqrt2_generator", theta.coords, fixtures.SQRT2_GENERATOR_COORDS
    yield "sqrt2_generator_charpoly", str(char_poly(theta)), fixtures.SQRT2_GENERATOR_CHARPOLY
    yield "sqrt2_generator_index", element_index(sq, theta), fixtures.SQRT2_GENERATOR_INDEX


def cmd_paper_examples(args):
    checks = []
    for check_id, computed, expected in _paper_checks():
        if check_id == args.inject_fault:
            expected = "INJECTED-FAULT"
        checks.append(
            {
                "id": check_id,
                "ok": computed == expected,
                "computed": _jsonable(computed),
                "expected": _jsonable(expected),
            }
        )
    if args.inject_fault not in {None, *(check["id"] for check in checks)}:
        raise ValueError("--inject-fault: no check named %r" % args.inject_fault)
    failures = sum(not check["ok"] for check in checks)
    results = {
        "checks": checks,
        "passed": len(checks) - failures,
        "failed": failures,
    }
    return RunReport(
        "paper-examples",
        {"inject_fault": args.inject_fault},
        results,
        status=1 if failures else 0,
    )


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


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift the interpreter's int-to-str digit limit, then restore it.

    Exact answers may have any number of digits.  The limit exists from
    Python 3.10.7 on and is shared by everything in the interpreter, so
    it is lifted only for the duration of the block.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main(argv=None):
    # Output is unconditionally plain ASCII; PLAIN_OUTPUT is accepted for
    # interface compatibility but changes nothing.
    args = _PARSER.parse_args(argv)
    with _int_digits_unlimited():
        try:
            report = args.func(args)
        except ValueError as exc:
            # every refusal, the library's or an argument parser's, ends here
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
