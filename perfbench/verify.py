"""Answer verifiers, run outside the timed region.

``check(query, status, stdout)`` returns None when the CLI's JSON answer
is right and a one-line reason otherwise.  Every check recomputes its
facts with perfbench.arith, never with primesplit:

* split-prime, both routes: sum(e*f) = n.
* split-prime, polynomial route: each generator reduces to a monic
  irreducible of degree f mod p, and the product of the reductions
  raised to e equals f mod p.
* split-prime, order route: the fundamental number D has disc(f)/D a
  square, and the supply report matches the necklace counts.
* maximal-order: disc(f) = index^2 * D with the index read from
  basis_in_power_coordinates, and that basis spans a ring containing
  Z[theta].
* factor-mod-p: irreducible factors whose product is f mod p, and
  f = prod(balanced lifts^e) - p*M.
* dedekind-criterion: the verdict matches Dedekind's criterion.
* discriminant: the exact value.
* index-form: homogeneous of degree n(n-1)/2, value +-1 at the
  coordinates of theta, and +-(index of an element) at a fixed point.
"""

import json
import math
import re
from fractions import Fraction

from perfbench import arith

_FORM_VARS = ("x", "y", "w", "v")
_FORM_TERM = re.compile(r"^(\d*)((?:[xywv](?:\^\d+)?)*)$")
_FORM_FACTOR = re.compile(r"([xywv])(?:\^(\d+))?")
# coordinates, after the identity one, of the element whose index the form is checked against
FORM_PROBE = (1, -1, 2, -2)


class Mismatch(Exception):
    pass


def _expect(cond, reason, *args):
    if not cond:
        raise Mismatch(reason % args if args else reason)


def check(query, status, stdout):
    """None when the answer is right, else the reason it is wrong."""
    if status != 0:
        return "exit status %r" % (status,)
    try:
        payload = json.loads(stdout)
        _expect(payload.get("status") == 0, "report status %r", payload.get("status"))
        results = payload["results"]
        _CHECKS[query.command](query, list(query.f), results)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return "malformed answer: %s: %s" % (type(exc).__name__, exc)
    return None


def _fp_product(factors, p):
    prod = [1]
    for g, e in factors:
        for _ in range(e):
            prod = arith.fp_mul(prod, g, p)
    return prod


def _check_factors(f, p, factors):
    """factors: [(reduced poly, e)], each monic irreducible, product f mod p."""
    seen = set()
    for g, e in factors:
        _expect(e >= 1, "exponent %d < 1", e)
        _expect(len(g) >= 2 and g[-1] == 1, "factor %s is not monic of positive degree", g)
        _expect(arith.fp_is_irreducible(g, p), "factor %s is reducible mod %d", g, p)
        _expect(tuple(g) not in seen, "factor %s repeated", g)
        seen.add(tuple(g))
    _expect(_fp_product(factors, p) == arith.fp(f, p), "product of factors^e != f mod %d", p)


def _check_split_prime(query, f, res):
    n, p = len(f) - 1, query.p
    _expect(res["p"] == p, "p = %r, want %d", res["p"], p)
    parts = [(part["f"], part["e"]) for part in res["parts"]]
    _expect(sum(fx * e for fx, e in parts) == n, "sum(e*f) = %d, want %d",
            sum(fx * e for fx, e in parts), n)
    divisible = arith.index_divisible(f, p)
    _expect(res["index_divisible"] is divisible, "index_divisible %r, want %r",
            res["index_divisible"], divisible)
    if not divisible:
        gens = res["generators"]
        _expect([(g["f"], g["e"]) for g in gens] == parts, "generators disagree with parts")
        factors = []
        for g in gens:
            red = arith.fp(arith.parse_zpoly(g["generator"]), p)
            _expect(len(red) - 1 == g["f"], "generator %s has degree != f mod %d", g["generator"], p)
            factors.append((red, g["e"]))
        _check_factors(f, p, factors)
        return
    _expect([(i["f"], i["e"]) for i in res["ideals"]] == parts, "ideals disagree with parts")
    disc, fund = arith.discriminant(f), res["fundamental_number"]
    _expect(fund != 0 and disc % fund == 0, "D = %r does not divide disc(f) = %d", fund, disc)
    index = math.isqrt(disc // fund)
    _expect(index >= 1 and index * index * fund == disc, "disc(f)/D is not a square")
    _expect(index % p == 0, "p = %d does not divide the index %d", p, index)
    required = {}
    for fx, _ in parts:
        required[fx] = required.get(fx, 0) + 1
    supply = [
        {"degree": d, "required": required[d], "available": arith.count_monic_irreducibles(p, d)}
        for d in sorted(required)
    ]
    _expect(res["supply"] == supply, "supply report %r, want %r", res["supply"], supply)
    short = any(s["required"] > s["available"] for s in supply)
    _expect(res["common_index_divisor"] is short, "common_index_divisor %r, want %r",
            res["common_index_divisor"], short)


def _power_basis_product(u, v, f):
    return arith.zp_mod_monic(arith.zp_mul(u, v), f)


def _check_maximal_order(query, f, res):
    n = len(f) - 1
    disc = arith.discriminant(f)
    _expect(res["discriminant_power_basis"] == disc, "disc(f) = %r, want %d",
            res["discriminant_power_basis"], disc)
    rows = [[Fraction(c) for c in r.strip("[]").split(",")] for r in res["basis_in_power_coordinates"]]
    _expect(len(rows) == n and all(len(r) == n for r in rows), "basis is not %d x %d", n, n)
    det = arith.fraction_det(rows)
    _expect(det != 0, "basis is singular")
    index = 1 / abs(det)
    _expect(index.denominator == 1, "[O : Z[theta]] = %s is not an integer", index)
    fund = res["fundamental_number"]
    _expect(disc == index.numerator**2 * fund, "disc(f) = %d != index^2 * D = %d^2 * %r",
            disc, index.numerator, fund)
    # the lattice contains Z[theta] and is closed under multiplication
    def in_lattice(vec):
        return all(c.denominator == 1 for c in arith.solve_rational(rows, vec))
    for i in range(n):
        _expect(in_lattice([1 if j == i else 0 for j in range(n)]), "theta^%d is not in the basis span", i)
    for i in range(n):
        for j in range(i, n):
            prod = _power_basis_product(rows[i], rows[j], f)
            prod = prod + [0] * (n - len(prod))
            _expect(in_lattice(prod), "basis span is not closed under multiplication")


def _balanced_lift(g, p):
    half = (p + 1) // 2
    out = [c - p if c >= half else c for c in g]
    out[-1] = g[-1]
    return out


def _check_factor_mod_p(query, f, res):
    p = query.p
    _expect(arith.parse_zpoly(res["poly_mod_p"]) == arith.fp(f, p), "poly_mod_p is not f mod %d", p)
    factors = [(arith.parse_zpoly(g["poly"]), g["e"]) for g in res["factors"]]
    _expect(all(0 <= c < p for g, _ in factors for c in g), "factor coefficients outside [0, p)")
    _check_factors(f, p, factors)
    prod = [1]
    for g, e in factors:
        for _ in range(e):
            prod = arith.zp_mul(prod, _balanced_lift(g, p))
    m = arith.parse_zpoly(res["cofactor_m"])
    lhs = arith.trim([a - b for a, b in zip(prod, f + [0] * (len(prod) - len(f)))])
    _expect(lhs == [p * c for c in m], "f != prod(lifts^e) - p*M")


def _check_dedekind(query, f, res):
    p = query.p
    _expect(res["p"] == p, "p = %r, want %d", res["p"], p)
    want = arith.index_divisible(f, p)
    _expect(res["index_divisible"] is want, "index_divisible %r, want %r", res["index_divisible"], want)
    m = arith.parse_zpoly(res["cofactor_m"])
    _expect(len(m) < len(f), "cofactor M has degree >= deg f")


def _check_discriminant(query, f, res):
    want = arith.discriminant(f)
    _expect(res["discriminant"] == want, "discriminant %r, want %d", res["discriminant"], want)


def parse_form(text):
    """Index-form text like ``2x^3 - x^2y`` as {exponent tuple: coefficient}."""
    terms = {}
    for sign, body in re.findall(r"(^-?|[+-] )([^ +-]+)", text.strip()):
        m = _FORM_TERM.match(body)
        if not m or not body:
            raise ValueError("bad form term %r" % body)
        exps = [0] * len(_FORM_VARS)
        for name, e in _FORM_FACTOR.findall(m.group(2)):
            exps[_FORM_VARS.index(name)] += int(e or 1)
        coeff = int(m.group(1) or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + (-coeff if sign.startswith("-") else coeff)
    return terms


def _form_value(terms, point):
    total = 0
    for exps, c in terms.items():
        v = c
        for x, e in zip(point, exps):
            v *= x**e
        total += v
    return total


def _element_index(coords, f):
    """|det| of the power-basis coordinates of 1, e, ..., e^(n-1)."""
    n = len(f) - 1
    rows, acc = [], [1]
    for _ in range(n):
        rows.append(acc + [0] * (n - len(acc)))
        acc = _power_basis_product(acc, coords, f)
    return abs(arith.bareiss_det(rows))


def _check_index_form(query, f, res):
    n, p = len(f) - 1, query.p
    terms = parse_form(res["index_form"])
    _expect(all(sum(e) == n * (n - 1) // 2 for e in terms), "form is not homogeneous of degree %d",
            n * (n - 1) // 2)
    _expect(all(not any(e[n - 1:]) for e in terms), "form uses more than %d variables", n - 1)
    theta = (1,) + (0,) * (len(_FORM_VARS) - 1)
    _expect(abs(_form_value(terms, theta)) == 1, "form at theta is %d, want +-1",
            _form_value(terms, theta))
    probe = FORM_PROBE[: n - 1] + (0,) * (len(_FORM_VARS) - n + 1)
    want = _element_index([0] + list(FORM_PROBE[: n - 1]), f)
    _expect(abs(_form_value(terms, probe)) == want, "form at %s is %d, want +-%d",
            probe[: n - 1], _form_value(terms, probe), want)
    cvd = res["common_value_divisor"]
    _expect(cvd["p"] == p, "divisor p = %r, want %d", cvd["p"], p)
    _expect(cvd["divides_all_values"] is False, "%d cannot divide the value +-1 at theta", p)


_CHECKS = {
    "split-prime": _check_split_prime,
    "maximal-order": _check_maximal_order,
    "factor-mod-p": _check_factor_mod_p,
    "dedekind-criterion": _check_dedekind,
    "discriminant": _check_discriminant,
    "index-form": _check_index_form,
}
