"""Shared text format: polynomials in t, order elements and every other signed sum.

Polynomials in the variable t are written as sums of terms like
``t^3 - t^2 - 2*t - 8``.  The ``*`` between a coefficient and the
variable is optional on input ("2t" and "2*t" both parse) and
whitespace is ignored; ``parse_poly`` refuses an exponent above
``integers.DEGREE_BOUND``.  ``parse_poly`` and ``format_poly``
round-trip exactly on canonical coefficient sequences.
``bracket_entry`` writes an element of an order over its basis labels,
e.g. ``2+a-3b``.  Both, and ``indexform.format_multipoly``, only list
their (coefficient, unit text) terms in order: ``signed_sum`` alone
decides how signs, joiners and unit coefficients are written.
"""

import re

from .integers import DEGREE_BOUND

# sign, optional coefficient, optional variable with optional exponent; a
# "*" before the variable only follows a coefficient (group 2)
_TERM_RE = re.compile(r"([+-]?)(\d+)?(?:(?(2)\*?)(t)(?:\^(\d+))?)?")


def parse_poly(text):
    """Parse polynomial text into an ascending coefficient list.

    Returns a list of ints [a0, a1, ...] with no trailing zeros
    ([] for the zero polynomial).  Raises ValueError on malformed input
    and on an exponent above DEGREE_BOUND.
    """
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    coeffs = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError("cannot parse polynomial at %r" % s[pos:])
        sign, digits, v, exp = m.groups()
        if not sign and pos:
            raise ValueError("missing +/- between terms in %r" % text)
        if digits is None and v is None:
            raise ValueError("cannot parse polynomial at %r" % s[pos:])
        c = int(digits) if digits is not None else 1
        if sign == "-":
            c = -c
        e = 0 if v is None else 1 if exp is None else int(exp)
        if e > DEGREE_BOUND:
            raise ValueError(
                "exponent %d exceeds DEGREE_BOUND = %d" % (e, DEGREE_BOUND)
            )
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
    deg = max(coeffs)
    out = [coeffs.get(i, 0) for i in range(deg + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


def signed_sum(terms, spaced=True, times=""):
    """Write (coefficient, unit text) pairs as a signed sum, e.g. ``2*t^2 - t + 1``.

    Zero terms are left out; no terms give ``"0"``.  A negative first
    term takes a bare ``-``, and the others are joined by ``" + "`` and
    ``" - "``, or ``"+"`` and ``"-"`` when not ``spaced``.  The unit
    ``""`` is the constant, written as its magnitude; before any other
    unit a magnitude 1 is dropped and a larger one is followed by ``times``.
    """
    plus, minus = (" + ", " - ") if spaced else ("+", "-")
    text = "".join(
        [
            (minus if c < 0 else plus)
            + (unit if unit and c in (1, -1) else "%d%s%s" % (abs(c), unit and times, unit))
            for c, unit in terms
            if c
        ]
    )
    if not text:
        return "0"
    return text[len(plus) :] if text.startswith(plus) else "-" + text[len(minus) :]


def format_poly(coeffs):
    """Render an ascending coefficient sequence as text, highest degree first."""
    terms = [(c, "t^%d" % e if e > 1 else "t" * e) for e, c in enumerate(coeffs) if c]
    return signed_sum(terms[::-1], times="*")


def bracket_entry(coords, labels):
    """Compact combination of basis labels, e.g. ``2+a-3b``; the label "1" is the constant."""
    units = ["" if label == "1" else label for label in labels]
    return signed_sum(zip(coords, units), spaced=False)
