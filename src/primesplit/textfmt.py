"""Shared text format for univariate polynomials.

Polynomials in the variable t are written as sums of terms like
``t^3 - t^2 - 2*t - 8``.  The ``*`` between a coefficient and the
variable is optional on input ("2t" and "2*t" both parse) and
whitespace is ignored.  ``parse_poly`` and ``format_poly`` round-trip
exactly on canonical coefficient sequences.  ``bracket_entry`` writes
an element of an order over its basis labels, e.g. ``2+a-3b``.
"""

import re

# sign, optional coefficient, optional variable with optional exponent; a
# "*" before the variable only follows a coefficient (group 2)
_TERM_RE = re.compile(r"([+-]?)(\d+)?(?:(?(2)\*?)(t)(?:\^(\d+))?)?")


def parse_poly(text):
    """Parse polynomial text into an ascending coefficient list.

    Returns a list of ints [a0, a1, ...] with no trailing zeros
    ([] for the zero polynomial).  Raises ValueError on malformed input.
    """
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    coeffs = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError("cannot parse polynomial at %r" % s[pos:])
        sign, digits, v, exp = m.groups()
        if not sign and not first:
            raise ValueError("missing +/- between terms in %r" % text)
        if digits is None and v is None:
            raise ValueError("cannot parse polynomial at %r" % s[pos:])
        c = int(digits) if digits is not None else 1
        if sign == "-":
            c = -c
        if v is None:
            e = 0
        elif exp is None:
            e = 1
        else:
            e = int(exp)
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
        first = False
    deg = max(coeffs)
    out = [coeffs.get(i, 0) for i in range(deg + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


def format_poly(coeffs):
    """Render an ascending coefficient sequence as text, highest degree first."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return "0"
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            x = "t" if e == 1 else "t^%d" % e
            body = x if mag == 1 else "%d*%s" % (mag, x)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def bracket_entry(coords, labels):
    """Compact combination of basis labels, e.g. ``2+a-3b``."""
    parts = []
    for c, label in zip(coords, labels):
        if c == 0:
            continue
        mag = abs(c)
        if label == "1":
            body = str(mag)
        else:
            body = label if mag == 1 else "%d%s" % (mag, label)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts) if parts else "0"
