"""Integer lattices in canonical triangular form, and linear algebra over GF(p).

A lattice of full rank n is kept as integer rows in the canonical
triangular (Hermite normal) form: row i has its last nonzero entry at
column i, the diagonal is positive and the entries before each pivot
are reduced into [0, pivot).  Equal lattices have equal rows, so the
bracket bases of ideals and the bases of enlarged orders compare as
matrices.  A rational lattice is such rows over one positive
denominator d, with (rows, d) in lowest terms.  ``hnf`` is the one
integer HNF routine.

A lattice between p*Z^n and Z^n is a subspace of GF(p)^n, held in one
form: a reduced echelon pair (rows, pivots), each row pivoting on its
last nonzero entry.  ``echelon_mod_p``, the one elimination loop over
GF(p), builds such pairs, ``left_kernel_mod_p`` returns one, and
``lattice_rows_mod_p`` reads a pair's canonical rows with no HNF.
Orders run Round 2 and ideals split p*O on these.
"""

from math import gcd, prod

from .integers import xgcd


def unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def identity_rows(n):
    return tuple(unit(n, i) for i in range(n))


def hnf(rows, n=None):
    """Canonical triangular basis of the lattice spanned by integer rows.

    Each row is reduced by extended gcds of pivots (last nonzero
    entries) against the basis until it vanishes or takes a free column
    (Cohen, GTM 138, 2.4).  Then, from the highest column down, each
    pivot is made positive and the later rows' entries in its column
    are reduced into [0, pivot).  Requires the span to have full rank n
    (defaults to the row width); raises ValueError on rank deficiency.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("no generators given")
    if n is None:
        n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("rows have inconsistent width")
    basis = [None] * n  # basis[j]: the row with pivot j, cut after its pivot
    for v in rows:
        j = n - 1
        while True:
            while j >= 0 and not v[j]:
                j -= 1
            if j < 0:
                break
            r = basis[j]
            if r is None:
                basis[j] = v[: j + 1]
                break
            a, b = r[j], v[j]
            if b % a:
                g, s, t = xgcd(a, b)
                basis[j] = [s * x + t * y for x, y in zip(r, v)]
                a, b = a // g, b // g
                v = [a * y - b * x for x, y in zip(r, v)]
            else:
                q = b // a
                v = [y - q * x for x, y in zip(r, v)]
    rank = n - basis.count(None)
    if rank != n:
        raise ValueError("generators span a rank-%d lattice, need %d" % (rank, n))
    for c in range(n - 1, -1, -1):
        r = basis[c]
        if r[c] < 0:
            r[:] = [-x for x in r]
        pivot = r[c]
        for s in basis[c + 1 :]:
            q = s[c] // pivot
            if q:
                s[: c + 1] = [x - q * y for x, y in zip(s, r)]
    return tuple(tuple(r) + (0,) * (n - 1 - i) for i, r in enumerate(basis))


def lattice_divmod(basis, vec):
    """(y, r) with vec = sum(y_i * basis_i) + r in a canonical triangular basis.

    Each entry r_i lies in [0, basis_i[i]), so r is the canonical residue
    of vec modulo the lattice, and vec is a member exactly when r is zero.
    """
    v = list(vec)
    y = [0] * len(basis)
    for i in range(len(basis) - 1, -1, -1):
        q = v[i] // basis[i][i]
        if q:
            y[i] = q
            for j in range(i + 1):
                v[j] -= q * basis[i][j]
    return y, tuple(v)


def rational_lattice(rows, d):
    """Canonical (rows, d), int tuples in lowest terms, of the lattice of the rows over d."""
    return lowest_terms(hnf(rows), d)


def lattice_index(rows, d):
    """[rows/d : Z^n] = d^n / prod(diagonal) of a canonical pair; AssertionError unless exact."""
    index, rest = divmod(d ** len(rows), prod(row[i] for i, row in enumerate(rows)))
    if rest:
        raise AssertionError("lattice rows/%d does not contain Z^%d" % (d, len(rows)))
    return index


def lowest_terms(rows, d):
    g = gcd(d, *(c for row in rows for c in row))
    return tuple(tuple(c // g for c in row) for row in rows), d // g


# -- linear algebra over GF(p) ----------------------------------------------

def echelon_mod_p(rows, p, start=((), ())):
    """Reduced row echelon form of integer rows over GF(p): (nonzero rows, pivots).

    A row's pivot is its last nonzero entry.  The rows extend `start`, a
    pair of the same kind, whose own rows are not reduced again: they
    are only cleared in the columns of the new pivots.
    """
    out, pivots = list(start[0]), list(start[1])
    for vec in rows:
        v = [c % p for c in vec]
        for r, j in zip(out, pivots):
            if v[j]:
                c = v[j]
                v = [(x - c * y) % p for x, y in zip(v, r)]
        nonzero = [k for k, x in enumerate(v) if x]
        if not nonzero:
            continue
        j = nonzero[-1]
        inv = pow(v[j], -1, p)
        v = [x * inv % p for x in v]
        for i, r in enumerate(out):
            if r[j]:
                c = r[j]
                out[i] = [(x - c * y) % p for x, y in zip(r, v)]
        out.append(v)
        pivots.append(j)
    return out, pivots


def lattice_rows_mod_p(subspace, p, n):
    """``hnf`` of p*Z^n plus the span of a reduced echelon pair mod p.

    Row j is the subspace's row with pivot j, or p*e_j when no row
    pivots at j (the lattices between p*Z^n and Z^n are the subspaces
    of GF(p)^n, Cohen, GTM 138, 6.2).
    """
    rows = [(0,) * j + (p,) + (0,) * (n - 1 - j) for j in range(n)]
    for r, j in zip(*subspace):
        rows[j] = tuple(r)
    return tuple(rows)


def left_kernel_mod_p(rows, p):
    """Reduced echelon pair of {x : sum_i x_i * rows_i = 0 mod p}.

    The columns of `rows` are eliminated from their last coordinate down,
    so each pivots on its first nonzero one; the vector of a free column
    is nonzero only there and at pivots before it, so that is its pivot.
    """
    m = len(rows)
    echelon, pivots = echelon_mod_p((col[::-1] for col in zip(*rows)), p)
    free = sorted(set(range(m)) - {m - 1 - j for j in pivots})
    out = []
    for f in free:
        x = [0] * m
        x[f] = 1
        for r, j in zip(echelon, pivots):
            x[m - 1 - j] = -r[m - 1 - f] % p
        out.append(x)
    return out, free


def combine_rows_mod_p(coeffs, rows, p):
    """sum_i coeffs[i] * rows[i] mod p, skipping the zero coefficients."""
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * r for a, r in zip(acc, row)]
    return [a % p for a in acc]
