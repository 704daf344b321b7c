"""One form for a rational lattice, and one writer of rationals.

The package holds every rational lattice as canonical integer rows over
one denominator; only ``cli`` writes an entry as a fraction.
"""

import ast
import contextlib
import io
import json
import pathlib
import random
from math import gcd

import pytest

import primesplit
from conftest import basis_lines, random_power_basis_orders, seeded_fields
from primesplit import cli
from primesplit.fppoly import PrimeModulus
from primesplit.lattice import hnf, identity_rows, lattice_index
from primesplit.orders import maximal_order, p_enlarge
from primesplit.zpoly import ZPoly, discriminant

PACKAGE = pathlib.Path(primesplit.__file__).parent

# degree 2 with an index divisor above 2^31: basis [0, 1/2147483659]
WIDE = ZPoly.from_text("t^2 - 13835058197016084843")


def _imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_only_cli_imports_fractions():
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if "fractions" in set(_imported_modules(path))
    }
    assert importers == {"cli"}


@pytest.fixture(scope="module")
def fields():
    return seeded_fields(random.Random(4101), 4) + [WIDE]


def _assert_canonical_pair(basis, n):
    rows, d = basis
    assert type(rows) is tuple and len(rows) == n
    assert all(type(row) is tuple and len(row) == n for row in rows)
    assert all(type(c) is int for row in rows for c in row)
    assert type(d) is int and d >= 1
    assert hnf(rows) == rows
    assert gcd(d, *(c for row in rows for c in row)) == 1


def test_maximal_order_basis_is_a_canonical_pair(fields):
    for f in fields:
        _assert_canonical_pair(maximal_order(f)[0].basis_in_parent, f.degree)


def test_p_enlarge_basis_is_a_canonical_pair():
    rng = random.Random(4103)
    orders_ = [order for n in (2, 3, 4) for order in random_power_basis_orders(rng, n, 8)]
    enlarged = 0
    for order in orders_:
        for p in (2, 3):
            basis = p_enlarge(order, PrimeModulus(p)).basis_in_parent
            _assert_canonical_pair(basis, order.n)
            enlarged += basis[1] > 1
    assert enlarged >= 5


def test_maximal_order_report_writes_the_pair_through_fraction(fields):
    enlarged = 0
    for f in fields:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["--json", "maximal-order", str(f)]) == 0
        results = json.loads(out.getvalue())["results"]
        order, fundamental = maximal_order(f)
        assert results["basis_in_power_coordinates"] == basis_lines(order.basis_in_parent)
        assert results["fundamental_number"] == fundamental
        assert results["discriminant_power_basis"] == discriminant(f)
        enlarged += order.basis_in_parent[1] > 1
    assert enlarged >= 5


def test_lattice_index_reads_the_diagonal_and_refuses_a_fraction():
    # the paper cubic's maximal order, (a + a^2)/2 over Z[a]: index 2
    assert lattice_index(((2, 0, 0), (0, 2, 0), (0, 1, 1)), 2) == 2
    assert lattice_index(identity_rows(4), 1) == 1
    # 2*Z^2 does not contain Z^2: its "index" would be 1/4
    with pytest.raises(AssertionError, match="does not contain"):
        lattice_index(((2, 0), (0, 2)), 1)
