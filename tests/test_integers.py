import ast
import pathlib
import random
import re
import time

import pytest

import primesplit
from conftest import prime_divisors
from primesplit.integers import is_prime, trial_factor, valuation

SRC = pathlib.Path(primesplit.__file__).parent


def test_complete_trial_factoring_gives_the_prime_divisors():
    # fppoly takes the prime divisors of a degree n from trial_factor(n, n)
    for n in range(1, 5001):
        assert list(trial_factor(n, n)) == prime_divisors(n)


def test_prime_cofactor_time_bound():
    # trial division to 10^6 after the cofactor was already prime took 80 ms
    # CPU time of this process, so other processes' load does not count
    start = time.process_time()
    factors = trial_factor(3**5 * 1000000000039, 10**6)
    assert time.process_time() - start < 0.01
    assert factors == {3: 5, 1000000000039: 1}


def test_small_primes_times_a_large_prime_cofactor():
    rng = random.Random(43)
    small = [q for q in range(2, 100) if prime_divisors(q) == [q]]
    for _ in range(6):
        cofactor = rng.randrange(10**10, 10**12)
        while not is_prime(cofactor):
            cofactor += 1
        n = cofactor
        for q in rng.sample(small, rng.randrange(1, 5)):
            n *= q ** rng.randrange(1, 5)
        expected = {}
        rest = n
        for q in prime_divisors(n):
            while rest % q == 0:
                expected[q] = expected.get(q, 0) + 1
                rest //= q
        assert trial_factor(n, 10**6) == expected
        assert list(trial_factor(n, n)) == list(expected)


def test_composite_tail_past_the_bound_raises():
    tail = 1000003 * 1000033
    message = "factorization of %d exceeds the trial-division bound %d" % (tail, 10**6)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        trial_factor(2**3 * 7 * tail, 10**6)


def test_valuation_counts_the_prime_in_signed_integers():
    rng = random.Random(7)
    for q in (2, 3, 5, 1000003):
        for _ in range(20):
            unit = rng.randrange(1, 10**6) * q + rng.randrange(1, q)
            v = rng.randrange(0, 12)
            assert valuation(unit * q**v, q) == v
            assert valuation(-unit * q**v, q) == v
    assert valuation(1, 2) == 0
    assert valuation(2**31 - 1, 2**31 - 1) == 1


def test_valuation_refuses_zero():
    # every power of q divides 0, so the count would never end
    with pytest.raises(ValueError, match="valuation of 0"):
        valuation(0, 3)


@pytest.mark.parametrize("n, q", [(8, 1), (8, 0), (8, -2), (0, 1)])
def test_valuation_refuses_q_below_2(n, q):
    # 1 divides n forever, 0 divides nothing and -2 is not a prime; q is
    # checked before n = 0
    with pytest.raises(ValueError, match=r"valuation needs q >= 2, got q = %d$" % q):
        valuation(n, q)


def test_trial_factor_refuses_zero():
    with pytest.raises(ValueError, match="cannot factor 0"):
        trial_factor(0, 100)


def _module_trees():
    return {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def _imported(tree):
    """(module, name) for each name a module imports; level > 0 is relative."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            out += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names]
    return out


def _bound_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


class TestLayering:
    """Each decision has one home module, and modules use only each other's public names."""

    def test_integers_imports_nothing_from_the_package(self):
        imported = _imported(_module_trees()["integers"])
        assert not [m for m, _ in imported if m.startswith((".", "primesplit"))]

    def test_no_other_module_defines_integer_number_theory(self):
        owned = {
            "is_prime",
            "trial_factor",
            "prime_power",
            "valuation",
            "xgcd",
            "PRIMALITY_BOUND",
            "DEGREE_BOUND",
        }
        for name, tree in _module_trees().items():
            assert name == "integers" or not owned & _bound_names(tree), name

    def test_no_module_reaches_into_a_sibling(self):
        reached = set()
        for name, tree in _module_trees().items():
            siblings = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        if node.module is None:
                            siblings.add(alias.asname or alias.name)
                        elif alias.name.startswith("_"):
                            reached.add((name, node.module, alias.name))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in siblings
                    and node.attr.startswith("_")
                ):
                    reached.add((name, node.value.id, node.attr))
        assert reached == set()

    def test_only_cli_writes_report_fields(self):
        # the JSON report has one home: no library type serializes itself
        for name, tree in _module_trees().items():
            assert name == "cli" or "to_json_dict" not in _bound_names(tree), name

    def test_lattice_imports_only_integers(self):
        imported = _imported(_module_trees()["lattice"])
        assert {m for m, _ in imported if m.startswith((".", "primesplit"))} == {
            ".integers"
        }


def test_no_module_imports_a_name_it_never_uses():
    tests = {
        "tests/" + path.name: ast.parse(path.read_text())
        for path in pathlib.Path(__file__).parent.glob("*.py")
    }
    for name, tree in {**_module_trees(), **tests}.items():
        if name == "__init__":
            continue
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (name, sorted(imported - used))
