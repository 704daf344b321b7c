import ast
import pathlib

import primesplit
from conftest import prime_divisors
from primesplit.integers import trial_factor

SRC = pathlib.Path(primesplit.__file__).parent


def test_complete_trial_factoring_gives_the_prime_divisors():
    # fppoly takes the prime divisors of a degree n from trial_factor(n, n)
    for n in range(1, 5001):
        assert list(trial_factor(n, n)) == prime_divisors(n)


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
    """Rational-integer number theory is decided in `integers` alone."""

    def test_integers_imports_nothing_from_the_package(self):
        imported = _imported(_module_trees()["integers"])
        assert not [m for m, _ in imported if m.startswith((".", "primesplit"))]

    def test_no_other_module_defines_integer_number_theory(self):
        owned = {"is_prime", "trial_factor", "prime_power", "xgcd", "PRIMALITY_BOUND"}
        for name, tree in _module_trees().items():
            assert name == "integers" or not owned & _bound_names(tree), name

    def test_orders_does_not_know_the_modulus_cap(self):
        imported = [name for _, name in _imported(_module_trees()["orders"])]
        assert "MAX_MODULUS" not in imported
