"""Exact arithmetic for prime splitting in number-field orders.

The library connects two factorizations: a rational prime p in the ring
of integers of a number field, and the defining polynomial modulo p.
When p does not divide the index of the chosen generator the two match
factor-for-factor; the index-divisibility criterion detects the
exceptional primes from the polynomial alone, and order/ideal
arithmetic (multiplication tables, Hermite normal form lattices, the
Round 2 maximal order) handles them in the maximal order.
"""

from .criteria import (
    IndexDivisorError,
    IndexVerdict,
    SplittingShape,
    assign_prime_functions,
    common_index_divisor,
    factor_prime_via_polynomial,
    index_divisible,
)
from .fppoly import (
    FpPoly,
    PrimeModulus,
    count_monic_irreducibles,
    enumerate_monic_irreducibles,
    fp_factor,
    fp_gcd,
    fp_is_irreducible,
)
from .ideals import (
    LatticeIdeal,
    bracket_str,
    crt_good_generator,
    factor_p_in_order,
    ideal_from_generators,
    ideal_product,
    principal_ideal,
    whole_order,
)
from .indexform import MultiPoly, common_value_divisor, index_form
from .lattice import hnf
from .orders import (
    Order,
    OrderElement,
    char_poly,
    cubic_family,
    element_index,
    maximal_order,
    order_discriminant,
    order_from_polynomial,
    p_enlarge,
)
from .zpoly import ZPoly, cofactor_m, discriminant, lift, reduce_mod, resultant

__version__ = "0.1.0"

__all__ = [
    "FpPoly",
    "IndexDivisorError",
    "IndexVerdict",
    "LatticeIdeal",
    "MultiPoly",
    "Order",
    "OrderElement",
    "PrimeModulus",
    "SplittingShape",
    "ZPoly",
    "assign_prime_functions",
    "bracket_str",
    "char_poly",
    "cofactor_m",
    "common_index_divisor",
    "common_value_divisor",
    "count_monic_irreducibles",
    "crt_good_generator",
    "cubic_family",
    "discriminant",
    "element_index",
    "enumerate_monic_irreducibles",
    "factor_p_in_order",
    "factor_prime_via_polynomial",
    "fp_factor",
    "fp_gcd",
    "fp_is_irreducible",
    "hnf",
    "ideal_from_generators",
    "ideal_product",
    "index_divisible",
    "index_form",
    "lift",
    "maximal_order",
    "order_discriminant",
    "order_from_polynomial",
    "p_enlarge",
    "principal_ideal",
    "reduce_mod",
    "resultant",
    "whole_order",
]
