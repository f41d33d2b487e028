"""Reference implementations the tests compare the package against."""

import itertools

from noethops.closures import _monomial_exponents
from noethops.groebner import IdealHandle
from noethops.poly import Mono, mono_divides


def monomial_closure_bruteforce_oracle(I: IdealHandle, candidate: Mono, k_max: int) -> bool:
    """Valuation-criterion oracle: x^a is integral over I iff x^(k*a) lies in
    I^k for some k <= k_max.  Test use only, independent of the polyhedron."""
    exps = _monomial_exponents(I)
    for k in range(1, k_max + 1):
        target = tuple(k * a for a in candidate)
        for combo in itertools.combinations_with_replacement(exps, k):
            total = [0] * len(candidate)
            for e in combo:
                for i, x in enumerate(e):
                    total[i] += x
            if mono_divides(tuple(total), target):
                return True
    return False
