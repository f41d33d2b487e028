import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import noethops
from noethops import uniformity
from noethops.configs import load_experiment_config
from noethops.diffops import DiffOp, OperatorSet, first_not_killed
from noethops.groebner import IdealHandle, RingSpec, ideal_power
from noethops.poly import Poly, monomials_up_to

from oracles import identity_op, partial_op

XY = ["x", "y"]

CONFIG_DIR = Path(__file__).parents[1] / "configs"
RING_3VAR = "ring: Q[x,y,z] / (x^2)\nradical: (x)\nminimal-primes: [(x)]"
# the configs of the benchmark's colon_3var and groebner_powers workloads
WORKLOAD_CONFIGS = {
    "colon_3var": {
        "ring": RING_3VAR,
        "ideals": {"J1": "x - y; z", "J2": "x; y*z"},
        "operators": "1; dx",
        "mode": "artin_rees",
        "parameters": {"n_max": 2, "c_max": 3, "degree": 14, "seed": 0},
    },
    "groebner_powers": {
        "ring": RING_3VAR,
        "ideals": {"G1": "y^2 - x*z; z^2 - y; x*y - z"},
        "operators": "1; dx",
        "mode": "artin_rees",
        "parameters": {"n_max": 4, "c_max": 3, "degree": 6, "seed": 0},
    },
}
# the six shipped configs and the two workload configs, by name
CONFIGS = sorted(p.stem for p in CONFIG_DIR.glob("*.json")) + sorted(WORKLOAD_CONFIGS)


def load_config(name: str):
    """One of `CONFIGS`, loaded."""
    return load_experiment_config(WORKLOAD_CONFIGS.get(name) or str(CONFIG_DIR / f"{name}.json"))


def P(text: str, names=XY) -> Poly:
    from noethops.poly import parse_polynomial

    return parse_polynomial(text, names)


def ideal(*texts: str, names=XY) -> IdealHandle:
    return IdealHandle(len(names), [P(t, names) for t in texts])


def random_polynomial(rng: random.Random, nvars: int, max_degree: int, max_terms: int = 4) -> Poly:
    """Up to `max_terms` terms of degree at most `max_degree`, with integer
    coefficients in [-4, 4]."""
    monos = monomials_up_to(nvars, max_degree)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = monos[rng.randrange(len(monos))]
        c = rng.randint(-4, 4)
        if c:
            terms[m] = terms.get(m, 0) + c
    return Poly(nvars, terms)


def keeps_the_rule(value) -> bool:
    """Is `value` a rational as the package stores one: an int when it is
    integral, a `Fraction` only when it has a denominator (never a float)?"""
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


def typed_terms(p: Poly) -> list:
    """The terms of p in dict order, each with its coefficient's type."""
    return [(m, c, type(c)) for m, c in p.terms.items()]


def order_lemma_witness(
    delta: DiffOp, J: IdealHandle, I: IdealHandle, t: int, modulus: IdealHandle | None = None
) -> Poly | None:
    """The order lemma delta(J^(e+t)) in I^t + modulus, e = order(delta),
    decided exactly by `first_not_killed`: None when it holds, else the
    first multiple of a generator of J^(e+t) carried outside.  No modulus
    reads the values in P itself."""
    if modulus is None:
        modulus = IdealHandle(delta.nvars, [])
    target = ideal_power(I, t)
    target = IdealHandle(target.nvars, target.gens + modulus.gens)
    ops = OperatorSet([delta], modulus)
    return first_not_killed(ops, ideal_power(J, delta.order + t).gens, target)


def run_under_python_O(script: str) -> list[str]:
    """The first word of each line the script prints, run by `python -O`
    on this package."""
    src_root = os.path.dirname(os.path.dirname(noethops.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_root},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split(":")[0] for line in proc.stdout.splitlines()]


@pytest.fixture
def ring_x2() -> RingSpec:
    """Q[x,y] with defining ideal (x^2), radical (x)."""
    rad = ideal("x")
    return RingSpec(tuple(XY), ideal("x^2"), rad, (rad,))


@pytest.fixture
def ring_x3() -> RingSpec:
    rad = ideal("x")
    return RingSpec(tuple(XY), ideal("x^3"), rad, (rad,))


@pytest.fixture
def ops_pi_dx(ring_x2) -> OperatorSet:
    """The projection and the projected first derivative, into R_red."""
    return OperatorSet([identity_op(2), partial_op(2, (1, 0))], ring_x2.rad)


@pytest.fixture
def linearity_checks(monkeypatch) -> list:
    """The (operators, generators, target) of every exact linearity check
    that `separating_operator` runs, recorded; the answers are unchanged."""
    calls = []

    def recording(ops, gens, target=None):
        calls.append((list(ops), list(gens), target))
        return first_not_killed(ops, gens, target)

    monkeypatch.setattr(uniformity, "first_not_killed", recording)
    return calls
