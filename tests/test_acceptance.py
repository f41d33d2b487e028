"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (run with
`pytest tests/test_acceptance.py -v -s`).  Time limits are asserted with
monotonic clocks; expected values are the frozen fixtures derived by hand or
against the independent oracles in the per-module test files.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from noethops.closures import monomial_integral_closure, shift_search
from noethops.cli import main
from noethops.diffops import ArithmeticBugError, OperatorSet
from noethops.groebner import (
    IdealHandle,
    RingSpec,
    ideal_equal,
    ideal_power,
    is_subideal,
    standard_monomials,
)
from noethops.noetherian import (
    PrimaryComponent,
    dual_space,
    noetherian_ops_primary,
    verify_noetherian_ops,
)
from noethops.poly import Poly, monomials_up_to, parse_polynomial
from noethops.uniformity import check_reverse, separating_operator

from conftest import P, ideal, order_lemma_witness
from oracles import identity_op, monomial_closure_bruteforce_oracle, partial_op, symbolic_power

XY = ["x", "y"]


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture
def ring_x2():
    rad = ideal("x")
    return RingSpec(tuple(XY), ideal("x^2"), rad, (rad,))


@pytest.fixture
def ops_pi_dx(ring_x2):
    return OperatorSet([identity_op(2), partial_op(2, (1, 0))], ring_x2.rad)


def test_criterion_01_zero_dimensional_round_trip():
    start = time.monotonic()
    suite = [("x", "y"), ("x^2", "y"), ("x^2", "x*y", "y^2"), ("x^2", "y - x"), ("x^3", "y")]
    ok = True
    for gens in suite:
        Q = ideal(*gens)
        ops = dual_space(Q, (0, 0))
        ok = ok and len(ops) == len(standard_monomials(Q))
        cert = verify_noetherian_ops(Q, ops, 6)
        ok = ok and cert.status == "exact"
    elapsed = time.monotonic() - start
    _report(1, "zero-dimensional round trip", ok and elapsed < 5.0)


def test_criterion_02_positive_dimensional_operators():
    start = time.monotonic()
    ok = True
    for gens, prime in ((("x^2",), "x"), (("(x - y^2)^2",), "x - y^2")):
        Q = IdealHandle(2, [P(g) for g in gens])
        comp = PrimaryComponent(Q, ideal(prime), independent=(1,))
        ops = noetherian_ops_primary(comp)
        ok = ok and ops.format(XY) == "1; dx"
        ok = ok and verify_noetherian_ops(Q, ops, 8).status == "exact"
    elapsed = time.monotonic() - start
    _report(2, "positive-dimensional operators", ok and elapsed < 5.0)


def test_criterion_03_empirical_constants(ring_x2, ops_pi_dx):
    start = time.monotonic()
    rep1 = shift_search("artin_rees", ideal("x - y"), ops_pi_dx, ring_x2, 3, 3, 12, ideal_name="J1")
    ok = [r.c_min for r in rep1.rows] == [1, 1, 1]
    ok = ok and rep1.rows[0].witness == P("y")
    rep2 = shift_search("artin_rees", ideal("x", "y"), ops_pi_dx, ring_x2, 3, 3, 12, ideal_name="J2")
    rep3 = shift_search("artin_rees", ideal("y"), ops_pi_dx, ring_x2, 3, 3, 12, ideal_name="J3")
    ok = ok and [r.c_min for r in rep2.rows] == [0, 0, 0]
    ok = ok and [r.c_min for r in rep3.rows] == [0, 0, 0]
    # independent re-verification of the recorded witness at (n=1, c=0)
    w = rep1.rows[0].witness
    I = ring_x2.image_in_reduced(ideal("x - y"))
    colon_source = IdealHandle(2, ideal_power(I, 1).gens + ring_x2.rad.gens)
    ok = ok and all(not colon_source.normal_form(op.apply(w)) for op in ops_pi_dx)
    ok = ok and bool(IdealHandle(2, ideal("x - y").gens + ring_x2.N.gens).normal_form(w))
    elapsed = time.monotonic() - start
    _report(3, "differential uniform constants", ok and elapsed < 30.0)


def test_criterion_04_reverse_containment(ring_x2, ops_pi_dx):
    ok = ops_pi_dx.max_order == 1
    for J in (ideal("x - y"), ideal("x", "y"), ideal("y")):
        for n in range(1, 6):
            try:
                check_reverse(J, ops_pi_dx, ring_x2, n)
            except ArithmeticBugError:
                ok = False
    _report(4, "reverse containment", ok)


def test_criterion_05_order_lemma_regression(ring_x2):
    rad = ring_x2.rad
    fixtures = [
        (partial_op(2, (1, 0)), ideal("x - y"), ideal("y"), 2, rad),
        (identity_op(2), ideal("x - y"), ideal("y"), 3, rad),
        (partial_op(2, (2, 0)), ideal("x"), ideal("x"), 1, None),
    ]
    ok = all(order_lemma_witness(delta, J, I, t, modulus) is None for delta, J, I, t, modulus in fixtures)
    # without the modulus dx(x^2) = 2x lies outside (y): the check can refute
    ok = ok and order_lemma_witness(partial_op(2, (1, 0)), ideal("x"), ideal("y"), 1) == P("x^2")
    _report(5, "order lemma regression", ok)


def test_criterion_06_separating_operators(ring_x2, linearity_checks):
    start = time.monotonic()
    b1 = ideal("x")
    res1 = separating_operator(IdealHandle(2, []), b1, ring_x2, ring_x2.rad, [Poly.one(2)], 3, 2)
    ok = res1.delta.order == 1 and res1.d_value == 1
    rad = ideal("x")
    ring_x3 = RingSpec(tuple(XY), ideal("x^3"), rad, (rad,))
    b2 = ideal("x^2")
    res2 = separating_operator(IdealHandle(2, []), b2, ring_x3, rad, [Poly.one(2)], 3, 2)
    ok = ok and res2.delta.order == 2 and res2.d_value == 2
    # linearity was decided exactly: on [delta, x] and [delta, y], over b's generators, into p
    ok = ok and linearity_checks == [
        ([res.delta.bracket(P(v)) for v in XY], list(b.gens), p)
        for res, b, p in ((res1, b1, ring_x2.rad), (res2, b2, rad))
    ]
    elapsed = time.monotonic() - start
    _report(6, "separating operators", ok and elapsed < 10.0)


def test_criterion_07_integral_closure_harness(ring_x2, ops_pi_dx):
    start = time.monotonic()
    rep = shift_search("briancon_skoda", ideal("y^2", "x*y"), ops_pi_dx, ring_x2, 3, 3, 12, ideal_name="J")
    ok = [r.c_min for r in rep.rows] == [0, 0, 0]
    yz = IdealHandle(2, [Poly.monomial(2, (3, 0)), Poly.monomial(2, (0, 3))])
    closure = monomial_integral_closure(yz, 1)
    gens = {next(iter(g.terms)) for g in closure.gens}
    ok = ok and gens == {(3, 0), (2, 1), (1, 2), (0, 3)}
    ok = ok and all(monomial_closure_bruteforce_oracle(yz, e, 6) for e in gens)
    elapsed = time.monotonic() - start
    _report(7, "integral closure harness", ok and elapsed < 30.0)


def test_criterion_08_symbolic_power_harness(ring_x2, ops_pi_dx):
    start = time.monotonic()
    rep = shift_search("symbolic", ideal("x - y"), ops_pi_dx, ring_x2, 3, 3, 12, witness=Poly.one(2))
    ok = [r.c_min for r in rep.rows] == [1, 1, 1]
    abc = ["a", "b", "c"]
    p = IdealHandle(3, [parse_polynomial(t, abc) for t in ("b^2 - a*c", "b*c - a^3", "c^2 - a^2*b")])
    sp = symbolic_power(p, 2, parse_polynomial("a", abc))
    sq = ideal_power(p, 2)
    ok = ok and is_subideal(sq, sp) and not ideal_equal(sp, sq)
    elapsed = time.monotonic() - start
    _report(8, "symbolic power harness", ok and elapsed < 60.0)


def test_criterion_09_groebner_kernel_properties():
    rng = random.Random(909)
    monos3 = monomials_up_to(3, 3)
    monos6 = monomials_up_to(3, 6)

    def rand_poly(monos):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[monos[rng.randrange(len(monos))]] = Fraction(rng.randint(-4, 4))
        return Poly(3, terms)

    pool = []
    while len(pool) < 15:
        handle = IdealHandle(3, [rand_poly(monos3) for _ in range(rng.randint(2, 3))])
        if handle.gens:
            pool.append(handle)

    checks = 0
    ok = True
    while checks < 500:
        I = pool[rng.randrange(len(pool))]
        member = Poly.zero(3)
        for g in I.gens:
            member = member + rand_poly(monos3) * g
        ok = ok and not I.normal_form(member)
        checks += 1
        f, g = rand_poly(monos6), rand_poly(monos6)
        ok = ok and I.normal_form(f + g) == I.normal_form(f) + I.normal_form(g)
        checks += 1
        ok = ok and I.normal_form(I.normal_form(f)) == I.normal_form(f)
        checks += 1
    # byte-stable basis across independent computations
    names = ["x", "y", "z"]
    for I in pool[:5]:
        fresh = IdealHandle(3, list(I.gens))
        ok = ok and [g.format(names) for g in I.gb] == [g.format(names) for g in fresh.gb]
    _report(9, f"groebner kernel ({checks} checks)", ok)


def test_criterion_10_experiment_determinism(tmp_path):
    config = {
        "ring": "ring: Q[x,y] / (x^2)\nradical: (x)\nminimal-primes: [(x)]",
        "ideals": {"J1": "x - y", "J2": "x; y", "J3": "y"},
        "operators": "1; dx",
        "mode": "artin_rees",
        "parameters": {"n_max": 3, "c_max": 3, "degree": 12, "seed": 0},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for name in ("a", "b", "c"):
        out = tmp_path / f"{name}.json"
        rc = main(["experiment", str(cfg), "--format", "json", "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(10, "experiment determinism", ok)
