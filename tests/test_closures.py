import itertools
import random

import pytest

from noethops.closures import (
    NewtonPolyhedron,
    NonMonomialIdealError,
    monomial_integral_closure,
    power_schedule,
    shift_search,
)
from noethops.groebner import (
    IdealHandle,
    RingSpec,
    ideal_equal,
    ideal_power,
    is_subideal,
)
from noethops.poly import Poly, mono_divides

from conftest import P, ideal, load_config
from oracles import dilation_member_lp, identity_op, monomial_closure_bruteforce_oracle, partial_op, symbolic_power

YZ = ["y", "z"]


def mono_ideal(*exps, nvars=2):
    return IdealHandle(nvars, [Poly.monomial(nvars, e) for e in exps])


def gens_exponents(I):
    return {next(iter(g.terms)) for g in I.gens}


# --- integral closure -----------------------------------------------------------


def test_closure_two_cusps():
    C = monomial_integral_closure(mono_ideal((3, 0), (0, 3)), 1)
    assert gens_exponents(C) == {(3, 0), (2, 1), (1, 2), (0, 3)}


def test_closure_principal_power():
    C = monomial_integral_closure(mono_ideal((2,), nvars=1), 3)
    assert gens_exponents(C) == {(6,)}


def test_closure_already_closed():
    C = monomial_integral_closure(mono_ideal((4, 0), (0, 1)), 1)
    assert gens_exponents(C) == {(4, 0), (0, 1)}


def test_closure_three_variables():
    I = mono_ideal((2, 0, 0), (0, 2, 0), (0, 0, 2), nvars=3)
    C = monomial_integral_closure(I, 1)
    # all degree-2 monomials are integral over the squares of the variables
    assert gens_exponents(C) == {e for e in itertools.product(range(3), repeat=3) if sum(e) == 2}


def test_closure_rejects_nonmonomial():
    with pytest.raises(NonMonomialIdealError):
        monomial_integral_closure(ideal("x + y"), 1)


def test_closure_contains_ideal_and_idempotent():
    for I in (mono_ideal((3, 0), (0, 3)), mono_ideal((2, 1), (1, 3)), mono_ideal((4, 0), (1, 1))):
        C = monomial_integral_closure(I, 1)
        assert is_subideal(I, C)
        assert ideal_equal(monomial_integral_closure(C, 1), C)


def test_closure_of_power_contains_power_of_closure():
    for I in (mono_ideal((3, 0), (0, 3)), mono_ideal((2, 1), (1, 2))):
        for m in (2, 3):
            Cm = monomial_integral_closure(I, m)
            C1m = ideal_power(monomial_integral_closure(I, 1), m)
            assert all(Cm.contains(g) for g in C1m.gens)


def test_closure_oracle_agreement():
    I = mono_ideal((3, 0), (0, 3))
    C = monomial_integral_closure(I, 1)
    for e in gens_exponents(C):
        assert monomial_closure_bruteforce_oracle(I, e, 6)
    poly = NewtonPolyhedron.of([(3, 0), (0, 3)])
    rng = random.Random(13)
    checked = 0
    while checked < 20:
        e = (rng.randrange(6), rng.randrange(6))
        if poly.contains(e):
            continue
        assert not monomial_closure_bruteforce_oracle(I, e, 6)
        checked += 1


def _random_point_sets(rng, dim, count):
    """`count` sets of 1 to 5 exponents in `dim` variables, entries at most 3
    (at most 2 in 4 variables, to keep the lattice boxes small)."""
    top = 2 if dim == 4 else 3
    for _ in range(count):
        yield [tuple(rng.randint(0, top) for _ in range(dim)) for _ in range(rng.randint(1, 5))]


@pytest.mark.parametrize("dim,count", [(1, 12), (2, 12), (3, 6), (4, 3)])
def test_newton_polyhedron_matches_the_lp_oracle(dim, count):
    # every lattice point of the box one past the m-fold dilation's corner
    rng = random.Random(100 + dim)
    verdicts = set()
    for pts in _random_point_sets(rng, dim, count):
        poly = NewtonPolyhedron.of(pts)
        for m in (1, 2):
            box = range(m * max(max(p) for p in pts) + 2)
            for e in itertools.product(box, repeat=dim):
                member = poly.contains(e, m)
                assert member == dilation_member_lp(pts, e, m), (pts, e, m)
                verdicts.add(member)
    assert verdicts == {True, False}


def test_closure_four_variables_matches_the_bruteforce_oracle():
    squares = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]
    for exps in (squares, [(3, 0, 0, 1), (0, 2, 1, 0), (1, 1, 0, 2), (0, 0, 3, 0)]):
        I = mono_ideal(*exps, nvars=4)
        C = monomial_integral_closure(I, 1)
        top = max(max(e) for e in exps)
        for e in itertools.product(range(top + 1), repeat=4):
            assert C.contains(Poly.monomial(4, e)) == monomial_closure_bruteforce_oracle(I, e, 4), e
    # as in three variables: every degree-2 monomial is integral over the squares
    C = monomial_integral_closure(mono_ideal(*squares, nvars=4), 1)
    assert gens_exponents(C) == {e for e in itertools.product(range(3), repeat=4) if sum(e) == 2}


def test_closure_of_a_power_keeps_the_minimal_members_of_the_bruteforce_oracle():
    # (x^2, y^2, z^2, w^2)^3 in its 7^4 box: the minimal generators are the
    # minimal oracle members, the monomials of degree 6.  A member e has 2e
    # in I^6, so two powers decide each point.
    squares = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]
    I = mono_ideal(*squares, nvars=4)
    I3 = ideal_power(I, 3)
    members = [e for e in itertools.product(range(7), repeat=4) if monomial_closure_bruteforce_oracle(I3, e, 2)]
    minimal = {e for e in members if not any(f != e and mono_divides(f, e) for f in members)}
    assert gens_exponents(monomial_integral_closure(I, 3)) == minimal
    assert minimal == {e for e in itertools.product(range(7), repeat=4) if sum(e) == 6}


def test_oracle_examples():
    I = mono_ideal((3, 0), (0, 3))
    assert monomial_closure_bruteforce_oracle(I, (2, 1), 3)
    assert not monomial_closure_bruteforce_oracle(I, (1, 1), 10)
    assert monomial_closure_bruteforce_oracle(I, (3, 0), 1)


# --- symbolic powers ---------------------------------------------------------------


def test_symbolic_power_of_linear_prime():
    p = mono_ideal((1, 0, 0), (0, 1, 0), nvars=3)
    w = Poly.variable(3, 2)
    assert ideal_equal(symbolic_power(p, 2, w), ideal_power(p, 2))


def test_symbolic_power_principal():
    p = IdealHandle(1, [Poly.variable(1, 0)])
    assert ideal_equal(symbolic_power(p, 3, Poly.one(1)), IdealHandle(1, [Poly.variable(1, 0) ** 3]))


def test_symbolic_power_first_power_and_containment():
    p = mono_ideal((1, 0, 0), (0, 1, 0), nvars=3)
    w = Poly.variable(3, 2)
    assert ideal_equal(symbolic_power(p, 1, w), p)
    for n in (2, 3):
        sp = symbolic_power(p, n, w)
        assert is_subideal(ideal_power(p, n), sp)


def test_symbolic_power_rejects_witness_in_prime():
    p = mono_ideal((1, 0, 0), (0, 1, 0), nvars=3)
    with pytest.raises(ValueError):
        symbolic_power(p, 2, Poly.variable(3, 0))


def test_monomial_curve_prime_symbolic_square_is_strict():
    abc = ["a", "b", "c"]
    p = IdealHandle(3, [P(t, abc) for t in ("b^2 - a*c", "b*c - a^3", "c^2 - a^2*b")])
    sp = symbolic_power(p, 2, P("a", abc))
    sq = ideal_power(p, 2)
    assert is_subideal(sq, sp)
    assert not ideal_equal(sp, sq)


# --- power schedules ------------------------------------------------------------------


def test_bs_harness_fixture(ring_x2, ops_pi_dx):
    rep = shift_search("briancon_skoda", ideal("y^2", "x*y"), ops_pi_dx, ring_x2, 3, 3, 12, ideal_name="J")
    assert [r.c_min for r in rep.rows] == [0, 0, 0]


def test_bs_harness_closed_image_matches_plain_search(ring_x2, ops_pi_dx):
    plain = shift_search("artin_rees", ideal("y"), ops_pi_dx, ring_x2, 3, 3, 10)
    closed = shift_search("briancon_skoda", ideal("y"), ops_pi_dx, ring_x2, 3, 3, 10)
    assert [r.c_min for r in plain.rows] == [r.c_min for r in closed.rows] == [0, 0, 0]


def test_bs_harness_dominates_plain_search(ring_x2, ops_pi_dx):
    for J in (ideal("y^2", "x*y"), ideal("y")):
        plain = shift_search("artin_rees", J, ops_pi_dx, ring_x2, 3, 3, 10)
        closed = shift_search("briancon_skoda", J, ops_pi_dx, ring_x2, 3, 3, 10)
        for a, b in zip(plain.rows, closed.rows):
            assert b.c_min >= a.c_min


def test_bs_harness_rejects_nonmonomial_image(ring_x2, ops_pi_dx):
    with pytest.raises(NonMonomialIdealError):
        shift_search("briancon_skoda", ideal("y^2 + y"), ops_pi_dx, ring_x2, 2, 2, 8)


def test_symb_harness_dimension_one_matches_plain(ring_x2, ops_pi_dx):
    rep = shift_search("symbolic", ideal("x - y"), ops_pi_dx, ring_x2, 3, 3, 12, witness=Poly.one(2))
    assert [r.c_min for r in rep.rows] == [1, 1, 1]
    assert rep.rows[0].witness == P("y")


def test_symb_harness_two_dimensional_reduced_ring():
    xyz = ["x", "y", "z"]
    rad = IdealHandle(3, [P("x", xyz)])
    ring = RingSpec(tuple(xyz), IdealHandle(3, [P("x^2", xyz)]), rad, (rad,))
    from noethops.diffops import DiffOp, OperatorSet

    ops = OperatorSet([identity_op(3), partial_op(3, (1, 0, 0))], rad)
    J = IdealHandle(3, [P("x - y", xyz), P("z", xyz)])
    rep = shift_search("symbolic", J, ops, ring, 2, 4, 8, witness=Poly.one(3))
    assert all(r.c_min is not None for r in rep.rows)


def test_symb_harness_rejects_witness_in_image(ring_x2, ops_pi_dx):
    with pytest.raises(ValueError):
        shift_search("symbolic", ideal("x - y"), ops_pi_dx, ring_x2, 2, 2, 8, witness=P("y"))


def test_symbolic_schedule_keeps_the_radical_with_two_minimal_primes():
    # Q[x,y]/(x^2*y), rad (x*y): the source for (n, c, d) = (1, 1, 1) is
    # (x^2, x*y) : y^infinity = (x).  symbolic_power((x) + rad, 2, y) + rad
    # would be (x^2, x*y) instead.
    rad = ideal("x*y")
    ring = RingSpec(("x", "y"), ideal("x^2*y"), rad, (ideal("x"), ideal("y")))
    J = ideal("x")
    schedule, extras = power_schedule("symbolic", J, ring, P("y"))
    source = schedule(1, 1)
    assert extras == {}
    assert ideal_equal(ring.plus_rad(source), ideal("x"))


@pytest.mark.parametrize("witness", ["1", "x + 1"])
def test_symbolic_schedule_matches_the_saturated_products(witness):
    # on symbolic_x2's ring, P(m) = (I^m + rad) : w^infinity is the oracle's
    # I^m : w^infinity, from the m-fold products, plus rad
    cfg = load_config("symbolic_x2")
    ring = cfg.ring
    (_, J), = cfg.ideals
    w = P(witness)
    schedule, _ = power_schedule("symbolic", J, ring, w)
    I = ring.image_in_reduced(J)
    for m in range(1, 5):
        assert ideal_equal(schedule(1, m - 1), ring.plus_rad(symbolic_power(I, m, w)))


def test_symbolic_schedule_steps_the_exponent_by_the_dimension():
    # R_red = Q[y,z] has dimension 2, and with witness 1 the saturation is
    # the identity: the source for (n, c) is I^(2n + c) + rad, the plain
    # source for (n, n + c)
    xyz = ["x", "y", "z"]
    rad = IdealHandle(3, [P("x", xyz)])
    ring = RingSpec(tuple(xyz), IdealHandle(3, [P("x^2", xyz)]), rad, (rad,))
    J = IdealHandle(3, [P("x - y", xyz), P("z", xyz)])
    symbolic, _ = power_schedule("symbolic", J, ring, Poly.one(3))
    plain, _ = power_schedule("artin_rees", J, ring)
    for n in (1, 2):
        for c in range(4):
            assert ideal_equal(symbolic(n, c), plain(n, n + c))


@pytest.mark.parametrize(
    "mode, name, J", [("briancon_skoda", "monomial_integral_closure", "y"), ("symbolic", "saturate", "x - y")]
)
def test_a_schedule_reads_its_power_once_per_exponent_through_the_module(ring_x2, monkeypatch, mode, name, J):
    # the benchmark's tracer rebinds these names after import, so a schedule
    # must look them up when it runs
    from noethops import closures

    calls = []
    inner = getattr(closures, name)
    monkeypatch.setattr(closures, name, lambda *args: calls.append(args[1:]) or inner(*args))
    schedule, _ = power_schedule(mode, ideal(J), ring_x2)
    assert schedule(1, 1) is schedule(2, 0) is schedule(1, 1)
    assert len(calls) == 1


def test_an_unknown_mode_is_a_value_error(ring_x2, ops_pi_dx):
    with pytest.raises(ValueError, match="^unknown mode 'foo'$"):
        shift_search("foo", ideal("y"), ops_pi_dx, ring_x2, 1, 1, 8)
