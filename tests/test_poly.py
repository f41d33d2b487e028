import itertools
import random
from fractions import Fraction

import pytest

from noethops.diffops import DiffOp
from noethops.poly import (
    Block,
    GrevLex,
    Poly,
    PolyParseError,
    RationalFunction,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_up_to,
    parse_polynomial,
)

from oracles import (
    block_key_by_generator,
    grevlex_key_by_generator,
    mono_div_by_zip,
    mono_divides_by_zip,
    mono_lcm_by_zip,
    mono_mul_by_zip,
    rational_function_fully_normalized,
    substitute,
)

XY = ["x", "y"]


def test_parse_basic():
    p = parse_polynomial("x^2 - 2*x*y", XY)
    assert p.terms == {(2, 0): Fraction(1), (1, 1): Fraction(-2)}


def test_parse_zero():
    assert parse_polynomial("0", XY).terms == {}


def test_parse_binomial_square():
    assert parse_polynomial("(x+y)^2", XY) == parse_polynomial("x^2 + 2*x*y + y^2", XY)


def test_parse_rational_literals():
    p = parse_polynomial("1/2*x - 3/4", ["x"])
    assert p.terms == {(1,): Fraction(1, 2), (0,): Fraction(-3, 4)}


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x + ?", XY)
    assert err.value.position == 4
    with pytest.raises(PolyParseError):
        parse_polynomial("x + z", XY)
    with pytest.raises(PolyParseError):
        parse_polynomial("x^", XY)


def test_parse_sign_after_a_binary_operator():
    UV = ["u", "v"]
    assert parse_polynomial("u + -3*v", UV) == parse_polynomial("u - 3*v", UV)
    assert parse_polynomial("x - -y", XY) == parse_polynomial("x + y", XY)
    assert parse_polynomial("x - +y", XY) == parse_polynomial("x - y", XY)
    assert parse_polynomial("-x + -y^2", XY) == parse_polynomial("-(x + y^2)", XY)
    assert parse_polynomial("(x + -1)*(y - -1)", XY) == parse_polynomial("x*y + x - y - 1", XY)


@pytest.mark.parametrize("text", ["x^-1", "2*-x", "x - - -y", "x + -", "--x", "x * +y"])
def test_parse_rejects_signs_outside_term_starts(text):
    with pytest.raises(PolyParseError):
        parse_polynomial(text, XY)


def test_grevlex_examples():
    key = GrevLex().key
    assert key((2, 0)) > key((1, 1))
    assert key((1, 0)) < key((0, 2))


@pytest.mark.parametrize("order", [GrevLex(), Block((0,)), Block((0, 1))])
def test_orders_total_multiplicative_with_minimal_one(order):
    key = order.key
    monos = monomials_up_to(3, 4)
    one = (0, 0, 0)
    for a, b in itertools.combinations(monos, 2):
        assert key(a) != key(b)  # total on distinct monomials
        less = key(a) < key(b)
        for c in monos:
            assert (key(mono_mul(a, c)) < key(mono_mul(b, c))) == less
    assert all(key(one) < key(m) for m in monos if m != one)


def _random_poly(rng, nvars, deg):
    monos = monomials_up_to(nvars, deg)
    return Poly(
        nvars,
        {monos[rng.randrange(len(monos))]: Fraction(rng.randint(-5, 5)) for _ in range(4)},
    )


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(40):
        f, g, h = (_random_poly(rng, 2, 6) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


def test_rational_exactness():
    rng = random.Random(11)
    for _ in range(50):
        a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
        assert Fraction(a, b) * Fraction(b, a) == 1


def test_substitute_examples():
    f = parse_polynomial("x^2 - y", XY)
    assert substitute(f, {0: Poly.zero(2), 1: Poly.zero(2)}) == Poly.zero(2)
    g = parse_polynomial("x^2", XY)
    y = Poly.variable(2, 1)
    assert substitute(g, {0: y + Poly.one(2)}) == parse_polynomial("y^2 + 2*y + 1", XY)
    h = parse_polynomial("x - y^2", XY)
    assert substitute(h, {0: y * y}) == Poly.zero(2)


def test_substitute_unknown_variable():
    with pytest.raises(ValueError):
        substitute(Poly.variable(2, 0), {5: Poly.one(2)})


def test_substitute_rational_function_value():
    y = Poly.variable(2, 1)
    inv_y = RationalFunction(Poly.one(2), y)
    out = substitute(Poly.variable(2, 0), {0: inv_y})
    assert isinstance(out, RationalFunction)
    assert out == inv_y


def test_evaluate_over_rational_functions_matches_substitution():
    # coordinates in Q(u), some of them zero: evaluate agrees with
    # substituting the constants and reading the constant term
    rng = random.Random(5)
    u = Poly.variable(1, 0)

    def rf():
        num = Poly.constant(1, Fraction(rng.randint(-3, 3))) + u * rng.randint(-2, 2)
        den = Poly.one(1) + u * rng.randint(0, 2)
        return RationalFunction(num, den)

    zero = RationalFunction(Poly.zero(1))
    for _ in range(25):
        point = [rf() if rng.random() < 0.6 else zero for _ in range(3)]
        f = Poly(3, {m: rf() for m in rng.sample(monomials_up_to(3, 3), 6)})
        by_substitution = substitute(f, {j: Poly.constant(3, p) for j, p in enumerate(point)}).constant_term()
        assert f.evaluate(point) == by_substitution


def test_derivative_plain_iterated():
    # d^alpha is the plain iterated derivative, no factorial normalization
    f = parse_polynomial("x^3*y", XY)
    assert DiffOp(2, {(2, 0): Poly.one(2)}).apply(f) == parse_polynomial("6*x*y", XY)
    assert DiffOp(2, {(0, 2): Poly.one(2)}).apply(f) == Poly.zero(2)


def test_rational_function_arithmetic():
    x = Poly.variable(1, 0)
    one = Poly.one(1)
    r = RationalFunction(one, x)  # 1/x
    s = RationalFunction(x - one, x * x)  # (x-1)/x^2
    assert r + s == RationalFunction(x + (x - one), x * x)
    assert r * s == RationalFunction(x - one, x * x * x)
    assert (r / r) == 1
    assert 1 / r == RationalFunction(x)
    assert bool(r - r) is False


def test_rational_function_gcd_reduction_univariate():
    x = Poly.variable(1, 0)
    one = Poly.one(1)
    r = RationalFunction((x + one) * (x - one), (x - one) * x)
    assert r.num == x + one and r.den == x


def test_rational_function_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Poly.one(1), Poly.zero(1))


# the fast paths of RationalFunction against the full normalization they skip
# parts of: over Q(u) and Q(u,v), with zero numerators, constant and negative
# denominators, non-unit contents and common univariate factors

SCALARS = [0, 1, -1, 3, Fraction(-2, 3), Fraction(5, 7)]


def _draw_coefficient(rng):
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def _draw_poly(rng, nvars, degree, terms):
    monos = monomials_up_to(nvars, degree)
    return Poly(nvars, {monos[rng.randrange(len(monos))]: _draw_coefficient(rng) for _ in range(terms)})


def _draw_fraction_parts(rng, nvars):
    """(num, den) with den nonzero: often a constant, often with a content
    other than 1 or a negative lead, sometimes with a univariate factor
    shared with num."""
    num = _draw_poly(rng, nvars, 2, rng.randint(0, 3))
    den = Poly.zero(nvars)
    while not den:
        den = _draw_poly(rng, nvars, 0 if rng.random() < 0.25 else 2, rng.randint(1, 3))
    den = den * rng.choice([1, -1, 2, Fraction(-3, 5)])
    if rng.random() < 0.4:
        factor = _draw_poly(rng, nvars, 0, 1) + Poly.variable(nvars, rng.randrange(nvars)) * rng.choice([1, -2])
        num, den = num * factor, den * factor
    return num, den


def _draws(nvars, count=60):
    rng = random.Random(1800 + nvars)
    return [_draw_fraction_parts(rng, nvars) for _ in range(count)]


def _assert_pair(r, pair):
    num, den = pair
    assert (r.num.nvars, r.den.nvars) == (num.nvars, den.nvars)
    assert r.num.terms == num.terms and r.den.terms == den.terms


@pytest.mark.parametrize("nvars", [1, 2])
def test_rational_function_construction_matches_the_full_normalization(nvars):
    constants = [Poly.constant(nvars, Fraction(d)) for d in (1, -1, 4, Fraction(-2, 7))]
    for num, den in _draws(nvars):
        _assert_pair(RationalFunction(num, den), rational_function_fully_normalized(num, den))
        _assert_pair(RationalFunction(num), rational_function_fully_normalized(num))
        for d in constants:
            _assert_pair(RationalFunction(num, d), rational_function_fully_normalized(num, d))


@pytest.mark.parametrize("nvars", [1, 2])
def test_rational_function_arithmetic_fast_paths_match_the_full_normalization(nvars):
    # each right-hand side is what the operation computed before it had a
    # fast path: the general formula, with a scalar k lifted to k/1
    one = Poly.one(nvars)
    for num, den in _draws(nvars):
        r = RationalFunction(num, den)
        n, d = r.num, r.den
        _assert_pair(-r, rational_function_fully_normalized(-n, d))
        for e in range(4):
            _assert_pair(r**e, rational_function_fully_normalized(n**e, d**e))
        for k in SCALARS:
            K = Poly.constant(nvars, Fraction(k))
            for product in (r * k, k * r):
                _assert_pair(product, rational_function_fully_normalized(n * K, d * one))
            if k:
                _assert_pair(r / k, rational_function_fully_normalized(n * one, d * K))
            if r:
                _assert_pair(k / r, rational_function_fully_normalized(K * d, one * n))


def test_rational_function_negative_power_is_the_power_of_the_reciprocal():
    u = Poly.variable(2, 0)
    v = Poly.variable(2, 1)
    one = Poly.one(2)
    for r in (RationalFunction(u, u + one), RationalFunction(u * v * 2, v * v - one * 3), RationalFunction(one * -2)):
        for e in range(1, 4):
            assert r**-e == (1 / r) ** e
            _assert_pair(r**-e, rational_function_fully_normalized(r.den**e, r.num**e))
            assert r**e * r**-e == 1
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Poly.zero(2)) ** -1
    with pytest.raises(ZeroDivisionError):
        1 / RationalFunction(Poly.zero(2))


@pytest.mark.parametrize(
    "text, printed",
    [
        ("0", "0"),
        ("-1", "-1"),
        ("-x^2 + y", "-x^2 + y"),
        ("x^2 - 2*x*y + 3", "x^2 - 2*x*y + 3"),
        ("1/2*x*y^2 - x + 1/2", "1/2*x*y^2 - x + 1/2"),
        ("-3*y - 7/3", "-3*y - 7/3"),
        ("1 + y - x", "-x + y + 1"),
        ("-x*y^2 - 1", "-x*y^2 - 1"),
    ],
)
def test_poly_format_table(text, printed):
    # grevlex descending, signs joined as " + " / " - ", the constant last
    assert parse_polynomial(text, XY).format(XY) == printed


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_block_order_matches_the_composite_grevlex_key(nvars):
    # reference: the eliminated positions compared in grevlex, ties broken
    # by grevlex on the remaining positions
    grevlex = GrevLex().key

    def reference(eliminated):
        def key(m):
            kept = tuple(e for i, e in enumerate(m) if i not in eliminated)
            return (grevlex(tuple(m[i] for i in eliminated)), grevlex(kept))

        return key

    monos = monomials_up_to(nvars, 5)
    for size in range(1, nvars + 1):
        for eliminated in itertools.combinations(range(nvars), size):
            order = Block(eliminated)
            assert sorted(monos, key=order.key) == sorted(monos, key=reference(eliminated))


def _same(got, want):
    """Equal, and with the same types throughout (repr tells int from bool
    and from Fraction)."""
    return got == want and repr(got) == repr(want)


@pytest.mark.parametrize("nvars", range(6))
def test_monomial_kernels_and_order_keys_match_their_zip_definitions(nvars):
    # the empty monomial (nvars 0) and the monomial 1 included
    rng = random.Random(900 + nvars)
    monos = [(0,) * nvars] + [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(30)]
    for a, b in itertools.product(monos, repeat=2):
        assert _same(mono_mul(a, b), mono_mul_by_zip(a, b))
        assert _same(mono_lcm(a, b), mono_lcm_by_zip(a, b))
        assert _same(mono_divides(a, b), mono_divides_by_zip(a, b))
        lcm = mono_lcm(a, b)
        assert _same(mono_div(lcm, a), mono_div_by_zip(lcm, a))
    eliminations = [e for size in range(nvars + 1) for e in itertools.combinations(range(nvars), size)]
    orders = [(GrevLex(), grevlex_key_by_generator)]
    orders += [(Block(e), lambda m, e=e: block_key_by_generator(e, m)) for e in eliminations]
    for order, reference in orders:
        assert all(_same(order.key(m), reference(m)) for m in monos)
        assert sorted(monos, key=order.key) == sorted(monos, key=reference)


def test_poly_format_roundtrip():
    p = parse_polynomial("3/2*x*y^2 - x + 1/2", XY)
    assert parse_polynomial(p.format(XY), XY) == p
    assert Poly.zero(2).format(XY) == "0"
