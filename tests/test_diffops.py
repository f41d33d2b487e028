import dataclasses
import functools
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import noethops
from noethops import diffops, groebner, linalg, noetherian, uniformity
from noethops.configs import load_experiment_config, run_experiment_config
from noethops.diffops import (
    ArithmeticBugError,
    DiffOp,
    OperatorSet,
    TruncatedSubspace,
    first_not_killed,
    operator_kernel,
    parse_operator,
    parse_operator_set,
)
from noethops.groebner import IdealHandle, ideal_power, is_subideal
from noethops.poly import Poly, mono_mul, mono_unit, monomials_up_to

from conftest import P, ideal, order_lemma_witness, random_polynomial, run_under_python_O, typed_terms
from oracles import (
    apply_by_derivatives,
    bracket_by_leibniz,
    colon_oracle,
    derivative,
    first_not_killed_by_scaling,
    identity_op,
    partial_op,
    subspace_from_polynomials,
)

XY = ["x", "y"]


def dx():
    return partial_op(2, (1, 0))


def dy():
    return partial_op(2, (0, 1))


# --- apply -----------------------------------------------------------------


def test_apply_examples(ring_x2):
    assert dx().apply(P("x^2")) == P("2*x")
    op = parse_operator("y*dx*dy", XY)
    assert op.apply(P("x^2*y")) == P("2*x*y")
    f = P("x^2 + y")
    assert identity_op(2).apply(f) == f
    # an operator acts on P: reading modulo rad is the operator set's, and
    # x^2, zero modulo rad = (x), is a dead monomial of the identity
    ops = OperatorSet([identity_op(2)], ring_x2.rad)
    assert ops.values_at((2, 0)) is None and ops.values_at((0, 2)) == [P("y^2")]
    assert not parse_operator("x*dx - y*dy", XY).apply(P("x*y")).terms


def test_apply_is_linear():
    rng = random.Random(5)
    op = parse_operator("y*dx^2 + x*dy + 3", XY)
    monos = monomials_up_to(2, 5)
    for _ in range(30):
        f = Poly(2, {monos[rng.randrange(len(monos))]: Fraction(rng.randint(-4, 4))})
        g = Poly(2, {monos[rng.randrange(len(monos))]: Fraction(rng.randint(-4, 4))})
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        assert op.apply(a * f + b * g) == a * op.apply(f) + b * op.apply(g)


def test_apply_variable_mismatch():
    with pytest.raises(ValueError):
        dx().apply(Poly.variable(3, 0))


def _random_operator(rng: random.Random, nvars: int) -> DiffOp:
    """Up to four terms of order at most 3; coefficients of degree at most 2,
    sometimes the constant 1 or a bare monomial."""
    alphas = monomials_up_to(nvars, 3)
    terms = []
    for _ in range(rng.randint(1, 4)):
        alpha = alphas[rng.randrange(len(alphas))]
        kind = rng.randrange(3)
        if kind == 0:
            coeff = Poly.one(nvars)
        elif kind == 1:
            coeff = Poly.monomial(nvars, alphas[rng.randrange(len(alphas))], Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        else:
            coeff = random_polynomial(rng, nvars, 2)
        terms.append((alpha, coeff))
    return DiffOp(nvars, terms)


def _random_arguments(rng: random.Random, nvars: int) -> list[Poly]:
    """The zero polynomial, a constant, polynomials of degree at most 2 (so
    below many of the derivatives) and of degree at most 5."""
    return [
        Poly.zero(nvars),
        Poly.constant(nvars, Fraction(rng.randint(1, 5), rng.randint(1, 4))),
        random_polynomial(rng, nvars, 2),
        random_polynomial(rng, nvars, 5, max_terms=6),
        random_polynomial(rng, nvars, 5, max_terms=6),
    ]


def _non_monomial_modulus(nvars: int) -> IdealHandle:
    x = [Poly.variable(nvars, i) for i in range(nvars)]
    return IdealHandle(nvars, [x[0] ** 2 - x[-1] + Poly.one(nvars), x[0] * x[-1] ** 2 + x[0]])


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("with_modulus", [False, True])
def test_apply_matches_the_derivative_sum(nvars, with_modulus):
    # with a modulus, both values are read modulo a non-monomial ideal
    rng = random.Random(1000 * nvars + with_modulus)
    read = _non_monomial_modulus(nvars).normal_form if with_modulus else (lambda f: f)
    for _ in range(40):
        op = _random_operator(rng, nvars)
        for f in _random_arguments(rng, nvars):
            assert read(op.apply(f)) == read(apply_by_derivatives(op, f))


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_on_monomials_reads_the_values_modulo_the_set_modulus(nvars):
    rng = random.Random(70 + nvars)
    modulus = _non_monomial_modulus(nvars)
    ops = OperatorSet([_random_operator(rng, nvars) for _ in range(3)], modulus)
    monos, live = ops.columns(4)
    assert monos == monomials_up_to(nvars, 4)
    assert live == [j for j, m in enumerate(monos) if not ops.is_dead(m)]
    reduced = False
    for m in monos:
        x_m = Poly.monomial(nvars, m)
        want = [modulus.normal_form(op.apply(x_m)) for op in ops]
        per_op = ops.values_at(m)
        # a dead monomial keeps no values, and every value of it is zero
        assert per_op == want if per_op is not None else not any(want)
        reduced = reduced or want != [op.apply(x_m) for op in ops]
    assert reduced


CONFIG_PATHS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=[p.stem for p in CONFIG_PATHS])
def test_apply_matches_the_derivative_sum_on_shipped_operator_sets(path):
    cfg = load_experiment_config(str(path))
    ops = cfg.operators
    monos, live = ops.columns(cfg.degree)
    assert len(monos) == len(monomials_up_to(cfg.ring.nvars, cfg.degree))
    for j, m in enumerate(monos):
        f = Poly.monomial(cfg.ring.nvars, m)
        want = [ops.modulus.normal_form(apply_by_derivatives(op, f)) for op in ops]
        per_op = ops.values_at(m)
        # a dead monomial keeps no values: every operator carries it into the modulus
        assert (per_op is None) == (j not in live) == ops.is_dead(m)
        assert per_op == want if per_op is not None else not any(want)


# --- bracket ----------------------------------------------------------------


def test_bracket_examples():
    assert dx().bracket(P("x")) == DiffOp(2, {(0, 0): Poly.one(2)})
    assert not dx().bracket(P("y"))
    assert partial_op(2, (1, 1)).bracket(P("x")) == dy()


def test_bracket_matches_definition():
    rng = random.Random(9)
    op = parse_operator("x*dx^2*dy + y^2*dx + 1", XY)
    monos = monomials_up_to(2, 4)
    for _ in range(20):
        f = Poly(2, {monos[rng.randrange(len(monos))]: Fraction(rng.randint(-3, 3))})
        g = Poly(2, {monos[rng.randrange(len(monos))]: Fraction(rng.randint(-3, 3))})
        assert op.bracket(f).apply(g) == op.apply(f * g) - f * op.apply(g)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_bracket_matches_the_leibniz_sum(nvars):
    # the bracket reads each d^gamma f off `apply`; the oracle builds it
    # from the derivative formula
    rng = random.Random(500 + nvars)
    for _ in range(20):
        op = _random_operator(rng, nvars)
        for f in _random_arguments(rng, nvars):
            assert op.bracket(f) == bracket_by_leibniz(op, f)


def test_bracket_drops_order():
    for text in ("dx^2 + y*dx", "x*dx*dy", "dx^2*dy^2 + dx"):
        op = parse_operator(text, XY)
        for v in (P("x"), P("y")):
            br = op.bracket(v)
            assert br.order < op.order


# --- order -------------------------------------------------------------------


def test_order_examples(ring_x2):
    assert parse_operator("dx^2 + y*dx", XY).order == 2
    assert parse_operator("x", XY).order == 0
    assert dx().order == 1
    # the order counts derivatives, whatever the set reads the values modulo
    assert OperatorSet([dx()], ring_x2.rad).max_order == 1
    assert DiffOp(2, {}).order == 0


def test_an_operator_set_cannot_be_changed_after_it_is_built():
    # appending to the operators would leave the values cached per monomial
    # (`values_at`) and the columns per degree bound (`columns`) stale, and
    # a loaded config shares its set
    cfg = load_experiment_config(str(Path(__file__).parents[1] / "configs" / "artin_rees_x2.json"))
    ops = cfg.operators
    columns, values = ops.columns(2), ops.values_at((0, 1))
    assert isinstance(ops.ops, tuple) and len(ops) == 2
    with pytest.raises(AttributeError):
        ops.ops.append(dx())
    for name, value in (("ops", [dx()]), ("modulus", ideal("y")), ("component", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ops, name, value)
    assert len(ops) == 2 and ops.columns(2) is columns and ops.values_at((0, 1)) is values
    # a set, or any iterable of operators, builds a set, as the benchmark does
    again = OperatorSet(ops, ops.modulus)
    assert again.ops == ops.ops and again.component is None


def test_operator_determined_by_low_degree_values():
    # reconstruct the coefficients of an operator of order <= d from its
    # values on monomials of degree <= d, then compare
    rng = random.Random(21)
    op = parse_operator("y*dx^2 + x*y*dy + 2*dx - 5", XY)
    d = op.order
    recovered = {}
    for alpha in monomials_up_to(2, d):
        value = op.apply(Poly.monomial(2, alpha))
        for gamma, coeff in list(recovered.items()):
            value = value - coeff * derivative(Poly.monomial(2, alpha), gamma)
        fact = math.factorial(alpha[0]) * math.factorial(alpha[1])
        recovered[alpha] = value * Fraction(1, fact)
    assert DiffOp(2, recovered) == op


# --- parsing and printing ------------------------------------------------------


def test_parse_operator_set_roundtrip(ring_x2):
    ops = parse_operator_set("1; dx; y*dx*dy + 1", XY, ring_x2.rad)
    assert len(ops) == 3
    assert ops.max_order == 2
    assert ops.format(XY) == "1; dx; y*dx*dy + 1"
    reparsed = parse_operator_set(ops.format(XY), XY, ring_x2.rad)
    assert [o.terms for o in reparsed] == [o.terms for o in ops]


@pytest.mark.parametrize(
    "text, printed",
    [
        ("0", "0"),
        ("1", "1"),
        ("-dx", "-dx"),
        ("-2*dy", "-2*dy"),
        ("-2*x*dx^2 + dy - 1", "-2*x*dx^2 + dy - 1"),
        ("(x - y)*dx^2", "(x - y)*dx^2"),
        ("x + 1", "(x + 1)"),
        ("(x + 1)*dy + x + 1", "(x + 1)*dy + (x + 1)"),
        ("-(x + y)*dx", "(-x - y)*dx"),
        ("-x*dy - 2", "-x*dy - 2"),
        ("dx^2*dy - dx*dy^2 + 3*dy", "dx^2*dy - dx*dy^2 + 3*dy"),
        ("1/2*dx - 1/3", "1/2*dx - 1/3"),
        ("-1 + (y^2 - 1)*dx - dx*dy", "-dx*dy + (y^2 - 1)*dx - 1"),
    ],
)
def test_operator_format_table(text, printed):
    # derivatives descending in grevlex, a coefficient of several terms in
    # parentheses, a coefficient of 1 or -1 left out before a derivative
    assert parse_operator(text, XY).format(XY) == printed


# --- kernels -------------------------------------------------------------------


def test_operator_kernel_of_projection(ring_x2):
    ops = OperatorSet([identity_op(2)], ring_x2.rad)
    S = operator_kernel(ops, ring_x2.rad, 2)
    assert S.monos == monomials_up_to(2, 2)
    assert (S.nvars, S.degree_bound) == (2, 2)
    # the equations come in reduced row echelon form
    assert (S.reduced, S.pivots) == linalg.rref(S.reduced, len(S.monos))
    # kernel of the projection: multiples of x, of degree <= 2
    assert S.dim == 3
    assert set(S.basis) == {P("x"), P("x^2"), P("x*y")}


def test_operator_kernel_shares_values_across_conditions(ring_x2):
    # one set serves kernels under several conditions: each equals the
    # kernel computed by a fresh set, and the conditions do change it
    text = "1; dx; y*dx^2 + x*dy"
    shared = parse_operator_set(text, XY, ring_x2.rad)
    dims = []
    for cond in (ideal("x", "y^2"), ring_x2.rad, ideal("x", "y^3")):
        fresh = parse_operator_set(text, XY, ring_x2.rad)
        S, T = operator_kernel(shared, cond, 5), operator_kernel(fresh, cond, 5)
        assert (S.monos, S.reduced, S.pivots) == (T.monos, T.reduced, T.pivots)
        dims.append(S.dim)
    assert len(set(dims)) == 3


def test_operator_kernel_is_kept_per_condition_and_degree_bound(ring_x2):
    # the same (condition handle, D) returns the kept kernel; another D, or
    # another handle, even of the same generators, builds a new one, equal
    # to the kernel a fresh set builds
    text = "1; dx; y*dx^2 + x*dy"
    ops = parse_operator_set(text, XY, ring_x2.rad)
    cond = ideal("x", "y^2")
    S = operator_kernel(ops, cond, 4)
    assert operator_kernel(ops, cond, 4) is S
    for other, D in ((cond, 5), (ideal("x", "y^2"), 4), (ideal("x", "y^3"), 4), (ring_x2.rad, 4)):
        T = operator_kernel(ops, other, D)
        assert T is not S and operator_kernel(ops, other, D) is T
        fresh = operator_kernel(parse_operator_set(text, XY, ring_x2.rad), other, D)
        assert (T.monos, T.reduced, T.pivots) == (fresh.monos, fresh.reduced, fresh.pivots)


def test_shipped_configs_build_each_truncated_kernel_once(monkeypatch):
    # a colon depends only on its condition ideal: the 68 colons and
    # verifications of the six shipped configs need 34 kernels, each held
    # in the echelon form with last-column pivots
    built = []
    rref = linalg.rref

    def counting(rows, ncols, **kwargs):
        if sys._getframe(1).f_code.co_name == "operator_kernel":
            built.append(kwargs)
        return rref(rows, ncols, **kwargs)

    monkeypatch.setattr(linalg, "rref", counting)
    for path in sorted((Path(__file__).parents[1] / "configs").glob("*.json")):
        run_experiment_config(load_experiment_config(str(path)))
    assert built == [{"last_leading": True}] * 34


# --- order lemma ---------------------------------------------------------------


def test_order_lemma_fixtures(ring_x2):
    rad = ring_x2.rad
    fixtures = [
        (dx(), ideal("x - y"), ideal("y"), 2, rad),
        (identity_op(2), ideal("x - y"), ideal("y"), 3, rad),
        (partial_op(2, (2, 0)), ideal("x"), ideal("x"), 1, None),
    ]
    for delta, J, I, t, modulus in fixtures:
        assert order_lemma_witness(delta, J, I, t, modulus) is None


def test_order_lemma_with_polynomial_coefficients(ring_x2):
    delta = parse_operator("y*dx^2 + x*dy + 3", XY)
    for J in (ideal("x - y"), ideal("x", "y")):
        assert order_lemma_witness(delta, J, ideal("y"), 2, ring_x2.rad) is None


def test_order_lemma_refuted_without_the_modulus():
    # dx(x^2) = 2x lies outside (y): J^(e+t) = (x^2) is not carried into I^t
    assert order_lemma_witness(dx(), ideal("x"), ideal("y"), 1) == P("x^2")


# --- the Leibniz bound: dead monomials -------------------------------------------


def _random_operator_of_order(rng: random.Random, nvars: int, e: int) -> DiffOp:
    """A term at a derivative of order e and up to two below it, each with a
    nonzero coefficient of degree at most 2."""
    alphas = monomials_up_to(nvars, e)
    top = rng.choice([a for a in alphas if sum(a) == e])
    terms = {alpha: random_polynomial(rng, nvars, 2) or Poly.one(nvars) for alpha in rng.sample(alphas, min(2, len(alphas)))}
    terms[top] = random_polynomial(rng, nvars, 2) or Poly.one(nvars)
    return DiffOp(nvars, terms)


def _leibniz_ideals(nvars: int) -> list[IdealHandle]:
    """A monomial ideal and a non-monomial one, each holding a variable or
    an element with a linear term, so the bound is tight on both."""
    x = [Poly.variable(nvars, i) for i in range(nvars)]
    return [IdealHandle(nvars, [x[0], x[-1] ** 2]), _non_monomial_modulus(nvars)]


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("kind", ["monomial", "non_monomial"])
def test_an_operator_of_order_e_carries_k_to_the_e_plus_1_into_k(nvars, kind):
    # delta(f) in K for f a product of e+1 elements of K, each a random
    # combination of K's generators; and not so at K^e: some d^alpha with
    # |alpha| = e carries a product of e generators outside K
    rng = random.Random(1700 + 10 * nvars + (kind == "monomial"))
    K = _leibniz_ideals(nvars)[kind == "non_monomial"]
    for e in range(4):
        for _ in range(6):
            op = _random_operator_of_order(rng, nvars, e)
            assert op.order == e
            elements = [sum((random_polynomial(rng, nvars, 1) * g for g in K.gens), Poly.zero(nvars)) for _ in range(e + 1)]
            f = functools.reduce(Poly.__mul__, elements)
            assert K.contains(op.apply(f))
        products = [functools.reduce(Poly.__mul__, combo, Poly.one(nvars)) for combo in itertools.combinations_with_replacement(K.gens, e)]
        tops = [partial_op(nvars, a) for a in monomials_up_to(nvars, e) if sum(a) == e]
        assert any(not K.contains(d.apply(f)) for d in tops for f in products), e


def _mixed_modulus(nvars: int) -> IdealHandle:
    """A modulus whose reduced basis has one single-term element, x_last^2,
    beside a binomial."""
    x = [Poly.variable(nvars, i) for i in range(nvars)]
    return IdealHandle(nvars, [x[0] ** 2 - x[-1], x[-1] ** 2])


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("kind", ["monomial", "mixed"])
def test_on_monomials_applies_no_operator_to_a_dead_monomial(nvars, kind, monkeypatch):
    # operators of order <= 2, so the dead divisors are the triple products
    # of the modulus's single-term basis elements, all in M^3; for a
    # monomial modulus they are exactly M^3's single-term basis elements.
    # A dead monomial keeps no values, with no operator applied, and a
    # fresh reduction of each of its values is zero; every live value
    # equals a fresh reduction
    rng = random.Random(1750 + nvars + 10 * (kind == "mixed"))
    modulus = _leibniz_ideals(nvars)[0] if kind == "monomial" else _mixed_modulus(nvars)
    ops = OperatorSet([_random_operator_of_order(rng, nvars, e) for e in (0, 1, 2)], modulus)
    cube = ideal_power(modulus, 3)
    assert ops.dead_divisors and all(cube.contains(Poly.monomial(nvars, d)) for d in ops.dead_divisors)
    if kind == "monomial":
        assert sorted(ops.dead_divisors) == sorted(next(iter(g.terms)) for g in cube.gb)
    else:
        assert ops.dead_divisors == ((0,) * (nvars - 1) + (6,),)
    applied = []
    apply = DiffOp.apply
    monkeypatch.setattr(DiffOp, "apply", lambda op, f: applied.append(f) or apply(op, f))
    monos, live = ops.columns(6)
    monkeypatch.undo()
    dead = [m for m in monos if ops.is_dead(m)]
    assert dead and live == [j for j, m in enumerate(monos) if m not in dead]
    assert not any(ops.is_dead(m) for f in applied for m in f.terms)
    assert len(applied) == len(ops) * (len(monos) - len(dead))
    for m in monos:
        x_m = Poly.monomial(nvars, m)
        want = [modulus.normal_form(op.apply(x_m)) for op in ops]
        if m in dead:
            assert ops.values_at(m) is None and not any(want)
        else:
            assert ops.values_at(m) == want
    # the kernel under a condition ideal containing M matches the oracle's
    cond = IdealHandle(nvars, modulus.gens + (random_polynomial(rng, nvars, 2, 3),))
    S = operator_kernel(ops, cond, 6)
    assert S.live is live and S.dead_divisors is ops.dead_divisors
    assert S.basis == colon_oracle(ops, cond, 6, cond)[0]


@pytest.mark.parametrize("nvars", [2, 3])
def test_a_modulus_without_a_single_term_element_settles_nothing(nvars, monkeypatch):
    # neither M's basis nor M^(e+1)'s has a single-term element: no
    # Groebner basis beyond M's own is built, every operator is applied to
    # every monomial, and `first_outside` reads the form of every column,
    # even for an ideal that contains M^(e+1)
    rng = random.Random(1760 + nvars)
    modulus = _non_monomial_modulus(nvars)
    ops = OperatorSet([_random_operator_of_order(rng, nvars, e) for e in (0, 1, 2)], modulus)
    cube = ideal_power(modulus, 3)
    assert not any(len(g.terms) == 1 for g in modulus.gb + cube.gb)
    runs = []
    buchberger = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda *a: runs.append(a) or buchberger(*a))
    applied = []
    apply = DiffOp.apply
    monkeypatch.setattr(DiffOp, "apply", lambda op, f: applied.append(f) or apply(op, f))
    S = operator_kernel(ops, modulus, 3)
    monos = monomials_up_to(nvars, 3)
    assert runs == [] and ops.dead_divisors == ()
    assert applied == [Poly.monomial(nvars, m) for m in monos for _ in ops]
    assert (S.monos, S.live) == ops.columns(3) and S.live is ops.columns(3)[1]
    assert list(S.live) == list(range(len(monos)))
    target = IdealHandle(nvars, modulus.gens + cube.gens)
    asked = []
    form = IdealHandle.monomial_form
    monkeypatch.setattr(IdealHandle, "monomial_form", lambda I, m: (I is target and asked.append(m)) or form(I, m))
    S.first_outside(target)
    assert asked[: len(monos)] == monos


def test_first_outside_reads_the_live_columns_only_when_the_ideal_holds_the_dead_divisors(ring_x2, monkeypatch):
    # `1; dx` modulo (x): the dead monomials are the multiples of x^2, which
    # lie in every colon; an ideal holding the colon and x^2 has no form of
    # them read (but x^2's own, to decide that it holds x^2), and (y),
    # which misses x^2, reads all of them and is refuted by x^2
    ops = OperatorSet([identity_op(2), dx()], ring_x2.rad)
    cond = ideal("x", "y^2")
    S = operator_kernel(ops, cond, 4)
    monos = monomials_up_to(2, 4)
    live = [monos[j] for j in S.live]
    assert set(monos) - set(live) == {m for m in monos if m[0] >= 2}
    asked = []
    form = IdealHandle.monomial_form
    monkeypatch.setattr(IdealHandle, "monomial_form", lambda I, m: asked.append(m) or form(I, m))
    for holding in (ideal("x^2", "y^2"), ideal("x^2", "x*y", "y^2")):
        asked.clear()
        assert S.first_outside(holding) is None
        assert set(asked) - {(2, 0)} <= set(live)
        assert colon_oracle(ops, cond, 4, holding)[1] is None
    asked.clear()
    assert S.first_outside(ideal("y")) == P("x^2")
    assert set(monos) <= set(asked)
    assert colon_oracle(ops, cond, 4, ideal("y"))[1] == P("x^2")


def test_a_condition_ideal_that_misses_the_modulus_is_refused(ring_x2):
    # `1; dx` modulo rad = (x) under (y): the values, reduced by (x), would
    # put x^2 in the colon (the basis y, y^2, x*y, x^2), yet 1 * x^2 = x^2
    # lies outside (y).  A refused ideal keeps no kernel; one that holds
    # the modulus is read as before
    ops = OperatorSet([identity_op(2), dx()], ring_x2.rad)
    cond = ideal("y")
    assert not cond.contains(identity_op(2).apply(P("x^2")))
    for _ in range(2):
        with pytest.raises(ValueError, match="^the condition ideal does not contain the operator set's modulus$"):
            operator_kernel(ops, cond, 2)
    holding = ideal("x", "y")
    assert operator_kernel(ops, holding, 2).basis == colon_oracle(ops, holding, 2, holding)[0]


# --- containment of a truncated kernel ------------------------------------------


def test_first_outside_reads_the_rref_basis(ring_x2):
    # the kernel of the projection modulo (x, y^2) is spanned by x, y^2, x*y
    # and x^2, which its RREF basis lists in column order; the first one
    # outside (y) is x, and outside (x) it is y^2
    S = operator_kernel(OperatorSet([identity_op(2)], ring_x2.rad), ideal("x", "y^2"), 2)
    assert S.basis == [P("x"), P("y^2"), P("x*y"), P("x^2")]
    assert S.first_outside(ideal("y")) == P("x")
    assert S.first_outside(ideal("x")) == P("y^2")
    assert S.first_outside(ideal("x", "y")) is None


def test_first_outside_with_a_basis_inside_is_an_arithmetic_bug(ring_x2, monkeypatch):
    S = operator_kernel(OperatorSet([identity_op(2)], ring_x2.rad), ring_x2.rad, 3)
    assert S.first_outside(ring_x2.rad) is None
    monkeypatch.setattr(linalg, "in_row_space", lambda reduced, pivots, v: False)
    with pytest.raises(ArithmeticBugError):
        S.first_outside(ring_x2.rad)


@pytest.mark.parametrize("seed", range(6))
def test_first_outside_reads_the_basis_only_up_to_the_witness(seed, monkeypatch):
    # on seeded kernels and ideals, the witness is the first basis element
    # outside the ideal, and no basis vector after it is built; a contained
    # kernel builds none
    rng = random.Random(990 + seed)
    nvars = 2 + seed % 2
    ops = [identity_op(nvars), partial_op(nvars, mono_unit(nvars, seed % nvars))]
    ops = OperatorSet(ops[: 1 + seed % 2], IdealHandle(nvars, []))
    cond = IdealHandle(nvars, [random_polynomial(rng, nvars, 2, 3) * Poly.variable(nvars, i) for i in range(2)])
    S = operator_kernel(ops, cond, 4)
    # the ideal of the first k basis elements holds them, so its witness
    # comes later; the zero ideal's is the first element
    targets = [cond, IdealHandle(nvars, [])] + [IdealHandle(nvars, S.basis[:k]) for k in (1, 2, 3, 5, 8)]
    targets += [IdealHandle(nvars, [random_polynomial(rng, nvars, 2, 2) for _ in range(2)]) for _ in range(2)]
    wants = [next((f for f in S.basis if target.normal_form(f)), None) for target in targets]
    assert wants[0] is None and wants[1] is not None
    read = []
    reader = linalg.kernel_vectors

    def counting(reduced, pivots, ncols):
        for v in reader(reduced, pivots, ncols):
            read.append(v)
            yield v

    monkeypatch.setattr(linalg, "kernel_vectors", counting)
    for target, want in zip(targets, wants):
        read.clear()
        got = S.first_outside(target)
        if want is None:
            assert got is None and read == []
        else:
            assert typed_terms(got) == typed_terms(want)
            assert len(read) == S.basis.index(want) + 1


_FIRST_OUTSIDE_FAULT_UNDER_O = """
from noethops import linalg
from noethops.diffops import ArithmeticBugError, operator_kernel, parse_operator_set
from noethops.groebner import IdealHandle
from noethops.poly import parse_polynomial

x = IdealHandle(2, [parse_polynomial("x", ["x", "y"])])
S = operator_kernel(parse_operator_set("1", ["x", "y"], x), x, 3)
print("contained:", S.first_outside(x))
linalg.in_row_space = lambda reduced, pivots, v: False
try:
    S.first_outside(x)
except ArithmeticBugError as exc:
    print("caught:", exc)
"""


def test_the_first_outside_fault_check_survives_python_O():
    assert run_under_python_O(_FIRST_OUTSIDE_FAULT_UNDER_O) == ["contained", "caught"]


def test_arithmetic_bug_error_is_one_class_under_every_name():
    assert noetherian.ArithmeticBugError is diffops.ArithmeticBugError
    assert noethops.ArithmeticBugError is diffops.ArithmeticBugError
    assert uniformity.ArithmeticBugError is diffops.ArithmeticBugError


def test_colons_and_verification_decide_containment_by_first_outside(ring_x2, ops_pi_dx, monkeypatch):
    # both callers hand their truncated kernel and ideal to the one method
    calls = []
    first_outside = TruncatedSubspace.first_outside

    def recording(S, ideal_):
        calls.append((S.degree_bound, ideal_))
        return first_outside(S, ideal_)

    monkeypatch.setattr(TruncatedSubspace, "first_outside", recording)
    a = ideal("x^2")
    assert noetherian.verify_noetherian_ops(a, ops_pi_dx, 5).status == "verified_up_to_degree"
    assert calls == [(5, a)]
    calls.clear()
    J = ideal("x - y")
    assert uniformity.subspace_in_ideal(subspace_from_polynomials(2, 2, [P("y")]), J, ring_x2) == P("y")
    assert calls == [(2, ring_x2.plus_N(J))]


def _applied_pairs(ops: OperatorSet, applied: list) -> list:
    """(operator index, monomial) of each recorded application, each
    argument checked to be a monomial with the int coefficient 1."""
    pairs = []
    for op, f in applied:
        ((m, c),) = f.terms.items()
        assert c == 1 and type(c) is int
        pairs.append((next(i for i, o in enumerate(ops) if o is op), m))
    return pairs


@pytest.mark.parametrize("nvars", range(6))
def test_first_not_killed_shifts_match_scaling_by_one(nvars, monkeypatch):
    # h = x^beta * g by shifted exponents, and g itself at beta = 0, against
    # g scaled by the coefficient 1 at x^beta: the same h in the same order,
    # with the same terms and coefficient types (an integral coefficient is
    # an int), and the same witness.  Operators are applied to monomials
    # only, each operator to each monomial at most once per set
    rng = random.Random(970 + nvars)
    ops = [identity_op(nvars)] + [partial_op(nvars, mono_unit(nvars, i)) for i in range(nvars)]
    ops += [partial_op(nvars, m) for m in monomials_up_to(nvars, 2) if sum(m) == 2][:3]
    gens = [random_polynomial(rng, nvars, 2, 3) for _ in range(3)]
    targets = [IdealHandle(nvars, [random_polynomial(rng, nvars, 2, 2) for _ in range(2)]) for _ in range(3)]
    wants = [first_not_killed_by_scaling(OperatorSet(ops, IdealHandle(nvars, [])), gens, t) for t in targets + [None]]
    assert wants[-1] is not None  # the zero modulus kills no nonzero value
    applied = []
    apply = DiffOp.apply
    monkeypatch.setattr(DiffOp, "apply", lambda op, f: applied.append((op, f)) or apply(op, f))
    shared = OperatorSet(ops, IdealHandle(nvars, []))
    for target, want in zip(targets + [None], wants):
        got = first_not_killed(shared, gens, target)
        assert got is want is None or typed_terms(got) == typed_terms(want)
    pairs = _applied_pairs(ops, applied)
    assert len(pairs) == len(set(pairs))

    # every h killed: each h is tried, and the operators meet exactly the
    # monomials x^(t+beta) of the shifted generators, each pair once
    applied.clear()
    monkeypatch.setattr(DiffOp, "apply", lambda op, f: applied.append((op, f)) or Poly.zero(nvars))
    assert first_not_killed(OperatorSet(ops, IdealHandle(nvars, [])), gens) is None
    pairs = _applied_pairs(ops, applied)
    touched = {mono_mul(t, beta) for op in ops for g in gens for beta in monomials_up_to(nvars, op.order) for t in g.terms}
    assert len(pairs) == len(set(pairs)) and set(pairs) == {(i, m) for i in range(len(ops)) for m in touched}
    assert first_not_killed_by_scaling(OperatorSet(ops, IdealHandle(nvars, [])), gens) is None


@pytest.mark.parametrize("nvars", [2, 3])
def test_first_not_killed_with_a_monomial_modulus_matches_scaling_by_one(nvars, monkeypatch):
    # the modulus (x0, x_last^2) settles the terms of each h in M^(e+1):
    # the same witness as the oracle, which applies every h whole, on
    # targets strictly larger than the modulus, and no dead term is ever
    # applied; each operator meets each monomial at most once per set,
    # across all the targets and generator lists it is asked about
    rng = random.Random(1780 + nvars)
    modulus = _leibniz_ideals(nvars)[0]
    ops = OperatorSet([identity_op(nvars), partial_op(nvars, mono_unit(nvars, 0)), partial_op(nvars, mono_unit(nvars, nvars - 1))], modulus)
    assert ops.dead_divisors
    applied = []
    apply = DiffOp.apply
    record = lambda op, f: applied.append((op, f)) or apply(op, f)  # noqa: E731
    verdicts = set()
    for k in range(6):
        extra = Poly.zero(nvars)
        while not extra:
            extra = modulus.normal_form(random_polynomial(rng, nvars, 2, 2))
        target = IdealHandle(nvars, modulus.gens + (extra,))
        assert is_subideal(modulus, target) and not is_subideal(target, modulus)
        gens = [random_polynomial(rng, nvars, 3, 4) for _ in range(3)]
        if k % 2:  # in the target's square, so killed into it
            gens = [g * a * b for g in gens for a, b in itertools.combinations(target.gens, 2)]
        for t in (target, None):
            monkeypatch.setattr(DiffOp, "apply", record)
            got = first_not_killed(ops, gens, t)
            monkeypatch.undo()
            want = first_not_killed_by_scaling(ops, gens, t)
            assert got is want is None or typed_terms(got) == typed_terms(want)
            verdicts.add(got is None)
    assert verdicts == {True, False}
    pairs = _applied_pairs(ops, applied)
    assert not any(ops.is_dead(m) for _, m in pairs)
    assert pairs and len(pairs) == len(set(pairs))


@pytest.mark.parametrize("seed", range(4))
def test_first_not_killed_on_bracket_sets_matches_scaling_by_one(seed, monkeypatch):
    # the sets `_finish_separating` builds: the brackets [delta, x_j] of a
    # random operator, read modulo the radical (x0^2) or (x0), against a
    # prime holding it; a bracket of an order-0 term is the zero operator
    rng = random.Random(1790 + seed)
    nvars = 2 + seed % 2
    x = [Poly.variable(nvars, i) for i in range(nvars)]
    rad = IdealHandle(nvars, [x[0] ** (1 + seed // 2)])
    p = IdealHandle(nvars, [x[0], x[-1] - Poly.constant(nvars, seed + 1)])
    applied = []
    apply = DiffOp.apply
    verdicts = set()
    for _ in range(5):
        delta = _random_operator_of_order(rng, nvars, rng.randint(1, 3))
        brackets = OperatorSet([delta.bracket(x[j]) for j in range(nvars)], rad)
        b = [random_polynomial(rng, nvars, 2, 3) * x[0] for _ in range(2)] + [random_polynomial(rng, nvars, 2, 2)]
        for gens in (b, b[:2], [g * x[0] ** 3 for g in b]):
            applied.clear()
            monkeypatch.setattr(DiffOp, "apply", lambda op, f: applied.append((op, f)) or apply(op, f))
            got = first_not_killed(brackets, gens, target=p)
            monkeypatch.undo()
            pairs = _applied_pairs(brackets, applied)
            assert len(pairs) == len(set(pairs)) and not any(brackets.is_dead(m) for _, m in pairs)
            want = first_not_killed_by_scaling(brackets, gens, target=p)
            assert got is want is None or typed_terms(got) == typed_terms(want)
            verdicts.add(got is None)
    assert verdicts == {True, False}
