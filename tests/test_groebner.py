import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from noethops import groebner
from noethops.configs import load_experiment_config
from noethops.groebner import (
    IdealHandle,
    NotZeroDimensionalError,
    RingSpec,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_intersect,
    ideal_power,
    is_subideal,
    krull_dimension,
    normal_form,
    saturate,
    standard_monomials,
)
from noethops.poly import Block, GrevLex, Poly, RationalFunction, monomials_up_to, rational

from conftest import P, ideal, random_polynomial, typed_terms
from oracles import ideal_power_by_reduce, monomial_form_by_chain_walk, scan_buchberger

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


# --- buchberger ----------------------------------------------------------


def test_gb_single_generator():
    assert buchberger([P("x")]) == [P("x")]


def test_gb_circle_line():
    gb = buchberger([P("x^2 + y^2 - 1"), P("x - y")])
    assert gb == [P("x - y"), P("y^2 - 1/2")]


def test_gb_square_of_maximal_already_reduced():
    gb = buchberger([P("x^2"), P("x*y"), P("y^2")])
    assert gb == [P("y^2"), P("x*y"), P("x^2")]


def test_gb_zero_ideal():
    assert buchberger([Poly.zero(2)]) == []


def test_zero_ideal_handle_answers_without_a_buchberger_run(monkeypatch):
    monkeypatch.setattr(groebner, "buchberger", lambda *args: pytest.fail("Buchberger ran on the zero ideal"))
    zero = IdealHandle(2, [Poly.zero(2)])
    assert zero.is_zero() and zero.gb == []
    assert zero.basis(Block((0,))) == []
    assert not zero.contains_one()
    assert zero.normal_form(P("x*y + 1")) == P("x*y + 1")
    assert zero.monomial_form((2, 1)) == P("x^2*y")


def test_gb_byte_stable_across_runs():
    gens = [P("x^2 + y^2 - 1"), P("x*y - 2"), P("x - y^3")]
    first = [g.format(XY) for g in IdealHandle(2, gens).gb]
    second = [g.format(XY) for g in IdealHandle(2, list(gens)).gb]
    assert first == second


def _naive_groebner(gens, order):
    """Criterion-free Buchberger; the reduced basis is unique, so this is an
    independent oracle for the optimized implementation."""
    from noethops.groebner import _interreduce, _monic, _reduce_basis, _s_polynomial

    basis = _interreduce(list(gens), order)
    if not basis:
        return []
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    k = 0
    while k < len(pairs):
        i, j = pairs[k]
        k += 1
        r = normal_form(_s_polynomial(basis[i], basis[j], order), basis, order)
        if r:
            basis.append(_monic(r, order))
            pairs.extend((i2, len(basis) - 1) for i2 in range(len(basis) - 1))
    return _reduce_basis(basis, order)


def test_gb_agrees_with_naive_buchberger():
    rng = random.Random(400)
    order = GrevLex()
    for _ in range(12):
        monos = monomials_up_to(2, 3)
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {
                monos[rng.randrange(len(monos))]: Fraction(rng.randint(-3, 3)) for _ in range(3)
            }
            gens.append(Poly(2, terms))
        assert buchberger(gens, order) == _naive_groebner(gens, order)


def _seeded_ideals(seed, count):
    """Random generator lists in 2 and 3 variables, degree at most 3."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        nvars = 2 + k % 2
        monos = monomials_up_to(nvars, 3)
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {monos[rng.randrange(len(monos))]: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)}
            gens.append(Poly(nvars, terms))
        out.append(gens)
    return out


ORDERS = [GrevLex(), Block(eliminated=(0,))]


def test_gb_agrees_with_scan_oracle_under_every_order():
    for gens in _seeded_ideals(71, 16):
        for order in ORDERS:
            assert buchberger(gens, order) == scan_buchberger(gens, order)


def test_heap_queue_reduces_the_scan_pairs_in_scan_order(monkeypatch):
    # the pair key is a total order on fixed leads, so the heap must pop the
    # very pairs the scan picks, in the same order
    s_polynomial = groebner._s_polynomial
    reduced = []

    def recording(f, g, order):
        reduced.append((f, g))
        return s_polynomial(f, g, order)

    monkeypatch.setattr(groebner, "_s_polynomial", recording)
    total = 0
    for gens in _seeded_ideals(72, 16):
        for order in ORDERS:
            reduced.clear()
            buchberger(gens, order)
            heap_pairs = list(reduced)
            reduced.clear()
            scan_buchberger(gens, order)
            assert heap_pairs == reduced
            total += len(heap_pairs)
    assert total > 100


def test_buchberger_reads_leading_terms_a_bounded_number_of_times(monkeypatch):
    # Buchberger keeps its basis' leading terms and hands them to every
    # reduction, so Poly.leading runs a few times per generator and per
    # reduced pair (interreduction takes two rounds on these inputs), not
    # once per basis element on every reduction
    leading, s_polynomial = Poly.leading, groebner._s_polynomial
    counts = Counter()

    def counting_leading(self, order):
        counts["leading"] += 1
        return leading(self, order)

    def counting_pairs(f, g, order):
        counts["pairs"] += 1
        return s_polynomial(f, g, order)

    monkeypatch.setattr(Poly, "leading", counting_leading)
    monkeypatch.setattr(groebner, "_s_polynomial", counting_pairs)
    G = ideal("y^2 - x*z", "z^2 - y", "x*y - z", names=XYZ)
    inputs = _seeded_ideals(73, 16) + [list(ideal_power(G, n).gens) for n in (2, 3)]
    pairs = 0
    for gens in inputs:
        for order in ORDERS:
            counts.clear()
            buchberger(gens, order)
            assert counts["leading"] <= 4 * (len(gens) + counts["pairs"]), (len(gens), counts)
            pairs += counts["pairs"]
    assert pairs > 100


# --- normal form ----------------------------------------------------------


def test_nf_examples():
    assert ideal("x^2").normal_form(P("x^2")) == Poly.zero(2)
    assert ideal("x^2 - y").normal_form(P("x^2*y")) == P("y^2")
    assert ideal("x").normal_form(P("y")) == P("y")


def _random_poly(rng, nvars, deg):
    monos = monomials_up_to(nvars, deg)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[monos[rng.randrange(len(monos))]] = Fraction(rng.randint(-4, 4))
    return Poly(nvars, terms)


def _random_pool(rng, count=12):
    pool = []
    names = XYZ
    while len(pool) < count:
        gens = [_random_poly(rng, 3, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
        handle = IdealHandle(3, gens)
        if handle.gens:
            pool.append(handle)
    return pool


def test_membership_linearity_idempotence_randomized():
    rng = random.Random(2024)
    pool = _random_pool(rng)
    for _ in range(120):
        I = pool[rng.randrange(len(pool))]
        f = Poly.zero(3)
        for g in I.gens:
            f = f + _random_poly(rng, 3, 3) * g
        assert not I.normal_form(f)
        a, b = _random_poly(rng, 3, 6), _random_poly(rng, 3, 6)
        assert I.normal_form(a + b) == I.normal_form(a) + I.normal_form(b)
        assert I.normal_form(I.normal_form(a)) == I.normal_form(a)


# --- memoised normal forms of monomials --------------------------------------


def _q_coefficient(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _qu_coefficient(rng):
    """A nonzero element of Q(u) from a small pool: random linear
    numerators and denominators make bases over Q(u) too large to test."""
    u, one = Poly.variable(1, 0), Poly.one(1)
    pool = [(one * 2, one), (u, one), (u + one, one), (one, u), (u - one, u + one * 2)]
    num, den = pool[rng.randrange(len(pool))]
    return RationalFunction(num * _q_coefficient(rng), den)


def _coefficient_poly(rng, nvars, degree, coefficient, terms=3):
    monos = monomials_up_to(nvars, degree)
    return Poly(nvars, {monos[rng.randrange(len(monos))]: coefficient(rng) for _ in range(terms)})


def _memo_cases(seed, count, coefficient, max_vars, max_degree):
    """Seeded (generators, query polynomials) in 2..max_vars variables; the
    queries run from degree 0 to max_degree and include the zero polynomial."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        nvars = 2 + k % (max_vars - 1)
        degree = 3 if nvars == 2 else 2
        gens = [_coefficient_poly(rng, nvars, degree, coefficient) for _ in range(rng.randint(2, 3))]
        queries = [Poly.zero(nvars)]
        queries += [_coefficient_poly(rng, nvars, d, coefficient, terms=4) for d in range(max_degree + 1)]
        cases.append((gens, queries))
    return cases


def _check_memo_against_reduction(gens, queries):
    nvars = queries[0].nvars
    gb = IdealHandle(nvars, gens).gb
    expected = [normal_form(f, gb, GrevLex()) for f in queries]
    for ordered in (queries, queries[::-1]):  # low degree first, then high first
        handle = IdealHandle(nvars, gens)
        got = {id(f): handle.normal_form(f) for f in ordered}
        assert [got[id(f)] for f in queries] == expected


def test_memoised_normal_forms_match_a_full_reduction_over_q():
    for gens, queries in _memo_cases(91, 24, _q_coefficient, max_vars=4, max_degree=6):
        _check_memo_against_reduction(gens, queries)


def test_memoised_normal_forms_match_a_full_reduction_over_q_of_u():
    for gens, queries in _memo_cases(92, 12, _qu_coefficient, max_vars=2, max_degree=6):
        _check_memo_against_reduction(gens, queries)


@pytest.mark.parametrize("coefficient", [_q_coefficient, _qu_coefficient], ids=["q", "q_of_u"])
def test_monic_is_the_division_by_the_leading_coefficient(coefficient):
    # a polynomial whose lead is already 1 comes back as it is
    rng = random.Random(94)
    for order in (GrevLex(), Block((0,))):
        for _ in range(20):
            f = _coefficient_poly(rng, 2, 3, coefficient, terms=4)
            if f:
                by_division = f * (1 / f.leading(order)[1])
                assert groebner._monic(f, order) == by_division
                assert groebner._monic(by_division, order) is by_division


def test_memoised_normal_forms_of_the_zero_and_unit_ideals():
    rng = random.Random(93)
    queries = [Poly.zero(3)] + [_coefficient_poly(rng, 3, d, _q_coefficient) for d in range(5)]
    for gens in ([], [Poly.zero(3)], [P("x - 1", XYZ), P("x", XYZ)], [Poly.constant(3, Fraction(2))]):
        _check_memo_against_reduction(gens, queries)
    unit = IdealHandle(3, [P("x - 1", XYZ), P("x", XYZ)])
    assert all(not unit.normal_form(f) for f in queries)
    zero = IdealHandle(3, [])
    assert all(zero.normal_form(f) == f for f in queries)


def test_memoised_normal_form_of_a_high_power_does_not_recurse():
    I = ideal("x - y^2")  # leading term y^2 under grevlex
    assert I.normal_form(P("x^2000")) == P("x^2000")
    assert I.normal_form(P("y^2001")) == P("x^1000*y")
    assert I.normal_form(P("x^1000*y^2000")) == P("x^2000")


def test_memoised_normal_forms_reduce_each_monomial_at_most_once(monkeypatch):
    for gens in ([P("x^2 + y*z - 1", XYZ), P("x*y - z^2", XYZ)], [P("x^3 - y", XYZ), P("y^2 - x*z", XYZ)]):
        handle = IdealHandle(3, gens)
        handle.gb  # Buchberger's own reductions are not counted
        calls = []
        reduce = groebner._reduce

        def counting(*args):
            calls.append(args[0])
            return reduce(*args)

        monkeypatch.setattr(groebner, "_reduce", counting)
        monos = monomials_up_to(3, 9)
        forms = [handle.normal_form(Poly.monomial(3, m)) for m in reversed(monos)]
        assert 0 < len(calls) <= len(monos)
        again = [handle.normal_form(Poly.monomial(3, m)) for m in monos]
        assert again == forms[::-1] and len(calls) <= len(monos)
        monkeypatch.undo()
        assert forms == [normal_form(Poly.monomial(3, m), handle.gb, GrevLex()) for m in reversed(monos)]


@pytest.mark.parametrize("nvars", range(1, 5))
def test_monomial_forms_by_divisibility_match_the_chain_walk(nvars, monkeypatch):
    # seeded monomial ideals with scaled generators, and the zero and unit
    # ideals: every form up to degree 8, with its coefficient types, and no
    # reduction at all once the basis is known
    rng = random.Random(960 + nvars)
    gen_monos, monos = monomials_up_to(nvars, 3)[1:], monomials_up_to(nvars, 8)
    cases = [[], [Poly.constant(nvars, _q_coefficient(rng))]]
    for _ in range(6):
        picks = [gen_monos[rng.randrange(len(gen_monos))] for _ in range(rng.randint(1, 4))]
        cases.append([Poly.monomial(nvars, m, _q_coefficient(rng)) for m in picks])
    calls = []
    reduce = groebner._reduce
    monkeypatch.setattr(groebner, "_reduce", lambda *args: calls.append(args) or reduce(*args))
    for gens in cases:
        handle = IdealHandle(nvars, gens)
        handle.gb  # Buchberger's own reductions are not counted
        calls.clear()
        got = [handle.monomial_form(m) for m in reversed(monos)]
        assert calls == []
        want_forms: dict = {}
        want = [monomial_form_by_chain_walk(handle, m, want_forms) for m in reversed(monos)]
        assert list(map(typed_terms, got)) == list(map(typed_terms, want))
        assert len({id(f) for f in got if not f}) <= 1  # one zero form per handle


def test_a_handle_with_a_non_monomial_basis_takes_the_chain_walk(monkeypatch):
    # a monomial generator list whose basis is not monomial, and a binomial
    # one: forms come from reductions, equal to the walk's
    for gens in ([P("x^2 - x*y", XYZ), P("x*z", XYZ)], [P("x^2 + y*z", XYZ), P("y^3", XYZ)]):
        handle = IdealHandle(3, gens)
        assert any(len(g.terms) > 1 for g in handle.gb)
        calls = []
        reduce = groebner._reduce
        monkeypatch.setattr(groebner, "_reduce", lambda *args: calls.append(args) or reduce(*args))
        got = [handle.monomial_form(m) for m in monomials_up_to(3, 5)]
        assert calls
        monkeypatch.undo()
        forms: dict = {}
        want = [monomial_form_by_chain_walk(handle, m, forms) for m in monomials_up_to(3, 5)]
        assert list(map(typed_terms, got)) == list(map(typed_terms, want))


def _monomial_generator_lists(rng, nvars, coefficient):
    """Seeded single-term generator lists: repeated monomials, each scaled
    by a random coefficient, zero generators among them, and lists holding
    a constant or nothing but zeros."""
    gen_monos = monomials_up_to(nvars, 4)[1:]
    cases = [[Poly.zero(nvars)], [Poly.monomial(nvars, gen_monos[0], coefficient(rng)), Poly.constant(nvars, coefficient(rng))]]
    for _ in range(8):
        picks = [gen_monos[rng.randrange(len(gen_monos))] for _ in range(rng.randint(1, 5))]
        picks += picks[: rng.randint(0, 2)]  # repeats, under a new coefficient
        gens = [Poly.monomial(nvars, m, coefficient(rng)) for m in picks]
        gens.insert(rng.randrange(len(gens) + 1), Poly.zero(nvars))
        cases.append(gens)
    return cases


@pytest.mark.parametrize("coefficient", [_q_coefficient, _qu_coefficient], ids=["q", "q_of_u"])
@pytest.mark.parametrize("nvars", [2, 3])
def test_monomial_bases_match_the_scan_buchberger(coefficient, nvars, monkeypatch):
    # the monomial path against the full algorithm it skips, under grevlex
    # and a block order: the same bases, term for term and type for type,
    # with no reduction, interreduction or pair on the monomial path
    rng = random.Random(1800 + nvars + 10 * (coefficient is _qu_coefficient))
    cases = _monomial_generator_lists(rng, nvars, coefficient)
    orders = [GrevLex(), Block((0,))]
    wants = [[scan_buchberger(gens, order) for order in orders] for gens in cases]
    for name in ("_reduce", "_interreduce", "_reduce_basis", "_s_polynomial"):
        monkeypatch.setattr(groebner, name, lambda *args, name=name: pytest.fail(f"{name} ran on a monomial ideal"))
    for gens, want in zip(cases, wants):
        got = [buchberger(gens, order) for order in orders]
        assert [list(map(typed_terms, gb)) for gb in got] == [list(map(typed_terms, gb)) for gb in want]
    assert wants[0] == [[], []] and [len(gb) for gb in wants[1]] == [1, 1]  # zero, and a constant


@pytest.mark.parametrize("coefficient", [_q_coefficient, _qu_coefficient], ids=["q", "q_of_u"])
def test_normal_forms_modulo_a_monomial_basis_match_a_full_reduction(coefficient, monkeypatch):
    # a monomial basis keeps the terms of f outside its ideal, each with its
    # own coefficient, and reduces nothing
    rng = random.Random(1810 + (coefficient is _qu_coefficient))
    for nvars in (2, 3):
        for gens in _monomial_generator_lists(rng, nvars, coefficient):
            handle = IdealHandle(nvars, gens)
            queries = [Poly.zero(nvars)] + [_coefficient_poly(rng, nvars, d, coefficient, terms=5) for d in range(6)]
            queries = [Poly(nvars, {m: rational(c) if type(c) is Fraction else c for m, c in f.terms.items()}) for f in queries]
            want = [normal_form(f, handle.gb, GrevLex()) for f in queries]
            monkeypatch.setattr(groebner, "_reduce", lambda *args: pytest.fail("a monomial basis reduced"))
            got = [handle.normal_form(f) for f in queries]
            monkeypatch.undo()
            # a reduction lists the terms by descending order; the form keeps f's
            assert [sorted(typed_terms(f)) for f in got] == [sorted(typed_terms(f)) for f in want]


def test_bases_under_other_orders_are_kept_per_handle(monkeypatch):
    calls = []
    run = groebner.buchberger

    def counting(gens, order=GrevLex()):
        calls.append(order)
        return run(gens, order)

    monkeypatch.setattr(groebner, "buchberger", counting)
    I = IdealHandle(3, [P("x^2 - y*z", XYZ), P("y - z^2", XYZ)])
    block = Block(eliminated=(0, 1))
    assert I.basis(block) is I.basis(Block(eliminated=(0, 1)))
    assert eliminate(I, [0, 1]).gens == eliminate(I, [1, 0]).gens
    assert I.gb is I.gb
    assert calls == [block, GrevLex()]
    assert I.basis(block) == run(I.gens, block)


# --- ideal arithmetic -------------------------------------------------------


def test_power_examples():
    assert ideal_equal(ideal_power(ideal("x", "y"), 2), ideal("x^2", "x*y", "y^2"))
    assert ideal_equal(ideal_power(ideal("y"), 3), ideal("y^3"))
    assert ideal_power(ideal("x - y"), 0).contains_one()


def test_power_products_land_in_power_sums():
    I = ideal("x + y", "x*y")
    for m in (1, 2):
        for n in (1, 2):
            prod_gens = [a * b for a in ideal_power(I, m).gens for b in ideal_power(I, n).gens]
            target = ideal_power(I, m + n)
            assert all(target.contains(g) for g in prod_gens)


@pytest.mark.parametrize("nvars", range(6))
def test_ideal_power_from_prefixes_matches_products_folded_from_scratch(nvars):
    # the same generator tuple: order, repeats dropped, term order, values
    # and coefficient types; a repeated generator and its negative make
    # products repeat, and 0 variables makes every generator a constant
    rng = random.Random(950 + nvars)
    for _ in range(4):
        gens = [random_polynomial(rng, nvars, 2, 3) for _ in range(rng.randint(1, 3))]
        I = IdealHandle(nvars, gens + [gens[0], -gens[0]])
        for n in range(4):
            got, want = ideal_power(I, n).gens, ideal_power_by_reduce(I, n).gens
            assert list(map(typed_terms, got)) == list(map(typed_terms, want)), (nvars, n)


def test_ideal_power_extends_the_product_levels_kept_on_the_handle(monkeypatch):
    # powers asked for in any order build each level of products once per
    # handle, and give the generator tuples of products folded from scratch
    rng = random.Random(955)
    gens = [random_polynomial(rng, 3, 2, 3) for _ in range(3)]
    I = IdealHandle(3, gens + [gens[0]])
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    powers = {n: ideal_power(I, n) for n in (3, 1, 5, 0, 2, 5, 4)}
    # the k-fold products of 4 generators, for k = 2..5
    assert len(products) == 10 + 20 + 35 + 56
    monkeypatch.undo()
    for n, power in powers.items():
        want = ideal_power_by_reduce(IdealHandle(3, I.gens), n).gens
        assert list(map(typed_terms, power.gens)) == list(map(typed_terms, want)), n


def _shipped_rings():
    rings = {}
    for path in sorted((Path(__file__).parents[1] / "configs").glob("*.json")):
        ring = load_experiment_config(str(path)).ring
        rings.setdefault((ring.N.gens, ring.rad.gens), ring)
    return list(rings.values())


def test_power_plus_matches_a_basis_of_all_products():
    # J^n + M built from the basis of J^(n-1) + M against a fresh Buchberger
    # run on the n-fold products of J's generators plus M's
    rng = random.Random(73)
    rings = _shipped_rings()
    assert len(rings) == 3
    monos = monomials_up_to(2, 2)[1:]
    for ring in rings:
        for _ in range(3):
            gens = []
            for _ in range(2):
                terms = {monos[rng.randrange(len(monos))]: Fraction(rng.randint(-3, 3)) for _ in range(2)}
                gens.append(Poly(2, terms))
            J = ring.ideal(gens)
            for M in (ring.N, ring.rad):
                for n in range(1, 5):
                    expected = buchberger(ideal_power(J, n).gens + M.gens)
                    assert ring.power_plus(J, n, M).gb == expected, (J, n, M)


def test_power_plus_keeps_one_handle_and_zeroth_power_is_unit(ring_x2):
    J = ideal("x - y", "y^2")
    assert ring_x2.power_plus(J, 3, ring_x2.N) is ring_x2.power_plus(J, 3, ring_x2.N)
    assert ring_x2.power_plus(J, 1, ring_x2.N) is ring_x2.plus_N(J)
    assert ring_x2.plus_N(ring_x2.power_plus(J, 2, ring_x2.N)) is ring_x2.power_plus(J, 2, ring_x2.N)
    assert ring_x2.power_plus(J, 0, ring_x2.rad).contains_one()
    with pytest.raises(ValueError):
        ring_x2.power_plus(J, -1, ring_x2.rad)


def test_eliminate_examples():
    E = eliminate(IdealHandle(3, [P("t*x - 1", ["t", "x", "y"]), P("y", ["t", "x", "y"])]), [0])
    assert len(E.gens) == 1 and E.gens[0] == P("y", ["t", "x", "y"])
    I = ideal("x - y")
    assert eliminate(I, []) is I
    assert eliminate(ideal("x"), [0]).is_zero()


def test_saturate_examples():
    assert ideal_equal(saturate(ideal("x^2*y"), P("x")), ideal("y"))
    assert ideal_equal(saturate(ideal("x"), P("y")), ideal("x"))
    assert saturate(IdealHandle(2, []), P("y")).is_zero()
    unit_saturated = ideal("x^2*y")
    assert saturate(unit_saturated, Poly.constant(2, 3)) is unit_saturated
    with pytest.raises(ValueError):
        saturate(ideal("x"), Poly.zero(2))


def test_saturate_properties():
    I = ideal("x^2*y", "x*y^2")
    S = saturate(I, P("x"))
    assert is_subideal(I, S)
    assert ideal_equal(saturate(S, P("x")), S)


def test_contains_equal_intersect():
    assert ideal("x^2", "x*y", "y^2").contains(P("x*y"))
    assert ideal_equal(ideal("x", "y"), ideal("y", "x + y"))
    assert ideal_equal(ideal_intersect(ideal("x"), ideal("y")), ideal("x*y"))


def test_intersect_contained_in_both_and_equal_is_equivalence():
    I, J = ideal("x^2", "y"), ideal("x - y")
    K = ideal_intersect(I, J)
    assert is_subideal(K, I) and is_subideal(K, J)
    assert ideal_equal(I, I)
    assert ideal_equal(I, ideal("y", "x^2")) == ideal_equal(ideal("y", "x^2"), I)


# --- standard monomials -----------------------------------------------------


def test_standard_monomials_examples():
    assert standard_monomials(ideal("x^2", "y")) == [(0, 0), (1, 0)]
    assert standard_monomials(ideal("x", "y")) == [(0, 0)]
    assert standard_monomials(ideal("x^2", "x*y", "y^2")) == [(0, 0), (0, 1), (1, 0)]


def test_standard_monomials_rejects_positive_dimension():
    with pytest.raises(NotZeroDimensionalError):
        standard_monomials(ideal("x^2"))


@pytest.mark.parametrize(
    "names, gens, dim",
    [
        ("xy", ["x"], 1),  # the reduced rings of the shipped configs
        ("xyz", ["x"], 2),
        ("xy", ["x*y"], 1),
        ("xy", [], 2),
        ("xy", ["x", "y"], 0),
        ("xy", ["1"], -1),
        ("xy", ["x^2 - y^3"], 1),  # grevlex lead y^3
        ("xyz", ["x*y", "x*z"], 2),  # a plane and a line
        ("abc", ["b^2 - a*c", "b*c - a^3", "c^2 - a^2*b"], 1),  # a monomial curve
    ],
)
def test_krull_dimension_examples(names, gens, dim):
    assert krull_dimension(IdealHandle(len(names), [P(g, list(names)) for g in gens])) == dim


# --- ring presentation -------------------------------------------------------


def test_ringspec_validation():
    rad = ideal("x")
    RingSpec(tuple(XY), ideal("x^2"), rad, (rad,))
    with pytest.raises(ValueError):
        RingSpec(tuple(XY), ideal("y"), rad, (rad,))
    with pytest.raises(ValueError):
        RingSpec(tuple(XY), ideal("x^2*y^2"), ideal("x*y"), (ideal("x"),))


@pytest.mark.parametrize(
    "N, rad, outside",
    [
        ("x^2", "x; y", "y"),
        ("(x - y)^2*y", "x - y", "x - y"),  # rad misses the component (y)
        ("x^2", "1", "1"),
    ],
)
def test_ringspec_rejects_a_radical_generator_that_is_not_nilpotent(N, rad, outside):
    with pytest.raises(ValueError, match=rf"^radical generator not nilpotent modulo the defining ideal: {outside}$"):
        RingSpec(tuple(XY), ideal(N), ideal(*rad.split("; ")))


def test_image_in_reduced(ring_x2):
    I = ring_x2.image_in_reduced(ideal("x - y"))
    assert ideal_equal(I, ideal("y"))
