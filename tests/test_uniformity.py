import dataclasses
import random
from collections import Counter
from pathlib import Path

import pytest

from noethops import groebner, linalg, uniformity
from noethops.closures import power_schedule, shift_search
from noethops.configs import ExperimentConfig, load_experiment_config, run_experiment_config
from noethops.diffops import ArithmeticBugError, DiffOp, OperatorSet, RefutedError
from noethops.groebner import IdealHandle, RingSpec, ideal_equal, ideal_power, is_subideal
from noethops.poly import Poly, monomials_up_to
from noethops.uniformity import (
    check_reverse,
    diff_colon,
    diff_colon_of_ideal,
    run_constant_experiment,
    separating_operator,
    subspace_in_ideal,
    verify_filtration,
)

from conftest import CONFIGS, P, ideal, load_config, random_polynomial, run_under_python_O
from oracles import (
    colon_oracle,
    contains_poly,
    contains_subspace,
    identity_op,
    kernel_polynomials,
    partial_op,
    subspace_from_polynomials,
)

XY = ["x", "y"]


# --- differential colon ------------------------------------------------------


def test_diff_colon_fixture(ring_x2, ops_pi_dx):
    S = diff_colon(ideal("y"), 3, ops_pi_dx, ring_x2, 4)
    expected = subspace_from_polynomials(
        2, 4, [P("y^3"), P("y^4"), P("x*y^3")] + [P("x^2") * Poly.monomial(2, m) for m in monomials_up_to(2, 2)]
    )
    assert S.dim == expected.dim == 9
    assert contains_subspace(S, expected) and contains_subspace(expected, S)


def test_diff_colon_zeroth_power_is_everything(ring_x2, ops_pi_dx):
    S = diff_colon(ideal("y"), 0, ops_pi_dx, ring_x2, 3)
    assert S.dim == len(monomials_up_to(2, 3))


def test_diff_colon_projection_only(ring_x2):
    ops = OperatorSet([identity_op(2)], ring_x2.rad)
    S = diff_colon(ideal("y"), 1, ops, ring_x2, 2)
    expected = subspace_from_polynomials(2, 2, [P(t) for t in ("y", "y^2", "x*y", "x", "x^2")])
    assert S.dim == 5 and contains_subspace(S, expected)


def test_diff_colon_requires_radical_modulus(ring_x2):
    ops = OperatorSet([identity_op(2)], ideal("y"))
    with pytest.raises(ValueError):
        diff_colon(ideal("y"), 1, ops, ring_x2, 2)


def test_find_min_c_requires_radical_modulus(ring_x2):
    # the shared values op(x^m) are reduced by the set's modulus, so a colon
    # read from them is the intended one only when that modulus is rad
    ops = OperatorSet([identity_op(2)], ideal("y"))
    with pytest.raises(ValueError) as colon_error:
        diff_colon(ideal("y"), 1, ops, ring_x2, 2)
    with pytest.raises(ValueError) as search_error:
        shift_search("artin_rees", ideal("x - y"), ops, ring_x2, 1, 1, 2)
    assert type(search_error.value) is type(colon_error.value)
    assert str(search_error.value) == str(colon_error.value)


def test_diff_colon_monotone_in_power(ring_x2, ops_pi_dx):
    previous = None
    for m in (1, 2, 3):
        S = diff_colon(ideal("y"), m, ops_pi_dx, ring_x2, 6)
        if previous is not None:
            assert contains_subspace(previous, S)
        previous = S


def test_diff_colon_absorbs_defining_ideal(ring_x2, ops_pi_dx):
    for m in (1, 2, 3):
        S = diff_colon(ideal("y"), m, ops_pi_dx, ring_x2, 6)
        for g in ring_x2.N.gens:
            for mono in monomials_up_to(2, 6 - g.degree()):
                assert contains_poly(S, Poly.monomial(2, mono) * g)


# --- subspace containment ------------------------------------------------------


def test_subspace_in_ideal_witness(ring_x2):
    S = subspace_from_polynomials(2, 2, [P("y")])
    assert subspace_in_ideal(S, ideal("x - y"), ring_x2) == P("y")


def test_subspace_in_ideal_contained(ring_x2):
    for n in (1, 2, 3):
        S = subspace_from_polynomials(2, n + 1, [P("x") * P("y") ** n])
        assert subspace_in_ideal(S, ideal_power(ideal("x - y"), n), ring_x2) is None


def test_subspace_in_ideal_empty(ring_x2):
    S = subspace_from_polynomials(2, 2, [])
    assert subspace_in_ideal(S, ideal("x - y"), ring_x2) is None


# --- containment on the colon's equations, against the row-reduced basis --------


def _assert_colon_matches_oracle(cond, ops, target, ring, D):
    """The colon of `cond` at D decided on its equations: its verdict and
    witness against `target` (+ N), then its dimension and lazy basis, equal
    the row-reduced basis of the kernel vectors and a full reduction of each
    basis element.  Returns the verdict."""
    S = diff_colon_of_ideal(cond, ops, D)
    witness = subspace_in_ideal(S, target, ring)
    want_basis, want_witness = colon_oracle(ops, cond, D, ring.plus_N(target))
    assert witness == want_witness
    assert S.dim == len(want_basis)
    assert S.basis == want_basis
    return witness is None


def test_shipped_and_workload_configs_are_all_covered():
    assert len(CONFIGS) == 8


@pytest.mark.parametrize("name", CONFIGS)
def test_every_colon_of_a_config_matches_the_row_reduced_oracle(name):
    cfg = load_config(name)
    ring, ops, D = cfg.ring, cfg.operators, cfg.degree
    verdicts = Counter()
    for ideal_name, J in cfg.ideals:
        schedule, _ = power_schedule(cfg.mode, J, ring, cfg.witnesses.get(ideal_name))
        for n in range(1, cfg.n_max + 1):
            target = ring.power_plus(J, n, ring.N)
            for c in range(cfg.c_max + 1):
                verdicts[_assert_colon_matches_oracle(schedule(n, c), ops, target, ring, D)] += 1
    assert verdicts[True]  # every config finds its shift


@pytest.mark.parametrize("name", CONFIGS)
def test_colons_with_settled_columns_match_the_oracle_with_and_without_the_dead_divisors(name):
    # every config's modulus M is monomial, so its dead divisors generate
    # M^(e+1) and settle columns of each colon.  J + N holds M^(e+1): only
    # live columns are read.  An ideal that misses it, (other variables) or
    # 0, reads every column and finds the oracle's witness; modulo (x) the
    # witness outside (other variables) is x^(e+1), a dead monomial.
    # Modulo (x*y), (y) holds M^2 = (x^2*y^2), and only 0 misses it.
    cfg = load_config(name)
    ring, ops, D = cfg.ring, cfg.operators, cfg.degree
    nvars = ring.nvars
    power = IdealHandle(nvars, [Poly.monomial(nvars, d) for d in ops.dead_divisors])
    assert ideal_equal(power, ideal_power(ops.modulus, ops.max_order + 1))
    misses = [IdealHandle(nvars, [Poly.variable(nvars, i) for i in range(1, nvars)]), IdealHandle(nvars, [])]
    misses = [I for I in misses if not is_subideal(power, I)]
    x = Poly.variable(nvars, 0)
    for ideal_name, J in cfg.ideals:
        schedule, _ = power_schedule(cfg.mode, J, ring, cfg.witnesses.get(ideal_name))
        target = ring.power_plus(J, 1, ring.N)
        assert is_subideal(power, ring.plus_N(target))
        cond = schedule(1, 0)
        S = diff_colon_of_ideal(cond, ops, D)
        assert S.dead_divisors is ops.dead_divisors and 0 < len(S.live) < len(S.monos)
        _assert_colon_matches_oracle(cond, ops, target, ring, D)
        for I in misses:
            got, want = S.first_outside(I), colon_oracle(ops, cond, D, I)[1]
            assert got == want and got is not None
        if ops.modulus.gb == [x]:
            assert S.first_outside(misses[0]) == x ** (ops.max_order + 1)
    assert len(misses) == 1 + (ops.modulus.gb == [x])


def _random_operator_set(rng, ring, max_order):
    nvars = ring.nvars
    ops = []
    for _ in range(rng.randint(1, 3)):
        terms = [
            (alpha, random_polynomial(rng, nvars, 1, 2))
            for alpha in rng.sample(monomials_up_to(nvars, max_order), 2)
        ]
        ops.append(DiffOp(nvars, terms))
    return OperatorSet(ops, ring.rad)


def _random_ideal(rng, nvars, count):
    return IdealHandle(nvars, [random_polynomial(rng, nvars, 2, 3) for _ in range(count)])


def _random_rings():
    names = ("x", "y", "z")
    for nvars in (2, 3):
        var_names = names[:nvars]
        x = Poly.variable(nvars, 0)
        rad = IdealHandle(nvars, [x])
        yield RingSpec(var_names, IdealHandle(nvars, [x ** 2]), rad, (rad,))
        zero = IdealHandle(nvars, [])
        yield RingSpec(var_names, zero, zero)  # a polynomial ring: N = rad = 0


@pytest.mark.parametrize("seed", range(6))
def test_seeded_random_colons_match_the_row_reduced_oracle(seed):
    rng = random.Random(300 + seed)
    verdicts = Counter()
    for ring in _random_rings():
        nvars = ring.nvars
        D = rng.randint(2, 4 if nvars == 2 else 3)
        for _ in range(3):
            ops = _random_operator_set(rng, ring, 2)
            I = ring.image_in_reduced(_random_ideal(rng, nvars, rng.randint(1, 2)))
            J = _random_ideal(rng, nvars, rng.randint(1, 3))
            for m in (1, 2):
                cond = ring.power_plus(I, m, ring.rad)
                verdicts[_assert_colon_matches_oracle(cond, ops, ring.power_plus(J, m, ring.N), ring, D)] += 1
    assert verdicts[False]


def test_edge_colons_match_the_row_reduced_oracle():
    for ring in _random_rings():
        nvars = ring.nvars
        monos = monomials_up_to(nvars, 3)
        zero, unit = IdealHandle(nvars, []), IdealHandle(nvars, [Poly.one(nvars)])
        identity = OperatorSet([identity_op(nvars)], ring.rad)
        y = IdealHandle(nvars, [Poly.variable(nvars, 1)])
        for cond, J in [(unit, zero), (unit, unit), (unit, y), (ring.plus_rad(y), zero), (ring.rad, unit)]:
            _assert_colon_matches_oracle(cond, identity, J, ring, 3)
        # the zero colon: in a polynomial ring only 0 is carried into (0);
        # modulo rad = (x), (0) misses the set's modulus, which is refused
        if ring.rad.is_zero():
            _assert_colon_matches_oracle(zero, identity, zero, ring, 3)
            S = diff_colon_of_ideal(zero, identity, 3)
            assert S.dim == 0 and S.basis == []
            assert subspace_in_ideal(S, zero, ring) is None
        else:
            with pytest.raises(ValueError, match="^the condition ideal does not contain the operator set's modulus$"):
                diff_colon_of_ideal(zero, identity, 3)
        # the full space: refuted by 1 unless the target is the unit ideal
        S = diff_colon_of_ideal(unit, identity, 3)
        assert S.dim == len(monos)
        assert S.basis == [Poly.monomial(nvars, m) for m in monos]
        assert subspace_in_ideal(S, unit, ring) is None
        assert subspace_in_ideal(S, y, ring) == Poly.one(nvars)


def test_a_schedule_that_leaves_out_rad_is_refused(ring_x2, ops_pi_dx):
    # (y)^(n+c) misses rad = (x), which the colons' shared values are read
    # modulo: the search would test wrong colons, so it raises instead
    J = ideal("y")
    with pytest.raises(ValueError, match="^the condition ideal does not contain the operator set's modulus$"):
        uniformity.find_min_c(J, ops_pi_dx, ring_x2, 1, 1, 4, lambda n, c: ideal_power(J, n + c))


def test_every_monomial_column_counts_in_the_inclusion():
    # the span of one monomial lies in (y) exactly when y divides it, so a
    # form matrix missing any column would pass a monomial outside (y)
    ring = next(r for r in _random_rings() if r.nvars == 2 and r.rad.is_zero())
    for m in monomials_up_to(2, 4):
        S = subspace_from_polynomials(2, 4, [Poly.monomial(2, m)])
        witness = subspace_in_ideal(S, ideal("y"), ring)
        assert (witness is None) == (m[1] > 0), m
        assert witness == (None if m[1] else Poly.monomial(2, m))


def test_from_polynomials_keeps_the_annihilator_of_the_span():
    rng = random.Random(41)
    for _ in range(10):
        polys = [random_polynomial(rng, 2, 3) for _ in range(rng.randint(0, 5))]
        S = subspace_from_polynomials(2, 3, polys)
        index = {m: j for j, m in enumerate(S.monos)}
        rows = [{index[m]: c for m, c in p.terms.items()} for p in polys]
        reduced, _ = linalg.rref(rows, len(S.monos))
        assert S.basis == kernel_polynomials(S.monos, reduced, 2)
        assert S.dim == len(reduced)
        assert all(contains_poly(S, p) for p in polys)


def test_a_contained_colon_costs_one_row_reduction(ring_x2, ops_pi_dx, monkeypatch):
    rref = linalg.rref
    calls = []

    def counted(rows, ncols, **kwargs):
        calls.append(ncols)
        return rref(rows, ncols, **kwargs)

    monkeypatch.setattr(linalg, "rref", counted)
    J = ideal("x - y")
    I = ring_x2.image_in_reduced(J)
    target = ring_x2.power_plus(J, 1, ring_x2.N)
    for c, contained in ((1, True), (0, False)):
        calls.clear()
        S = diff_colon_of_ideal(ring_x2.power_plus(I, 1 + c, ring_x2.rad), ops_pi_dx, 8)
        assert (subspace_in_ideal(S, target, ring_x2) is None) == contained
        assert len(calls) == 1  # a witness is read off the same echelon form


def test_a_kernel_refuted_for_two_shifts_is_row_reduced_once(ring_x3, monkeypatch):
    # (n, c) = (2, 1) and (3, 0) share the colon of I^3, and both refute it:
    # its equations are reduced once, and both witnesses read off that form
    ops = OperatorSet([identity_op(2), partial_op(2, (1, 0)), partial_op(2, (2, 0))], ring_x3.rad)
    J = ideal("x - y")
    I = ring_x3.image_in_reduced(J)
    rref = linalg.rref
    calls = []

    def counted(rows, ncols, **kwargs):
        calls.append(kwargs)
        return rref(rows, ncols, **kwargs)

    monkeypatch.setattr(linalg, "rref", counted)
    shifts = [(2, 1), (3, 0)]
    targets = [ring_x3.power_plus(J, n, ring_x3.N) for n, _ in shifts]
    witnesses = [subspace_in_ideal(diff_colon(I, n + c, ops, ring_x3, 8), t, ring_x3) for (n, c), t in zip(shifts, targets)]
    assert calls == [{"last_leading": True}]
    monkeypatch.undo()
    cond = ring_x3.power_plus(I, 3, ring_x3.rad)
    for witness, target in zip(witnesses, targets):
        assert witness is not None
        assert witness == colon_oracle(ops, cond, 8, target)[1] == P("y^3")


def test_inclusion_refuted_with_every_basis_element_inside_is_an_arithmetic_bug(ring_x2, ops_pi_dx, monkeypatch):
    J = ideal("x - y")
    S = diff_colon_of_ideal(ring_x2.power_plus(ring_x2.image_in_reduced(J), 2, ring_x2.rad), ops_pi_dx, 8)
    assert subspace_in_ideal(S, J, ring_x2) is None
    monkeypatch.setattr(linalg, "in_row_space", lambda reduced, pivots, v: False)
    with pytest.raises(ArithmeticBugError):
        subspace_in_ideal(S, J, ring_x2)


_FAULT_UNDER_O = """
from noethops import linalg, uniformity
from noethops.diffops import parse_operator_set
from noethops.groebner import IdealHandle, RingSpec
from noethops.noetherian import ArithmeticBugError, verify_noetherian_ops
from noethops.poly import parse_polynomial

def ideal(*texts):
    return IdealHandle(2, [parse_polynomial(t, ["x", "y"]) for t in texts])

rad = ideal("x")
ring = RingSpec(("x", "y"), ideal("x^2"), rad, (rad,))
ops = parse_operator_set("1; dx", ["x", "y"], rad)
S = uniformity.diff_colon(ideal("y"), 2, ops, ring, 6)
linalg.in_row_space = lambda reduced, pivots, v: False
for check in (lambda: uniformity.subspace_in_ideal(S, ideal("y"), ring), lambda: verify_noetherian_ops(ideal("x^2"), ops, 6)):
    try:
        check()
    except ArithmeticBugError as exc:
        print("caught:", exc)
"""


def test_the_inclusion_fault_check_survives_python_O():
    assert run_under_python_O(_FAULT_UNDER_O) == ["caught", "caught"]


# --- minimal shifts -------------------------------------------------------------


def test_find_min_c_fixtures(ring_x2, ops_pi_dx):
    rep = shift_search("artin_rees", ideal("x - y"), ops_pi_dx, ring_x2, 3, 3, 12, ideal_name="J1")
    assert [r.c_min for r in rep.rows] == [1, 1, 1]
    assert rep.rows[0].witness == P("y")
    assert rep.max_c == 1

    rep2 = shift_search("artin_rees", ideal("x", "y"), ops_pi_dx, ring_x2, 3, 3, 12)
    assert [r.c_min for r in rep2.rows] == [0, 0, 0]

    rep3 = shift_search("artin_rees", ideal("y"), ops_pi_dx, ring_x2, 3, 3, 12)
    assert [r.c_min for r in rep3.rows] == [0, 0, 0]


def test_find_min_c_witness_reverified_independently(ring_x2, ops_pi_dx):
    rep = shift_search("artin_rees", ideal("x - y"), ops_pi_dx, ring_x2, 2, 3, 10)
    for row in rep.rows:
        assert row.c_min == 1 and row.witness is not None
        f = row.witness
        source = IdealHandle(2, ideal_power(ring_x2.image_in_reduced(ideal("x - y")), row.n).gens + ring_x2.rad.gens)
        for op in ops_pi_dx:
            assert not source.normal_form(op.apply(f))
        target = IdealHandle(2, ideal_power(ideal("x - y"), row.n).gens + ring_x2.N.gens)
        assert target.normal_form(f)


def test_find_min_c_applies_each_operator_to_each_monomial_once(ring_x2, ops_pi_dx, monkeypatch):
    calls = Counter()
    apply = DiffOp.apply

    def counted(op, f):
        calls[(id(op), f)] += 1
        return apply(op, f)

    monkeypatch.setattr(DiffOp, "apply", counted)
    D = 8
    rep = shift_search("artin_rees", ideal("x - y"), ops_pi_dx, ring_x2, 2, 3, D)
    assert [r.c_min for r in rep.rows] == [1, 1]  # two colons for each n
    witnesses = [r.witness for r in rep.rows]
    # the set's modulus is (x) and its order 1, so (x)^2 = (x^2) holds the
    # monomials whose values the Leibniz rule settles
    assert ops_pi_dx.dead_divisors == ((2, 0),)
    expected = Counter()
    for op in ops_pi_dx:
        for m in monomials_up_to(2, D):
            x_m = Poly.monomial(2, m)
            # never inside (x^2); outside, once for all four colons, plus
            # each re-verification of a witness
            expected[(id(op), x_m)] = 0 if m[0] >= 2 else 1 + witnesses.count(x_m)
            assert calls[(id(op), x_m)] == expected[(id(op), x_m)], m
    assert +calls == +expected  # and no other argument


def test_find_min_c_exhaustion(ring_x2, ops_pi_dx):
    rep = shift_search("artin_rees", ideal("x - y"), ops_pi_dx, ring_x2, 1, 0, 12)
    assert rep.rows[0].c_min is None
    assert rep.to_dict(XY)["rows"][0]["c_min"] == "NOT_FOUND(<=0)"
    assert rep.rows[0].witness == P("y")
    assert rep.max_c is None


def test_find_min_c_zero_ideal(ring_x2, ops_pi_dx):
    rep = shift_search("artin_rees", IdealHandle(2, []), ops_pi_dx, ring_x2, 2, 2, 8)
    assert [r.c_min for r in rep.rows] == [0, 0]


def test_search_determinism(ring_x2, ops_pi_dx):
    a = shift_search("artin_rees", ideal("x - y"), ops_pi_dx, ring_x2, 3, 3, 10).to_dict(XY)
    b = shift_search("artin_rees", ideal("x - y"), ops_pi_dx, ring_x2, 3, 3, 10).to_dict(XY)
    assert a == b


# --- reverse containment ---------------------------------------------------------


def test_check_reverse_family(ring_x2, ops_pi_dx):
    for J in (ideal("x - y"), ideal("x", "y"), ideal("y")):
        for n in range(1, 6):
            check_reverse(J, ops_pi_dx, ring_x2, n)  # raises on failure


def test_check_reverse_trivial_cases(ring_x2, ops_pi_dx):
    check_reverse(ideal("x - y"), ops_pi_dx, ring_x2, 0)
    proj_only = OperatorSet([identity_op(2)], ring_x2.rad)
    check_reverse(ideal("x - y"), proj_only, ring_x2, 3)


def test_check_reverse_examines_high_degree_generators(ring_x2, ops_pi_dx, monkeypatch):
    # J^4 = (x - y)^4 has degree 4: a check cut off at a lower degree would
    # pass without applying an operator; with every image nonzero it must
    # fail, and a failure of this theorem-backed check is an arithmetic bug
    monkeypatch.setattr(DiffOp, "apply", lambda self, f: Poly.one(f.nvars))
    with pytest.raises(ArithmeticBugError) as exc:
        check_reverse(ideal("x - y"), ops_pi_dx, ring_x2, 3, ideal_name="Jw")
    witness = ring_x2.format(P("x - y") ** 4)
    assert str(exc.value) == f"reverse check failed for Jw at n=3: an operator does not carry {witness}, in Jw^4, into I^3 + rad"


def test_one_buchberger_run_per_generator_list_in_a_search(monkeypatch):
    # the search and the reverse checks test against the same ideals
    # (I^(n+c) + rad for several (n, c), J^n + N for every c); the ring keeps
    # one handle per generator tuple, so each basis is computed once
    cfg = load_experiment_config(str(Path(__file__).parents[1] / "configs" / "artin_rees_x2.json"))
    runs = Counter()
    buchberger = groebner.buchberger

    def counting(gens, order):
        gens = tuple(gens)
        runs[gens, order] += 1
        return buchberger(gens, order)

    monkeypatch.setattr(groebner, "buchberger", counting)
    for name, J in cfg.ideals:
        shift_search(cfg.mode, J, cfg.operators, cfg.ring, cfg.n_max, cfg.c_max, cfg.degree, ideal_name=name)
        for n in range(1, cfg.n_max + 1):
            check_reverse(J, cfg.operators, cfg.ring, n)
    assert runs
    assert max(runs.values()) == 1, [(len(gens), k) for (gens, _), k in runs.items() if k > 1]


def test_images_equal_up_to_scaling_share_one_buchberger_run(monkeypatch):
    # J1 = x - y and J3 = y have the images (-y) and (y) in R_red = Q[x,y]/(x);
    # made monic, they share one handle, so I + rad = (x, y) is computed once
    cfg = load_experiment_config(str(Path(__file__).parents[1] / "configs" / "artin_rees_x2.json"))
    inputs = []
    buchberger = groebner.buchberger

    def recording(gens, order):
        gens = list(gens)
        inputs.append((gens, order))
        return buchberger(gens, order)

    monkeypatch.setattr(groebner, "buchberger", recording)
    for name, J in cfg.ideals:
        if name in ("J1", "J3"):
            shift_search(cfg.mode, J, cfg.operators, cfg.ring, cfg.n_max, cfg.c_max, cfg.degree, ideal_name=name)
            for n in range(1, cfg.n_max + 1):
                check_reverse(J, cfg.operators, cfg.ring, n)
    monkeypatch.undo()
    xy = ideal("x", "y").gb
    assert sum(buchberger(gens, order) == xy for gens, order in inputs if order == IdealHandle.ORDER) == 1


def test_groebner_inputs_of_a_power_search_stay_small(monkeypatch):
    # J^n + N and I^m + rad are built from the basis one power below, not
    # from all n-fold products of the generators (127 terms for J^4 + N here)
    cfg = load_experiment_config({
        "ring": "ring: Q[x,y,z] / (x^2)\nradical: (x)\nminimal-primes: [(x)]",
        "ideals": {"G1": "y^2 - x*z; z^2 - y; x*y - z"},
        "operators": "1; dx",
        "mode": "artin_rees",
        "parameters": {"n_max": 4, "c_max": 3, "degree": 6, "seed": 0},
    })
    sizes = []
    buchberger = groebner.buchberger

    def counting(gens, order):
        gens = list(gens)
        sizes.append(sum(len(g.terms) for g in gens))
        return buchberger(gens, order)

    monkeypatch.setattr(groebner, "buchberger", counting)
    bundle = run_experiment_config(cfg)
    assert [r.c_min for r in bundle.reports[0].rows] == [0, 0, 0, 0]
    assert _reverse_checks(bundle) == [("G1", n) for n in range(1, 5)]
    assert sizes and max(sizes) <= 30, sorted(sizes)


# --- separating operators ---------------------------------------------------------


def test_separating_operator_x2(ring_x2, linearity_checks):
    b = ideal("x")
    res = separating_operator(IdealHandle(2, []), b, ring_x2, ring_x2.rad, [Poly.one(2)], 3, 2)
    assert res.delta.order == 1
    assert res.delta.format(XY) == "dx"
    assert res.d_value == 1
    # linearity was decided on [delta, x] and [delta, y], over b's generators, into p
    brackets = [res.delta.bracket(P(v)) for v in XY]
    assert linearity_checks == [(brackets, list(b.gens), ring_x2.rad)]


def test_separating_operator_rejects_a_prime_without_the_radical():
    # with no minimal primes declared, p = (y) passed before; dx is not
    # linear modulo (y) on (x), since dx(x*x) = 2x = 0 in R_red but x*dx(x) = x
    ring = RingSpec(tuple(XY), ideal("x^2"), ideal("x"), ())
    with pytest.raises(ValueError, match="radical"):
        separating_operator(IdealHandle(2, []), ideal("x"), ring, ideal("y"), [Poly.one(2)], 3, 2)


def test_separating_operator_nonlinear_on_b_is_an_arithmetic_bug(ring_x3):
    # dx^2 is not linear on (x) modulo (x): [dx^2, x](x) = 2*dx(x) = 2
    delta = partial_op(2, (2, 0))
    with pytest.raises(ArithmeticBugError):
        uniformity._finish_separating(delta, ideal("x"), ring_x3, ideal("x"), [Poly.one(2)])


_SEPARATING_FAULT_UNDER_O = """
from noethops import uniformity
from noethops.diffops import parse_operator
from noethops.groebner import IdealHandle, RingSpec
from noethops.noetherian import ArithmeticBugError
from noethops.poly import parse_polynomial

def ideal(*texts):
    return IdealHandle(2, [parse_polynomial(t, ["x", "y"]) for t in texts])

x = ideal("x")
ring = RingSpec(("x", "y"), ideal("x^3"), x, (x,))
try:
    uniformity._finish_separating(parse_operator("dx^2", ["x", "y"]), x, ring, x, list(ideal("1").gens))
except ArithmeticBugError as exc:
    print("caught:", exc)
"""


def test_the_separating_linearity_check_survives_python_O():
    assert run_under_python_O(_SEPARATING_FAULT_UNDER_O) == ["caught"]


def test_separating_operator_projection(ring_x2):
    res = separating_operator(
        ideal("x"), IdealHandle(2, [Poly.one(2)]), ring_x2, ring_x2.rad, [Poly.one(2)], 3, 2
    )
    assert res.delta.order == 0 and res.d_value == 1


def test_separating_operator_x3(ring_x3):
    res = separating_operator(
        IdealHandle(2, []), ideal("x^2"), ring_x3, ring_x3.rad, [Poly.one(2)], 3, 2
    )
    assert res.delta.order == 2
    assert res.delta.format(XY) == "dx^2"
    assert res.d_value == 2


def test_separating_operator_bracket_contract(ring_x3):
    res = separating_operator(
        IdealHandle(2, []), ideal("x^2"), ring_x3, ring_x3.rad, [Poly.one(2)], 3, 2
    )
    for v in (P("x"), P("y")):
        assert res.delta.bracket(v).order < res.delta.order


def test_separating_operator_exhaustion(ring_x3):
    res = separating_operator(
        IdealHandle(2, []), ideal("x^2"), ring_x3, ring_x3.rad, [Poly.one(2)], 1, 2
    )
    assert res is None


def test_separating_operator_on_a_torsion_quotient_exhausts_its_search(ring_x2, monkeypatch):
    # y*x lies in a = (x*y), so b/a = (x)/(x*y) is torsion over R/p = Q[y]
    # and every R-linear map from it to R/p is 0.  dx separates b, and only
    # the rows that ask each unknown operator to kill x^beta*(x*y) rule it out
    row_counts = []
    kernel_basis = linalg.kernel_basis

    def recording(rows, ncols):
        row_counts.append(len(rows))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", recording)
    res = separating_operator(ideal("x*y"), ideal("x"), ring_x2, ring_x2.rad, [Poly.one(2)], 3, 2)
    assert res is None
    assert sum(row_counts) == 204


def test_separating_operator_reads_d_off_the_first_generator_it_separates(ring_x3):
    # dx^2 carries x^3 to 6x, zero mod p: d = dx^2(x^2) / psi(x^2) = 2
    b = ideal("x^3", "x^2")
    res = separating_operator(IdealHandle(2, []), b, ring_x3, ring_x3.rad, [P("0"), P("1")], 3, 2)
    assert res.delta.format(XY) == "dx^2" and res.d_value == 2
    # a nonzero claimed image of x^3 = 0 in R fits no d
    with pytest.raises(RefutedError, match="^d is not consistent"):
        separating_operator(IdealHandle(2, []), b, ring_x3, ring_x3.rad, [P("1"), P("1")], 3, 2)


def test_separating_operator_refutes_bad_psi(ring_x3):
    b = ideal("x^2", "x^2*y")
    with pytest.raises(RefutedError, match="^d is not consistent across the generators; psi is not the claimed embedding$"):
        separating_operator(
            IdealHandle(2, []), b, ring_x3, ring_x3.rad, [Poly.one(2), Poly.one(2)], 3, 2
        )


# --- filtration checks --------------------------------------------------------------


def test_filtration_x2(ring_x2):
    chain = [ideal("x^2"), ideal("x"), IdealHandle(2, [Poly.one(2)])]
    report = verify_filtration(chain, [ideal("x"), ideal("x")], ring_x2)
    assert report.passed
    assert "user-asserted" in report.note


def test_filtration_x3(ring_x3):
    chain = [ideal("x^3"), ideal("x^2"), ideal("x"), IdealHandle(2, [Poly.one(2)])]
    report = verify_filtration(chain, [ideal("x")] * 3, ring_x3)
    assert report.passed


def test_filtration_rejects_nonstrict(ring_x2):
    chain = [ideal("x^2"), ideal("x^2"), IdealHandle(2, [Poly.one(2)])]
    report = verify_filtration(chain, [ideal("x"), ideal("x")], ring_x2)
    assert not report.passed
    assert report.steps[0].problems == ["not strictly increasing"]


def test_filtration_rejects_bad_module_step(ring_x3):
    # (x) * (1) = (x) is not inside (x^3): step fails
    chain = [ideal("x^3"), IdealHandle(2, [Poly.one(2)])]
    report = verify_filtration(chain, [ideal("x")], ring_x3)
    assert not report.passed
    assert report.steps[0].problems == ["prime does not multiply the step into the previous term"]
    assert report.steps[0].failure is not None


# --- experiment bundles ---------------------------------------------------------------


def _reverse_checks(bundle) -> list[tuple[str, int]]:
    """The (ideal, n) the report lists as reverse checks, each passed: a
    failed check raises, so a bundle exists only when all of them passed."""
    rows = bundle.to_dict(bundle.cfg.ring.var_names)["reverse_checks"]
    assert all(row["passed"] is True for row in rows)
    return [(row["ideal"], row["n"]) for row in rows]


def _family():
    return [("J1", ideal("x - y")), ("J2", ideal("x", "y")), ("J3", ideal("y"))]


def _config(ring, ops, ideals, n_max, c_max, degree):
    return ExperimentConfig(ring, ideals, ops, "artin_rees", n_max, c_max, degree, seed=0)


def test_experiment_bundle(ring_x2, ops_pi_dx):
    bundle = run_constant_experiment(_config(ring_x2, ops_pi_dx, _family(), 3, 3, 12))
    assert bundle.aggregate_c == 1
    assert _reverse_checks(bundle) == [(name, n) for name, _ in _family() for n in (1, 2, 3)]
    assert bundle.certificate.ok
    data = bundle.to_dict(XY)
    assert data["aggregate_c"] == 1
    assert data["seed"] == 0
    assert data["verdict"] == bundle.verdict == "aggregate c = 1 over 3 ideal(s), degree bound 12"


def test_an_experiment_whose_operator_set_is_refuted_raises_with_its_witness(ring_x2):
    # 1 alone kills (x), which is larger than N = (x^2)
    ops = OperatorSet([identity_op(2)], ring_x2.rad)
    with pytest.raises(RefutedError, match="^operator set refuted against the defining ideal") as err:
        run_constant_experiment(_config(ring_x2, ops, _family(), 1, 0, 4))
    assert err.value.witness == P("x")


def test_the_bundle_derives_its_aggregate_and_verdict(ring_x2, ops_pi_dx):
    bundle = run_constant_experiment(_config(ring_x2, ops_pi_dx, [("J", ideal("x - y"))], 1, 0, 12))
    assert [f.name for f in dataclasses.fields(bundle)] == ["cfg", "certificate", "reports"]
    assert bundle.aggregate_c is None
    assert bundle.verdict == "exhausted: some rows hit c_max without containment"


def test_experiment_empty_family(ring_x2, ops_pi_dx):
    bundle = run_constant_experiment(_config(ring_x2, ops_pi_dx, [], 3, 3, 8))
    assert bundle.aggregate_c == 0
    assert bundle.reports == []


def test_experiment_single_maximal(ring_x2, ops_pi_dx):
    bundle = run_constant_experiment(_config(ring_x2, ops_pi_dx, [("J", ideal("x", "y"))], 3, 3, 10))
    assert bundle.aggregate_c == 0


def test_higher_nilpotency_raises_the_shift(ring_x3):
    # nil-index 3 needs two extra powers for J = (x - y): y and y^2 avoid
    # (x - y) + (x^3), whose basis reduces them to themselves, while y^3 does not
    ops = OperatorSet(
        [identity_op(2), partial_op(2, (1, 0)), partial_op(2, (2, 0))], ring_x3.rad
    )
    rep = shift_search("artin_rees", ideal("x - y"), ops, ring_x3, 3, 4, 12)
    assert [r.c_min for r in rep.rows] == [2, 2, 2]
    rep_max = shift_search("artin_rees", ideal("x", "y"), ops, ring_x3, 3, 4, 12)
    assert [r.c_min for r in rep_max.rows] == [0, 0, 0]
    for n in range(1, 4):
        check_reverse(ideal("x - y"), ops, ring_x3, n)  # raises on failure


def test_two_minimal_primes_experiment():
    from noethops.noetherian import PrimaryComponent, combine_components, noetherian_ops_primary

    rad = ideal("x*y")
    ring = RingSpec(tuple(XY), ideal("x^2*y"), rad, (ideal("x"), ideal("y")))
    c1 = PrimaryComponent(ideal("x^2"), ideal("x"), independent=(1,))
    c2 = PrimaryComponent(ideal("y"), ideal("y"), independent=(0,))
    merged = combine_components(
        ideal("x^2*y"), [(c1, noetherian_ops_primary(c1)), (c2, noetherian_ops_primary(c2))], ring
    )
    bundle = run_constant_experiment(
        _config(ring, merged, [("J1", ideal("x - y")), ("J2", ideal("x", "y"))], 2, 4, 10)
    )
    assert bundle.aggregate_c == 2
    assert _reverse_checks(bundle) == [("J1", 1), ("J1", 2), ("J2", 1), ("J2", 2)]
