import dataclasses
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import noethops

from noethops import groebner, noetherian, poly
from noethops.configs import load_experiment_config, load_ring, run_experiment_config
from noethops.diffops import DiffOp, OperatorSet, RefutedError, first_not_killed, operator_kernel, parse_operator_set
from noethops.groebner import IdealHandle, RingSpec, standard_monomials
from noethops.noetherian import (
    NonRationalPointError,
    PrimaryComponent,
    combine_components,
    dual_space,
    noetherian_ops_primary,
    verify_noetherian_ops,
)
from noethops.poly import Block, GrevLex, Poly, RationalFunction, monomials_up_to, qdiv

from conftest import P, ideal, keeps_the_rule
from oracles import (
    field_basis_by_buchberger,
    identity_op,
    is_contracted_by_product,
    kill_check_certifier,
    partial_op,
    point_exact_oracle,
    truncation_dual_vectors,
)

XY = ["x", "y"]


def _span_equal(ops_a, ops_b, degree):
    """Spans of evaluation functionals agree: each op's value vector on
    monomials of bounded degree reduces into the other family's row space."""
    from noethops import linalg

    def rows(ops):
        out = []
        for op in ops:
            out.append([op.apply(Poly.monomial(2, m)) for m in monomials_up_to(2, degree)])
        return out

    frame = monomials_up_to(2, degree + 2)

    def vectorize(rows_):
        # polynomials -> sparse coefficient vectors over a common monomial frame
        return [
            {k: c for k, c in enumerate(p.terms.get(m, Fraction(0)) for p in row for m in frame) if c}
            for row in rows_
        ]

    va, vb = vectorize(rows(ops_a)), vectorize(rows(ops_b))
    ncols = len(monomials_up_to(2, degree)) * len(frame)
    ra, _ = linalg.rref(va, ncols)
    rb, _ = linalg.rref(vb, ncols)
    return ra == rb


# --- dual spaces ---------------------------------------------------------------


def test_dual_space_x2_y():
    ops = dual_space(ideal("x^2", "y"), (0, 0))
    assert [op.format(XY) for op in ops] == ["1", "dx"]


def test_dual_space_maximal():
    ops = dual_space(ideal("x", "y"), (0, 0))
    assert [op.format(XY) for op in ops] == ["1"]


def test_dual_space_shifted_line():
    ops = dual_space(ideal("x^2", "y - x"), (0, 0))
    assert [op.format(XY) for op in ops] == ["1", "dx + dy"]


def test_dual_space_count_equals_colength():
    for gens in (("x", "y"), ("x^2", "y"), ("x^2", "x*y", "y^2"), ("x^2", "y - x"), ("x^3", "y")):
        Q = ideal(*gens)
        assert len(dual_space(Q, (0, 0))) == len(standard_monomials(Q))


def test_dual_space_away_from_origin():
    Q = IdealHandle(2, [P("(x - 1)^2"), P("y - 2")])
    ops = dual_space(Q, (1, 2))
    assert len(ops) == 2
    cert = verify_noetherian_ops(Q, ops, 4)
    assert cert.status == "exact"


def test_dual_space_rejects_nonroot():
    with pytest.raises(ValueError):
        dual_space(ideal("x^2", "y - 1"), (0, 0))


def test_membership_oracle_agreement():
    rng = random.Random(31)
    Q = ideal("x^2", "x*y", "y^2")
    ops = dual_space(Q, (0, 0))
    monos = monomials_up_to(2, 6)
    for _ in range(60):
        f = Poly(2, {monos[rng.randrange(len(monos))]: Fraction(rng.randint(-4, 4)) for _ in range(3)})
        gb_says = not Q.normal_form(f)
        duals_say = all(not ops.modulus.normal_form(op.apply(f)) for op in ops)
        assert gb_says == duals_say


# --- positive-dimensional components ----------------------------------------------


def test_noetherian_ops_x2_over_x():
    comp = PrimaryComponent(ideal("x^2"), ideal("x"), independent=(1,))
    ops = noetherian_ops_primary(comp)
    assert ops.format(XY) == "1; dx"
    assert verify_noetherian_ops(ideal("x^2"), ops, 8).status == "exact"


def test_noetherian_ops_parabola_double_line():
    Q = IdealHandle(2, [P("(x - y^2)^2")])
    comp = PrimaryComponent(Q, ideal("x - y^2"), independent=(1,))
    ops = noetherian_ops_primary(comp)
    assert ops.format(XY) == "1; dx"
    assert verify_noetherian_ops(Q, ops, 8).status == "exact"


def test_noetherian_ops_x3():
    comp = PrimaryComponent(ideal("x^3"), ideal("x"), independent=(1,))
    ops = noetherian_ops_primary(comp)
    assert ops.format(XY) == "1; dx; dx^2"


def test_noetherian_ops_rejects_nonrational_point():
    # x is quadratic over Q(y), so the prime has no rational point there
    comp = PrimaryComponent(IdealHandle(2, [P("x^2 - y")]), IdealHandle(2, [P("x^2 - y")]), independent=(1,))
    with pytest.raises(NonRationalPointError):
        noetherian_ops_primary(comp)


def test_a_component_is_read_only_and_its_operator_set_holds_it():
    comp = PrimaryComponent(ideal("x^2"), ideal("x"), independent=[1])
    assert comp.independent == (1,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        comp.independent = ()
    assert noetherian_ops_primary(comp).component is comp


def test_component_rejects_dependent_declaration():
    with pytest.raises(RefutedError, match="^declared independent variables are not independent for the prime$"):
        PrimaryComponent(ideal("x^2"), ideal("x"), independent=(0,))
    with pytest.raises(RefutedError, match="^claimed primary ideal is not inside its prime$") as err:
        PrimaryComponent(ideal("y"), ideal("x"), independent=(1,))
    assert err.value.witness == P("y")


@pytest.mark.parametrize("independent", [(1, 1), (5,), (-1,)])
def test_component_rejects_repeated_or_out_of_range_independent_variables(independent):
    with pytest.raises(ValueError, match="^independent variables must be distinct variables of the ring, not indices"):
        PrimaryComponent(ideal("x^2"), ideal("x"), independent=independent)


def test_denominator_clearing_preserves_kernel():
    # scaling an operator by a nonzerodivisor mod p leaves the kernel mod p unchanged
    rng = random.Random(17)
    p = ideal("x")
    base = partial_op(2, (1, 0))
    scaled = base.scale(P("y^2 + 1"))
    monos = monomials_up_to(2, 5)
    for _ in range(40):
        f = Poly(2, {monos[rng.randrange(len(monos))]: Fraction(rng.randint(-4, 4)) for _ in range(3)})
        assert bool(p.normal_form(base.apply(f))) == bool(p.normal_form(scaled.apply(f)))


# --- combining components -----------------------------------------------------------


def test_combine_single_component(ring_x2):
    comp = PrimaryComponent(ideal("x^2"), ideal("x"), independent=(1,))
    ops = noetherian_ops_primary(comp)
    merged = combine_components(ideal("x^2"), [(comp, ops)], ring_x2)
    assert merged.format(XY) == "1; dx"
    assert merged.component is comp  # the one component's prime is rad
    assert verify_noetherian_ops(ideal("x^2"), merged, 8).status == "exact"


def _ring_x2y():
    rad = ideal("x*y")
    return RingSpec(tuple(XY), ideal("x^2*y"), rad, (ideal("x"), ideal("y")))


def test_combine_two_components_describes_intersection():
    ring = _ring_x2y()
    c1 = PrimaryComponent(ideal("x^2"), ideal("x"), independent=(1,))
    c2 = PrimaryComponent(ideal("y"), ideal("y"), independent=(0,))
    merged = combine_components(
        ideal("x^2*y"), [(c1, noetherian_ops_primary(c1)), (c2, noetherian_ops_primary(c2))], ring
    )
    assert merged.component is None
    cert = verify_noetherian_ops(ideal("x^2*y"), merged, 6)
    assert cert.status == "verified_up_to_degree"
    # membership agreement on random samples
    rng = random.Random(23)
    target = ideal("x^2*y")
    monos = monomials_up_to(2, 5)
    for _ in range(60):
        f = Poly(2, {monos[rng.randrange(len(monos))]: Fraction(rng.randint(-3, 3)) for _ in range(3)})
        in_ideal = not target.normal_form(f)
        killed = all(not ring.rad.normal_form(op.apply(f)) for op in merged)
        assert in_ideal == killed


def test_combine_mismatch_reports_witness():
    ring = _ring_x2y()
    c1 = PrimaryComponent(ideal("x^2"), ideal("x"), independent=(1,))
    c2 = PrimaryComponent(ideal("y"), ideal("y"), independent=(0,))
    with pytest.raises(RefutedError, match="^components do not intersect to the target ideal$") as err:
        combine_components(
            ideal("x^2"), [(c1, noetherian_ops_primary(c1)), (c2, noetherian_ops_primary(c2))], ring
        )
    w = err.value.witness
    assert w is not None
    # the witness genuinely separates the claimed target from the intersection
    inter = ideal("x^2*y")
    assert bool(inter.normal_form(w)) != bool(ideal("x^2").normal_form(w))


def test_combine_rejects_an_empty_component_list():
    # no component claims nothing: a malformed input, not a refuted claim
    with pytest.raises(ValueError, match="^no components supplied$") as err:
        combine_components(ideal("x^2"), [], _ring_x2y())
    assert not isinstance(err.value, RefutedError)


# --- verification ----------------------------------------------------------------


def test_verify_exact_round_trip():
    Q = ideal("x^2", "y")
    ops = dual_space(Q, (0, 0))
    assert ops.modulus.gens == ideal("x", "y").gens
    assert verify_noetherian_ops(Q, ops, 4).status == "exact"
    # the set without its provenance recomputes the point and the colength
    assert verify_noetherian_ops(Q, OperatorSet(ops, ops.modulus), 4).status == "exact"


def test_verify_refutes_undersized_set(ring_x2):
    ops = OperatorSet([identity_op(2)], ring_x2.rad)
    cert = verify_noetherian_ops(ideal("x^2"), ops, 4)
    assert cert.status == "refuted"
    assert cert.witness == P("x")
    assert cert.witness_side == "killed_not_in_ideal"


def test_verify_refutes_oversized_set(ring_x2):
    ops = OperatorSet(
        [identity_op(2), partial_op(2, (1, 0)), partial_op(2, (2, 0))], ring_x2.rad
    )
    cert = verify_noetherian_ops(ideal("x^2"), ops, 4)
    assert cert.status == "refuted"
    assert cert.witness == P("x^2")
    assert cert.witness_side == "in_ideal_not_killed"


def test_verify_not_exact_for_an_ideal_primary_only_over_the_fraction_field():
    # the operators of (x^2) over Q(y) kill (x^2*y) and count right over
    # Q(y), but their kernel is (x^2): the truncated check must refute
    ops = noetherian_ops_primary(PrimaryComponent(ideal("x^2"), ideal("x"), independent=(1,)))
    cert = verify_noetherian_ops(ideal("x^2*y"), ops, 6)
    assert cert.status == "refuted"
    assert cert.witness == P("x^2")
    assert cert.witness_side == "killed_not_in_ideal"


def test_a_component_primary_only_over_the_fraction_field_cannot_be_built():
    # (x^2*y) is (x)-primary over Q(y) but has a component on y = 0.  A set
    # carrying it as its component was once certified exact against
    # (x^2*y), the contraction check skipped for the component's own ideal;
    # the component is now checked when built, and the bare set is refuted
    N = ideal("x^2*y")
    with pytest.raises(ValueError, match="^claimed primary ideal is not primary to its prime$"):
        PrimaryComponent(N, ideal("x"), independent=(1,))
    cert = verify_noetherian_ops(N, parse_operator_set("1; dx", XY, ideal("x")), 6)
    assert (cert.status, cert.witness, cert.witness_side) == ("refuted", P("x^2"), "killed_not_in_ideal")


def _contraction_pair(rng):
    """(Q, Q meet m, dependent, independent): Q generated by powers of
    a_j(u)*x_j - b_j(u), with a_j non-constant and linear in u (k = 1 or
    2), and m the ideal of a rational point x = s over the hyperplane
    u_1 = t.  m contains u_1 - t, so Q meet m is not contracted unless it
    is Q, and its block basis often mixes leading coefficients whose
    saturations keep it with ones that grow it."""
    k = rng.choice([1, 2])
    ndep = rng.choice([1, 2]) if k == 1 else 1
    n = ndep + k
    u = [Poly.variable(n, ndep + i) for i in range(k)]

    def linear():
        return sum((ui * rng.choice([0, 1, -1, 2]) for ui in u), Poly.constant(n, rng.randint(-2, 2)))

    primes = []
    for j in range(ndep):
        a = linear()
        while a.degree() == 0:
            a = linear()
        primes.append(a * Poly.variable(n, j) - linear())
    gens = [g ** rng.randint(1, 2) for g in primes]
    if ndep == 2 and rng.random() < 0.5:
        gens.append(primes[0] * primes[1])
    point = [Poly.variable(n, j) - Poly.constant(n, rng.randint(-2, 2)) for j in range(ndep)]
    m = IdealHandle(n, point + [u[0] - Poly.constant(n, rng.randint(-2, 2))])
    Q = IdealHandle(n, gens)
    return Q, groebner.ideal_intersect(Q, m), tuple(range(ndep)), tuple(range(ndep, n))


def test_contraction_by_each_leading_coefficient_matches_the_product_oracle():
    # one saturation per distinct leading coefficient against one by their
    # product; the intersections need every coefficient, not just one, as
    # some of their saturations give back the ideal itself
    rng = random.Random(5)
    verdicts = Counter()
    for _ in range(20):
        Q, not_contracted, dep, indep = _contraction_pair(rng)
        for I in (Q, not_contracted):
            verdict = noetherian._is_contracted(I, dep, indep)
            assert verdict == is_contracted_by_product(I, dep, indep), (I.gens, indep)
            verdicts[len(indep), verdict] += 1
        assert not noetherian._is_contracted(not_contracted, dep, indep)
    assert set(verdicts) == {(1, True), (1, False), (2, True), (2, False)}
    assert not noetherian._is_contracted(ideal("x^2*y"), (0,), (1,))
    assert not is_contracted_by_product(ideal("x^2*y"), (0,), (1,))


def test_building_and_certifying_a_component_saturates_each_ideal_once(monkeypatch):
    # the component's ideal when it is built, and the prime when its span is
    # shown to kill the ideal; certifying the component's own ideal does not
    # check its contraction again
    saturated = []
    saturate = noetherian.saturate

    def recording(I, g):
        saturated.append(I.gens)
        return saturate(I, g)

    monkeypatch.setattr(noetherian, "saturate", recording)
    Q, p = ideal("(x*y - 1)^2"), ideal("x*y - 1")
    comp = PrimaryComponent(Q, p, independent=(1,))
    assert saturated == [Q.gens]
    assert verify_noetherian_ops(Q, noetherian_ops_primary(comp), 6).status == "exact"
    assert saturated == [Q.gens, p.gens]


def test_verify_truncated_branch(ring_x2, ops_pi_dx):
    cert = verify_noetherian_ops(ideal("x^2"), ops_pi_dx, 6)
    assert cert.status == "verified_up_to_degree"
    assert cert.degree_bound == 6


def test_truncated_refutation_reads_the_kernel_rref_basis():
    # dx + y modulo (x) has no rational point, so the check is truncated; it
    # kills 1 - x*y, which the kernel's RREF basis holds with 1 at the
    # constant column, where the basis read by free columns holds x*y - 1
    a = ideal("x^2")
    ops = parse_operator_set("dx + y", XY, ideal("x"))
    cert = verify_noetherian_ops(a, ops, 3)
    assert (cert.status, cert.witness_side) == ("refuted", "killed_not_in_ideal")
    S = operator_kernel(ops, ops.modulus, 3)
    assert cert.witness == next(f for f in S.basis if a.normal_form(f)) == P("1 - x*y")


def test_truncated_certificates_match_the_kill_check_oracle_on_refuting_sets():
    # read modulo (x), which has no rational point, every set takes the
    # truncated branch: its inclusion test and its witness in the kernel
    # basis' order against the kill-check certifier's basis walk
    rng = random.Random(60)
    candidates = ["1", "dx", "dx^2", "y*dx", "dx*dy", "x*dx^2", "dy", "dx + y"]
    ideals = [("x^2",), ("x^2", "x*y"), ("x^3", "x^2*y"), ("x^2*y",), ("x",), ("x^2", "x*y^2")]
    outcomes = Counter()
    for _ in range(30):
        a = ideal(*rng.choice(ideals))
        ops = parse_operator_set("; ".join(rng.sample(candidates, rng.randint(1, 3))), XY, ideal("x"))
        cert = _certificate_as_kill_check(a, ops, rng.randint(3, 5))
        outcomes[cert.status, cert.witness_side] += 1
    assert set(outcomes) == {
        ("verified_up_to_degree", None),
        ("refuted", "killed_not_in_ideal"),
        ("refuted", "in_ideal_not_killed"),
    }, outcomes


def test_certificate_serialization(ring_x2, ops_pi_dx):
    cert = verify_noetherian_ops(ideal("x^2"), ops_pi_dx, 6)
    data = cert.to_dict(XY)
    assert data["status"] == "verified_up_to_degree"
    assert data["operators"] == ["1", "dx"]


def _random_point_ideal(rng, nvars):
    """An ideal primary to the maximal ideal of a random rational point: a
    power of each shifted variable plus a random element vanishing there."""
    point = [Fraction(rng.choice([0, 0, 1, -2, 3])) / rng.choice([1, 2]) for _ in range(nvars)]
    shifted = [Poly.variable(nvars, i) - Poly.constant(nvars, point[i]) for i in range(nvars)]
    gens = [shifted[i] ** rng.randint(1, 3) for i in range(nvars)]
    extra = Poly.zero(nvars)
    for _ in range(rng.randint(1, 3)):
        term = Poly.constant(nvars, Fraction(rng.randint(-3, 3)))
        for _ in range(rng.randint(1, 2)):
            term = term * shifted[rng.randrange(nvars)]
        extra = extra + term
    return IdealHandle(nvars, gens + [extra]), point


@pytest.mark.parametrize("nvars", [2, 3])
def test_exact_certifier_matches_point_oracle(nvars):
    # the certifier over F = Q(u) with no u against the evaluation-functional
    # path at a rational point over Q that it replaced, and against the kill
    # check that the bracket-closure shortcut skips
    names = ["x", "y", "z"][:nvars]
    rng = random.Random(20 + nvars)
    for _ in range(6):
        a, point = _random_point_ideal(rng, nvars)
        D = max(g.degree() for g in a.gens) + 1
        ops = dual_space(a, point).ops
        maximal = dual_space(a, point).modulus
        shifted = [Poly.variable(nvars, i) - Poly.constant(nvars, point[i]) for i in range(nvars)]
        # coefficients that are units at the point, plus terms vanishing there:
        # the same functionals, read off non-constant coefficients
        recombined = [
            DiffOp(nvars, [(al, c * (Poly.one(nvars) + shifted[0])) for al, c in op.terms.items()]
                   + [(al, c * shifted[-1]) for al, c in ops[0].terms.items()])
            for op in ops
        ]
        text = "; ".join(op.format(names) for op in ops)
        modulus_text = "; ".join(f"{v} - ({c})" for v, c in zip(names, point))
        cases = {
            "dual_space": OperatorSet(ops, maximal),
            "with_meta": noetherian_ops_primary(PrimaryComponent(a, maximal)),
            "parsed": parse_operator_set(text, names, IdealHandle(nvars, [P(t, names) for t in modulus_text.split(";")])),
            "recombined": OperatorSet(recombined, maximal),
            "undersized": OperatorSet(ops[:-1], maximal),
            "extra_derivative": OperatorSet([*ops, partial_op(nvars, (0,) * (nvars - 1) + (3,))], maximal),
        }
        for name, claimed in cases.items():
            status = _certificate_as_kill_check(a, claimed, D).status
            assert (status == "exact") == point_exact_oracle(a, claimed), (name, a.gens, point)
            if name in ("dual_space", "with_meta", "parsed", "recombined"):
                assert status == "exact", (name, a.gens, point)
            if name == "undersized":
                assert status != "exact", (a.gens, point)


# --- the bracket-closure shortcut against the kill check it skips ------------------


def _certificate_as_kill_check(a, ops, D):
    """The certificate of `verify_noetherian_ops`, once its status, witness
    and witness side are checked against the kill-check certifier's."""
    cert = verify_noetherian_ops(a, ops, D)
    want = kill_check_certifier(a, ops, D)
    assert (cert.status, cert.witness, cert.witness_side) == (want.status, want.witness, want.witness_side)
    return cert


# the inputs of the benchmark's dual_ops workload: (variables, ideal, prime,
# independent variables) or (variables, ideal, point)
DUAL_OPS_ITEMS = [
    ("x,y,z", "x^3 - z*y; y^4", "x; y", "z"),
    ("x,y,z", "x^4 - z*y^3; y^5", "x; y", "z"),
    ("x,y,z", "x^3 - z*y^2; y^5", "x; y", "z"),
    ("x,y", "x^6", "x", "y"),
    ("x,y,z", "(x-1)^3; (y-2)^3; z^3 - (x-1)*(y-2)", (1, 2, 0)),
]


def _dual_ops_sets():
    """(ideal, certified operator set) per dual_ops item, built the way the
    workload builds them."""
    for var_text, ideal_text, *rest in DUAL_OPS_ITEMS:
        names = var_text.split(",")
        Q = ideal(*ideal_text.split(";"), names=names)
        if isinstance(rest[0], tuple):
            point = rest[0]
            maximal = ideal(*(f"{v} - {c}" for v, c in zip(names, point)), names=names)
            yield Q, OperatorSet(dual_space(Q, point), maximal)
        else:
            prime_text, indep_text = rest
            indep = tuple(names.index(v) for v in indep_text.split(","))
            prime = ideal(*prime_text.split(";"), names=names)
            yield Q, noetherian_ops_primary(PrimaryComponent(Q, prime, indep))


def test_certificates_match_the_kill_check_oracle_on_dual_ops_items():
    for Q, ops in _dual_ops_sets():
        assert _certificate_as_kill_check(Q, ops, 10).status == "exact"


def test_exact_certification_applies_operators_to_generators_only(monkeypatch):
    # closure at the point replaces every x^beta * g with beta != 0
    sets = list(_dual_ops_sets())
    apply = DiffOp.apply
    calls = []

    def recording(op, f):
        calls.append(f)
        return apply(op, f)

    monkeypatch.setattr(DiffOp, "apply", recording)
    for Q, ops in sets:
        calls.clear()
        assert verify_noetherian_ops(Q, ops, 10).status == "exact"
        assert len(calls) == len(ops) * len(Q.gens)
        assert all(f in Q.gens for f in calls)


def _record_buchberger(monkeypatch, recording):
    """Put `recording` in place of `buchberger` in every module of the
    package that binds it."""
    run = groebner.buchberger
    for info in pkgutil.iter_modules(noethops.__path__):
        module = importlib.import_module(f"noethops.{info.name}")
        if getattr(module, "buchberger", None) is run:
            monkeypatch.setattr(module, "buchberger", recording)


def test_the_block_order_basis_of_the_prime_is_computed_once(monkeypatch):
    # the independence check of the component and the contraction check of
    # the modulus read the same basis, kept on the prime's handle
    run = groebner.buchberger
    calls = []

    def recording(gens, order=GrevLex()):
        calls.append((tuple(gens), order))
        return run(gens, order)

    _record_buchberger(monkeypatch, recording)
    Q, p = IdealHandle(2, [P("(x - y^2)^2")]), ideal("x - y^2")
    ops = noetherian_ops_primary(PrimaryComponent(Q, p, independent=(1,)))
    assert verify_noetherian_ops(Q, ops, 8).status == "exact"
    assert calls.count((p.gens, Block(eliminated=(0,)))) == 1


def test_the_basis_over_the_field_of_the_prime_is_reduced_once(monkeypatch):
    # building the set and verifying it both read the prime's point over
    # F = Q(z) off one reduced basis over F, kept on the prime's handle
    reduce_basis = noetherian._reduce_basis
    reduced = []

    def recording(basis, order, *leads):
        reduced.append(list(basis))
        return reduce_basis(basis, order, *leads)

    monkeypatch.setattr(noetherian, "_reduce_basis", recording)
    names = ["x", "y", "z"]
    Q, p = ideal("x^3 - z*y", "y^4", names=names), ideal("x", "y", names=names)
    ops = noetherian_ops_primary(PrimaryComponent(Q, p, independent=(2,)))
    assert verify_noetherian_ops(Q, ops, 8).status == "exact"
    prime_over_field = [noetherian._to_field_poly(g, (0, 1), (2,)) for g in p.basis(Block((0, 1)))]
    assert reduced.count(prime_over_field) == 1


def test_buchberger_runs_per_dual_ops_pass(monkeypatch):
    # the zero ideal answers with no run, and the bases over F = Q(u) of the
    # prime and of the primary ideal are read off the handles' own (their
    # block-order bases with u, their grevlex bases without): 15 runs, where
    # Buchberger runs over F made 23, and 3 zero ideals and 4 repeated bases
    # over Q made 30 before that
    run = groebner.buchberger
    calls = []

    def recording(gens, order=GrevLex()):
        gens = tuple(gens)
        calls.append(gens)
        return run(gens, order)

    _record_buchberger(monkeypatch, recording)
    statuses = [verify_noetherian_ops(Q, ops, 10).status for Q, ops in _dual_ops_sets()]
    assert statuses == ["exact"] * len(DUAL_OPS_ITEMS)
    assert all(calls)
    assert len(calls) == 15


def test_gcd_probes_per_dual_ops_pass(monkeypatch):
    # rational functions skip the univariate gcd wherever it cannot cancel
    # anything: over a polynomial or constant denominator, for a scalar
    # product or a scalar over a value, and for negations and powers; 167
    # probes without that
    probe = poly._poly_gcd_univariate
    calls = []

    def recording(a, b, slot):
        calls.append(slot)
        return probe(a, b, slot)

    monkeypatch.setattr(poly, "_poly_gcd_univariate", recording)
    statuses = [verify_noetherian_ops(Q, ops, 10).status for Q, ops in _dual_ops_sets()]
    assert statuses == ["exact"] * len(DUAL_OPS_ITEMS)
    assert len(calls) == 94


def _x2_at_origin_with_dx3():
    """{1, dx^3} for (x^2) in Q[x] at the origin: not closed, since
    [dx^3, x] = 3*dx^2, and dx^3(x^3) = 6."""
    a = IdealHandle(1, [P("x^2", ["x"])])
    return a, parse_operator_set("1; dx^3", ["x"], IdealHandle(1, [P("x", ["x"])])), P("x^3", ["x"])


def _over_y(text, modulus):
    """(x) and the operators of `text`, with the component (x) over Q(y),
    read modulo `modulus`."""
    comp = noetherian_ops_primary(PrimaryComponent(ideal("x"), ideal("x"), independent=(1,))).component
    return comp.Q, OperatorSet(parse_operator_set(text, XY, modulus).ops, modulus, comp)


def _with_dy():
    """{1, dx*dy} for (x) over Q(y): dy is a derivative in the independent
    variable, and dx*dy(x*y) = 1."""
    return (*_over_y("1; dx*dy", ideal("x")), P("x*y"))


def _uncontracted_modulus():
    """y + x*dx^2 modulo (x^2, x*y), which is (x) over Q(y) but not over Q:
    it carries x^2 to 2*x."""
    return (*_over_y("y + x*dx^2", ideal("x^2", "x*y")), P("x^2"))


@pytest.mark.parametrize("case", [_x2_at_origin_with_dx3, _with_dy, _uncontracted_modulus])
def test_sets_that_must_not_take_the_shortcut_are_refuted(case, monkeypatch):
    # each set kills the generators and has the rank of the ideal's dual
    # space; only the failed closure, dy or the modulus keeps the shortcut
    # from certifying it, and the kill check then finds the witness
    a, ops, witness = case()
    space = noetherian._exact_space(a, ops)
    assert space.rank == space.colength
    assert space.closed_under_brackets() == (case is not _x2_at_origin_with_dx3)
    assert not any(ops.modulus.normal_form(op.apply(g)) for op in ops for g in a.gens)
    calls = []
    monkeypatch.setattr(noetherian, "first_not_killed", lambda *args: calls.append(args) or first_not_killed(*args))
    cert = _certificate_as_kill_check(a, ops, 4)
    assert (cert.status, cert.witness, cert.witness_side) == ("refuted", witness, "in_ideal_not_killed")
    assert len(calls) == 1


# --- the dual space read off normal forms, against the truncation matrices ---------


def _walk_and_oracle(Q, p, indep):
    """(monos, vectors) of `_dual_vectors` and of the truncation oracle for
    Q primary to p over F = Q(independent variables)."""
    dep = tuple(i for i in range(Q.nvars) if i not in indep)
    point = noetherian._rational_point_of_prime(p, dep, indep)
    gens_f = [noetherian._to_field_poly(g, dep, indep) for g in Q.gens]
    gb, colength = noetherian._basis_over_field(Q, dep, indep), noetherian._colength_over_field(Q, dep, indep)
    one = noetherian._field_element(Poly.one(len(indep)))
    return noetherian._dual_vectors(gb, colength, point, one), truncation_dual_vectors(gens_f, point, colength, one)


def _parts(value):
    if isinstance(value, RationalFunction):
        return value.num, value.den
    assert keeps_the_rule(value), value
    return value


def _assert_same_dual_vectors(Q, p, indep):
    (monos, vectors), (want_monos, want_vectors) = _walk_and_oracle(Q, p, indep)
    assert monos == want_monos
    assert [list(v) for v in vectors] == [list(v) for v in want_vectors]  # keys and their order
    for v, w in zip(vectors, want_vectors):
        assert all(_parts(v[k]) == _parts(w[k]) for k in v), (Q.gens, v, w)


def _random_primary_ideal(rng):
    """Q primary to the point x_j = r_j over F = Q(u): 2 or 3 variables, u
    none or one of them, r_j in Q or in Q[u].  Its rationals are stored as
    the package stores them (an int when integral)."""
    nvars = rng.choice([2, 3])
    indep = tuple(sorted(rng.sample(range(nvars), rng.choice([0, 1]))))
    dep = [i for i in range(nvars) if i not in indep]
    u = Poly.variable(nvars, indep[0]) if indep else None
    shifted = []
    for j in dep:
        r = Poly.constant(nvars, qdiv(rng.choice([0, 0, 1, -2, 3]), rng.choice([1, 2])))
        if u is not None and rng.random() < 0.5:
            r = r + u * rng.choice([1, -1, 2]) * (u if rng.random() < 0.3 else Poly.one(nvars))
        shifted.append(Poly.variable(nvars, j) - r)
    gens = [s ** rng.randint(1, 3) for s in shifted]
    extra = Poly.zero(nvars)
    for _ in range(rng.randint(1, 3)):
        term = Poly.constant(nvars, rng.randint(-3, 3))
        if u is not None and rng.random() < 0.4:
            term = term * (u + Poly.constant(nvars, rng.randint(-2, 2)))
        for _ in range(rng.randint(1, 2)):
            term = term * rng.choice(shifted)
        extra = extra + term
    return IdealHandle(nvars, gens + [extra]), IdealHandle(nvars, shifted), indep


def test_dual_vectors_match_the_truncation_oracle_on_seeded_ideals():
    rng = random.Random(9)
    for _ in range(160):
        _assert_same_dual_vectors(*_random_primary_ideal(rng))


def _computed_config_components():
    """(Q, prime, independent variables) of every operator component that a
    shipped config computes."""
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg["operators"], dict):
            continue
        ring = load_ring(cfg["ring"])
        for spec in cfg["operators"]["compute"]:
            Q, p = (IdealHandle(ring.nvars, [ring.parse(t) for t in spec[key].split(";")]) for key in ("ideal", "prime"))
            yield Q, p, tuple(ring.var_names.index(v.strip()) for v in spec["independent"].split(","))


def _dual_ops_components():
    """(Q, prime, independent variables) of every dual_ops item; a point's
    prime is its maximal ideal."""
    for var_text, ideal_text, *rest in DUAL_OPS_ITEMS:
        names = var_text.split(",")
        Q = ideal(*ideal_text.split(";"), names=names)
        if isinstance(rest[0], tuple):
            yield Q, ideal(*(f"{v} - {c}" for v, c in zip(names, rest[0])), names=names), ()
        else:
            prime_text, indep_text = rest
            yield Q, ideal(*prime_text.split(";"), names=names), tuple(names.index(v) for v in indep_text.split(","))


def test_dual_vectors_match_the_truncation_oracle_on_dual_ops_items_and_configs():
    cases = list(_computed_config_components())
    assert cases
    for case in cases + list(_dual_ops_components()):
        _assert_same_dual_vectors(*case)


# --- the basis over F read off the block-order basis, against Buchberger over F ----


def _seeded_components():
    """The 160 seeded components of the dual-vector test above."""
    rng = random.Random(9)
    for _ in range(160):
        yield _random_primary_ideal(rng)


def _two_independent_components():
    """Two components over Q(u, v) in Q[x, y, u, v]."""
    names = ["x", "y", "u", "v"]
    for ideal_text, prime_text in (
        ("(u*x - v)^3; y - x", "u*x - v; y - x"),
        ("(u*x - v - 3)^2; ((v+2)*y - u + 1)^2", "u*x - v - 3; (v+2)*y - u + 1"),
    ):
        yield ideal(*ideal_text.split(";"), names=names), ideal(*prime_text.split(";"), names=names), (2, 3)


@pytest.mark.parametrize(
    "components",
    [_seeded_components, _dual_ops_components, _computed_config_components, _two_independent_components],
    ids=["seeded", "dual_ops", "configs", "two_independent"],
)
def test_the_basis_over_the_field_matches_buchberger_over_the_field(components):
    # element by element, coefficient representatives included: a reduced
    # Groebner basis is unique, however it was reached; and the colength
    # read off the leads alone
    cases = list(components())
    assert cases
    for Q, p, indep in cases:
        dep = tuple(i for i in range(Q.nvars) if i not in indep)
        for I in (Q, p):
            got = noetherian._basis_over_field(I, dep, indep)
            want = field_basis_by_buchberger(I, dep, indep)
            assert got == want, (I.gens, indep)
            colength = len(groebner._standard_monomials_from_gb([w.leading(GrevLex())[0] for w in want], len(dep)))
            assert noetherian._colength_over_field(I, dep, indep) == colength
            for g, w in zip(got, want):
                assert list(g.terms) == list(w.terms)
                assert [_parts(c) for c in g.terms.values()] == [_parts(c) for c in w.terms.values()]


def test_no_buchberger_run_has_coefficients_in_the_fraction_field(monkeypatch):
    # over the dual_ops items and the shipped configs: every basis over
    # F = Q(u) is read off a basis over Q
    run = groebner.buchberger
    calls, over_field = [], []

    def recording(gens, order=GrevLex()):
        gens = list(gens)
        calls.append(gens)
        if any(isinstance(c, RationalFunction) for g in gens for c in g.terms.values()):
            over_field.append(gens)
        return run(gens, order)

    _record_buchberger(monkeypatch, recording)
    for Q, ops in _dual_ops_sets():
        assert verify_noetherian_ops(Q, ops, 10).status == "exact"
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in sorted(os.listdir(root)):
        run_experiment_config(load_experiment_config(os.path.join(root, name)))
    assert calls
    assert over_field == []


@pytest.mark.parametrize("L", range(1, 7))
def test_the_walk_reaches_the_colength(L):
    # (x^L) has colength L and its dual space needs derivatives up to order
    # L - 1, so the walk's first vanishing degree is L itself
    x = Poly.variable(1, 0)
    ops = dual_space(IdealHandle(1, [x ** L]), (0,))
    assert [op.format(["x"]) for op in ops] == [partial_op(1, (k,)).format(["x"]) for k in range(L)]


def test_the_walk_reaches_the_colength_over_the_fraction_field():
    ops = noetherian_ops_primary(PrimaryComponent(ideal("x^6"), ideal("x"), independent=(1,)))
    assert ops.format(XY) == "1; dx; dx^2; dx^3; dx^4; dx^5"


def _bracket_rows_match(a, ops):
    space = noetherian._exact_space(a, ops)
    for op, row in zip(ops, space.rows):
        for k, j in enumerate(space.dep):
            assert space.bracket_row(row, k) == space.row(op.bracket(Poly.variable(a.nvars, j)))
    return space


def test_bracket_rows_from_the_evaluated_rows():
    for Q, ops in _dual_ops_sets():
        assert _bracket_rows_match(Q, ops).closed_under_brackets()
    for nvars in (2, 3):
        rng = random.Random(20 + nvars)
        for _ in range(6):
            a, point = _random_point_ideal(rng, nvars)
            ops = dual_space(a, point)
            assert _bracket_rows_match(a, OperatorSet(ops, ops.modulus)).closed_under_brackets()
    a, ops, _ = _x2_at_origin_with_dx3()
    assert not _bracket_rows_match(a, ops).closed_under_brackets()


# --- theorem-backed checks under python -O ----------------------------------------

_CHECKS_UNDER_O = """
import sys
from noethops import noetherian
from noethops.diffops import parse_operator_set
from noethops.groebner import IdealHandle
from noethops.poly import parse_polynomial

assert False, "assert statements run: not optimized"
walk = noetherian._dual_vectors
noetherian._dual_vectors = lambda *a: (lambda mv: (mv[0], mv[1][:-1]))(walk(*a))
P = lambda t: parse_polynomial(t, ["x", "y"])
calls = [
    lambda: noetherian.dual_space(IdealHandle(2, [P("x^2"), P("y")]), (0, 0)),
    lambda: noetherian.noetherian_ops_primary(
        noetherian.PrimaryComponent(IdealHandle(2, [P("x^2")]), IdealHandle(2, [P("x")]), (1,))
    ),
]
for call in calls:
    try:
        call()
        print("not caught")
    except noetherian.ArithmeticBugError as exc:
        print(f"caught: {exc}")
# {1, dx^3} kills x^2 and has the rank of (x^2) at the origin, but is not
# closed under brackets: the kill check must still run and refute
X = lambda t: parse_polynomial(t, ["x"])
ops = parse_operator_set("1; dx^3", ["x"], IdealHandle(1, [X("x")]))
cert = noetherian.verify_noetherian_ops(IdealHandle(1, [X("x^2")]), ops, 4)
print(cert.status, cert.witness.format(["x"]), cert.witness_side)
print(f"optimize={sys.flags.optimize}")
"""


def test_colength_check_survives_python_O():
    src_root = os.path.dirname(os.path.dirname(noethops.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CHECKS_UNDER_O],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_root},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "caught: 1 dual operators for colength 2",
        "caught: 1 dual operators for colength 2",
        "refuted x^3 in_ideal_not_killed",
        "optimize=1",
    ]
