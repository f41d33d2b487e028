"""The representation of Q: a rational coefficient is an `int` when it is
integral and a `Fraction` only when it has a denominator, and every
coefficient division goes through `poly.qdiv`.  The reports are checked
against the package run with every coefficient a `Fraction`
(`oracles.fraction_coefficients`), the slow path the ints replaced."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from noethops import configs, diffops, groebner, linalg, noetherian
from noethops.configs import run_experiment_config
from noethops.poly import Poly, RationalFunction, parse_polynomial, qdiv, rational

from conftest import CONFIGS, keeps_the_rule, load_config
from oracles import fraction_coefficients

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _rationals(c):
    """The rationals a coefficient is made of: itself, or the coefficients
    of a rational function's numerator and denominator."""
    if isinstance(c, RationalFunction):
        return [*c.num.terms.values(), *c.den.terms.values()]
    return [c]


# --- qdiv --------------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, want",
    [
        (6, 3, 2),
        (-6, 4, Fraction(-3, 2)),
        (1, -3, Fraction(-1, 3)),
        (0, 5, 0),
        (Fraction(3, 2), Fraction(3, 4), 2),
        (Fraction(1, 2), 3, Fraction(1, 6)),
        (4, Fraction(2, 3), 6),
        (Fraction(-5, 7), Fraction(5, 7), -1),
    ],
)
def test_qdiv_is_exact_and_keeps_the_rule(a, b, want):
    got = qdiv(a, b)
    assert got == want and type(got) is type(want)
    assert keeps_the_rule(got)


def test_qdiv_agrees_with_fraction_division_and_never_gives_a_float():
    rng = random.Random(24)
    pool = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(40)]
    pool = [x.numerator if x.denominator == 1 else x for x in pool]
    for a in pool:
        for b in pool:
            if b:
                got = qdiv(a, b)
                assert got == Fraction(a) / Fraction(b)
                assert keeps_the_rule(got), (a, b, got)


def test_qdiv_defers_to_a_rational_function():
    u = Poly.variable(1, 0)
    r = RationalFunction(u, u + Poly.one(1))
    assert qdiv(r, 2) == RationalFunction(u, u * 2 + Poly.one(1) * 2)
    assert qdiv(1, r) == RationalFunction(u + Poly.one(1), u)
    assert qdiv(r, r) == 1
    with pytest.raises(ZeroDivisionError):
        qdiv(3, 0)


def test_rational_reads_ints_fractions_and_text():
    assert [rational(v) for v in (3, Fraction(6, 2), "4/2", " -1/3 ")] == [3, 3, 2, Fraction(-1, 3)]
    assert [type(rational(v)) for v in (Fraction(6, 2), "4/2", "1/3")] == [int, int, Fraction]


def test_parsed_literals_and_constants_are_ints():
    p = parse_polynomial("x + 2*y - 4/2 + 1/2*x*y", ["x", "y"])
    assert p.terms == {(1, 0): 1, (0, 1): 2, (0, 0): -2, (1, 1): Fraction(1, 2)}
    assert all(keeps_the_rule(c) for c in p.terms.values())
    assert type(Poly.one(2).constant_term()) is int
    assert type(Poly.zero(2).constant_term()) is int


def test_a_row_reduction_over_q_keeps_the_rule():
    rows = [{0: 2, 1: 4, 2: 6}, {0: 3, 1: 5, 3: 7}, {1: Fraction(1, 2), 2: 1, 3: 2}]
    reduced, pivots = linalg.rref(rows, 4)
    assert pivots == [0, 1, 2]
    assert all(row[pc] == 1 and type(row[pc]) is int for row, pc in zip(reduced, pivots))
    assert all(keeps_the_rule(x) for row in reduced for x in row.values())
    assert all(keeps_the_rule(x) for v in linalg.kernel_basis(rows, 4) for x in v.values())


# --- the engine against the Fraction-only oracle ---------------------------------


def test_the_oracle_makes_every_coefficient_a_fraction():
    with fraction_coefficients():
        p = parse_polynomial("x + 2*y - 1", ["x", "y"])
        gb = groebner.IdealHandle(2, [p, parse_polynomial("y^2", ["x", "y"])]).gb
        q = groebner.qdiv(6, 3)
    assert {type(c) for c in p.terms.values()} == {Fraction}
    assert {type(c) for g in gb for c in g.terms.values()} == {Fraction}
    assert type(q) is Fraction and q == 2
    assert groebner.qdiv is qdiv  # and the package is restored


@pytest.mark.parametrize("name", CONFIGS)
def test_config_reports_equal_the_fraction_only_reports(name):
    cfg = load_config(name)
    names = cfg.ring.var_names
    with fraction_coefficients():
        slow_cfg = load_config(name)
        want = run_experiment_config(slow_cfg).to_dict(slow_cfg.ring.var_names)
    assert run_experiment_config(cfg).to_dict(names) == want


def _dual_workload():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DualWorkload()


def _dual_outputs(workload) -> dict:
    modules = {"configs": configs, "diffops": diffops, "groebner": groebner, "noetherian": noetherian}
    outputs = workload.run(modules, workload.build(modules, None))
    assert not [o for o in outputs.values() if isinstance(o, Exception)]
    return outputs


def test_dual_ops_operators_and_certificates_equal_the_fraction_only_ones():
    workload = _dual_workload()
    with fraction_coefficients():
        want = _dual_outputs(workload)
    got = _dual_outputs(workload)
    assert len(got) == 5
    assert got == want


def test_reduced_bases_of_the_configs_keep_the_rule():
    # every reduced Groebner basis the configs compute, over Q and over Q(u)
    bases = []
    reduce_basis = groebner._reduce_basis

    def recording(*args, **kwargs):
        bases.append(reduce_basis(*args, **kwargs))
        return bases[-1]

    with mock.patch.object(groebner, "_reduce_basis", recording), mock.patch.object(noetherian, "_reduce_basis", recording):
        for name in CONFIGS:
            run_experiment_config(load_config(name))
    coefficients = [x for gb in bases for g in gb for c in g.terms.values() for x in _rationals(c)]
    assert len(bases) > 100 and coefficients
    assert [x for x in coefficients if not keeps_the_rule(x)] == []
