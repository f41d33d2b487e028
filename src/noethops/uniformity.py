"""Differential colon subspaces and empirical uniform constants.

The central computation: for an ideal J of R = P/N with image I in R_red and
a set of operators into R_red, find the least shift c such that every
polynomial of degree at most D killed into I^(n+c) by all operators already
lies in J^n.  Witnesses refuting a candidate shift are exact counterexamples
(re-verified by independent normal-form checks); a "contained" verdict is
certified only up to the degree bound, and every report records that bound.

A truncated colon is the operator set's truncated kernel (`operator_kernel`,
read modulo the set's modulus, which must be rad), kept as its equations.
Its containment in J^n + N is decided on them by
`TruncatedSubspace.first_outside`, as in the verification of Noetherian
operators; only a refuted containment reads the colon's basis, up to its
witness.

A theorem-backed check that fails (a recorded witness re-verified, the
reverse containment J^(n+e) inside the colon of I^n, the restricted
linearity of a separating operator) raises `ArithmeticBugError`: the
arithmetic, not the input, is at fault, so no report carries the failure.
A refuted input claim (an embedding psi no d fits, an operator set that
fails against the defining ideal) raises `RefutedError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence

from . import linalg
from .diffops import (
    ArithmeticBugError,
    DiffOp,
    OperatorSet,
    RefutedError,
    TruncatedSubspace,
    first_not_killed,
    operator_kernel,
)
from .groebner import (
    IdealHandle,
    RingSpec,
    ideal_equal,
    ideal_power,
    is_subideal,
)
from .noetherian import NoetherianCertificate, verify_noetherian_ops
from .poly import Mono, Poly, RationalFunction, monomials_up_to

if TYPE_CHECKING:  # configs imports this module
    from .configs import ExperimentConfig


# ---------------------------------------------------------------------------
# differential colon


def diff_colon_of_ideal(cond: IdealHandle, ops: OperatorSet, D: int) -> TruncatedSubspace:
    """{f in P_<=D : op(f) = 0 mod cond for every op}; `cond` must contain
    rad (a power schedule's value, or some ideal plus rad)."""
    return operator_kernel(ops, cond, D)


def diff_colon(I: IdealHandle, m: int, ops: OperatorSet, ring: RingSpec, D: int) -> TruncatedSubspace:
    """The degree-truncated differential colon of I^m by the operator set:
    all f of degree <= D with every op(f) in I^m + rad."""
    _require_radical_modulus(ops, ring)
    if D < 1:
        raise ValueError("degree bound must be at least 1")
    return diff_colon_of_ideal(ring.power_plus(I, m, ring.rad), ops, D)


def _require_radical_modulus(ops: OperatorSet, ring: RingSpec) -> None:
    """The colon reduces the shared values op(x^m) by (source + rad), which
    reads them correctly only when they were reduced by rad itself."""
    if not ideal_equal(ops.modulus, ring.rad):
        raise ValueError("operator set modulus differs from the ring radical")


def subspace_in_ideal(S: TruncatedSubspace, J: IdealHandle, ring: RingSpec) -> Poly | None:
    """The first element of S's basis outside J (as an ideal of R, so
    modulo N too); None when every element of S lies in J.

    Decided on S's equations (`TruncatedSubspace.first_outside`); only a
    refuted containment reads S's basis, up to the witness.  A witness
    refutes containment absolutely; None certifies it only for elements of
    degree <= S.degree_bound.  When J already lists N's generators
    (`RingSpec.power_plus`), J + N is J's own handle.
    """
    return S.first_outside(ring.plus_N(J))


# ---------------------------------------------------------------------------
# minimal uniform shift search


@dataclass
class ConstantRow:
    n: int
    c_min: int | None  # None: no c <= its report's c_max worked
    witness: Poly | None = None


def _max_shift(shifts) -> int | None:
    """The largest of the shifts, 0 for none; None when some search ran out
    (its shift is None)."""
    shifts = list(shifts)
    return None if None in shifts else max(shifts, default=0)


@dataclass
class ConstantReport:
    ideal_name: str
    rows: list[ConstantRow]
    degree_bound: int
    n_max: int
    c_max: int
    extras: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "exhausted" if self.max_c is None else f"c = {self.max_c}"

    @property
    def max_c(self) -> int | None:
        return _max_shift(r.c_min for r in self.rows)

    def to_dict(self, var_names: Sequence[str]) -> dict:
        out = {
            "ideal": self.ideal_name,
            "degree_bound": self.degree_bound,
            "n_max": self.n_max,
            "c_max": self.c_max,
            "verdict": self.verdict,
            "rows": [
                {
                    "n": r.n,
                    "c_min": str(r.c_min) if r.c_min is not None else f"NOT_FOUND(<={self.c_max})",
                    "witness": r.witness.format(var_names) if r.witness is not None else "",
                }
                for r in self.rows
            ],
        }
        out.update(self.extras)
        return out


# (n, c) -> the condition ideal of the colon for (n, c), rad included
PowerSchedule = Callable[[int, int], IdealHandle]


def find_min_c(
    J: IdealHandle,
    ops: OperatorSet,
    ring: RingSpec,
    n_max: int,
    c_max: int,
    D: int,
    schedule: PowerSchedule,
    *,
    ideal_name: str = "J",
) -> ConstantReport:
    """Least c (per n <= n_max, searching upward from 0) with the colon of
    schedule(n, c) contained in J^n + N at degree D.  A schedule is a
    function of (n, c) alone, built for J by `closures.power_schedule`.

    Each recorded witness is re-verified: it is killed into schedule(n, c-1)
    by every operator yet lies outside J^n + N, independent of the search
    path.  Every (n, c) colon shares the operators' values on monomials, read
    modulo the set's modulus, which must therefore be the ring's radical.
    """
    _require_radical_modulus(ops, ring)
    rows = []
    for n in range(1, n_max + 1):
        target = ring.power_plus(J, n, ring.N)
        c_min = witness = None
        for c in range(c_max + 1):
            S = diff_colon_of_ideal(schedule(n, c), ops, D)
            refuting = subspace_in_ideal(S, target, ring)
            if refuting is None:
                c_min = c
                break
            witness_c, witness = c, refuting
        if witness is not None:
            _assert_exact_witness(witness, schedule(n, witness_c), target, ops)
        rows.append(ConstantRow(n, c_min, witness))
    return ConstantReport(ideal_name, rows, D, n_max, c_max)


def _assert_exact_witness(f: Poly, cond: IdealHandle, target: IdealHandle, ops: OperatorSet) -> None:
    for op in ops:
        if cond.normal_form(op.apply(f)):
            raise ArithmeticBugError("recorded witness is not killed into the colon source")
    if not target.normal_form(f):
        raise ArithmeticBugError("recorded witness lies in the target power after all")


# ---------------------------------------------------------------------------
# reverse containment


def check_reverse(J: IdealHandle, ops: OperatorSet, ring: RingSpec, n: int, *, ideal_name: str = "J") -> None:
    """Check J^(n+e) inside the colon of I^n, e the max operator order: every
    op must carry each product g of n+e generators, times any h, into
    I^n + rad; exact per generator (`first_not_killed`), which reads the
    values modulo I^n + rad alone, as that contains the set's modulus rad.
    The Leibniz rule makes this a theorem (differential Artin-Rees), so an
    element not carried there is an arithmetic bug: `ArithmeticBugError`,
    naming the ideal, n and that element."""
    I = ring.image_in_reduced(J)
    target = ring.power_plus(I, n, ring.rad)
    witness = first_not_killed(ops, ideal_power(J, n + ops.max_order).gens, target)
    if witness is not None:
        raise ArithmeticBugError(
            f"reverse check failed for {ideal_name} at n={n}: an operator does not carry "
            f"{ring.format(witness)}, in {ideal_name}^{n + ops.max_order}, into I^{n} + rad"
        )


# ---------------------------------------------------------------------------
# separating operators


@dataclass
class SeparatingOperatorResult:
    delta: DiffOp
    d_value: RationalFunction


def separating_operator(
    a: IdealHandle,
    b: IdealHandle,
    ring: RingSpec,
    p: IdealHandle,
    psi: Sequence[Poly],
    t_max: int,
    coeff_deg: int,
) -> SeparatingOperatorResult | None:
    """Search, by increasing order t then the fixed unknown enumeration, for
    an operator killing a (exactly, via the monomial-multiples check) whose
    value on some generator of b is nonzero mod p; None when no operator of
    order <= t_max with coefficient degree <= coeff_deg does.

    psi lists the claimed images in R/p of b's generators under an R-linear
    embedding of b/a; the returned d satisfies delta(g) = psi(g) * d mod p
    for every generator, and the restricted linearity identity
    delta(f*g) = f*delta(g) mod p is checked exactly (`_finish_separating`).
    A psi that no d fits is refuted: a `RefutedError`.  A negative t_max or
    coeff_deg searches nothing: a `ValueError`.
    """
    for name, bound in (("t_max", t_max), ("coeff_deg", coeff_deg)):
        if bound < 0:
            raise ValueError(f"{name} must be at least 0, not {bound}")
    nvars = ring.nvars
    a_full = ring.plus_N(a)
    b_full = ring.plus_N(b)
    if not is_subideal(a_full, b_full) or is_subideal(b_full, a_full):
        raise ValueError("need a strictly inside b")
    if len(psi) != len(b.gens):
        raise ValueError("psi must list one image per generator of b")
    if ring.minimal_primes and not any(ideal_equal(p, q) for q in ring.minimal_primes):
        raise ValueError("p is not among the declared minimal primes")
    if not is_subideal(ring.rad, p):
        raise ValueError("p does not contain the radical, so it is not a prime of the ring")

    # NF_rad(x^mu * d^alpha(x^beta * g)) by (alpha, mu, index of g, beta), shared by every cd
    values: dict[tuple[Mono, Mono, int, Mono], Poly] = {}
    for t in range(t_max + 1):
        alphas = monomials_up_to(nvars, t)
        for cd in range(coeff_deg + 1):
            unknowns = [(alpha, mu) for alpha in alphas for mu in monomials_up_to(nvars, cd)]
            rows: dict[tuple[int, Mono, Mono], dict[int, object]] = {}
            for gi, g in enumerate(a_full.gens):
                for beta in alphas:
                    shifted = Poly.monomial(nvars, beta) * g
                    for j, (alpha, mu) in enumerate(unknowns):
                        key = (alpha, mu, gi, beta)
                        if key not in values:
                            op = DiffOp(nvars, {alpha: Poly.monomial(nvars, mu)})
                            values[key] = ring.rad.normal_form(op.apply(shifted))
                        for m, c in values[key].terms.items():
                            rows.setdefault((gi, beta, m), {})[j] = c
            ordered = [rows[k] for k in sorted(rows)]
            vectors = linalg.kernel_basis(ordered, len(unknowns))
            for v in vectors:
                delta = DiffOp(nvars, [
                    (alpha, Poly.monomial(nvars, mu, v[j])) for j, (alpha, mu) in enumerate(unknowns) if j in v
                ])
                if delta.order != t:
                    continue  # operators of lower order were covered at their own t
                if any(p.normal_form(delta.apply(h)) for h in b.gens):
                    return _finish_separating(delta, b, ring, p, list(psi))
    return None


def _finish_separating(
    delta: DiffOp, b: IdealHandle, ring: RingSpec, p: IdealHandle, psi: list[Poly]
) -> SeparatingOperatorResult:
    """Check delta(f*g) = f*delta(g) mod p for every f and every g in b, then
    read d off psi.

    delta(x_j*h) = x_j*delta(h) + [delta, x_j](h) and b is an ideal, so the
    identity holds exactly when every bracket [delta, x_j] carries b into p
    (take f = x_j for the converse), which `first_not_killed` decides,
    reading the values modulo p alone, as p contains rad.  A
    bracket kills a, has lower order and no larger coefficient degree, so
    by the search's minimality it cannot separate b: a failure is a bug.
    """
    nvars = ring.nvars
    brackets = OperatorSet([delta.bracket(Poly.variable(nvars, j)) for j in range(nvars)], ring.rad)
    if first_not_killed(brackets, b.gens, target=p) is not None:
        raise ArithmeticBugError("restricted linearity failed; separating operator search is buggy")

    values = [(p.normal_form(delta.apply(h)), p.normal_form(psi_h)) for h, psi_h in zip(b.gens, psi)]
    # the search returned delta for a generator it separates
    d_num, d_den = next((dh, ph) for dh, ph in values if dh)
    if not d_den:
        raise RefutedError("operator separates a generator whose claimed image is zero")
    if any(p.normal_form(dh * d_den - ph * d_num) for dh, ph in values):
        raise RefutedError("d is not consistent across the generators; psi is not the claimed embedding")
    return SeparatingOperatorResult(delta, RationalFunction(d_num, d_den))


# ---------------------------------------------------------------------------
# filtration checks


@dataclass
class FiltrationStep:
    """Step i of a chain: the texts of the checks it fails, in the order
    they are made, and, when p_i * a_i misses a_(i-1), a product outside."""

    index: int
    problems: list[str]
    failure: Poly | None = None

    @property
    def passed(self) -> bool:
        return not self.problems


@dataclass
class FiltrationReport:
    steps: list[FiltrationStep]
    last_term_is_minimal_prime: bool
    note: ClassVar[str] = "associated-prime condition on the quotients is user-asserted, not checked"

    @property
    def passed(self) -> bool:
        return self.last_term_is_minimal_prime and all(step.passed for step in self.steps)


def verify_filtration(chain: Sequence[IdealHandle], primes: Sequence[IdealHandle], ring: RingSpec) -> FiltrationReport:
    """Structural checks for a chain N = a_0 < a_1 < ... < a_k = (1) with a
    declared prime per step: strictness, p_i * a_i inside a_(i-1) (so each
    quotient is a module over R/p_i), each p_i among the declared minimal
    primes, and a_(k-1) itself a declared minimal prime.  A chain that fails
    a check is reported, not raised: each step lists the checks it fails."""
    if len(chain) < 2:
        raise ValueError("chain needs at least two terms")
    if len(primes) != len(chain) - 1:
        raise ValueError("need one prime per chain step")
    if not ideal_equal(chain[0], ring.N):
        raise ValueError("chain must start at the defining ideal")
    if not chain[-1].contains_one():
        raise ValueError("chain must end at the unit ideal")

    steps = []
    for i in range(1, len(chain)):
        prev, cur, prime = chain[i - 1], chain[i], primes[i - 1]
        problems = []
        if not is_subideal(prev, cur) or is_subideal(cur, prev):
            problems.append("not strictly increasing")
        products = (pg * cg for pg in prime.gens for cg in cur.gens)
        failure = next((f for f in products if not prev.contains(f)), None)
        if failure is not None:
            problems.append("prime does not multiply the step into the previous term")
        if not any(ideal_equal(prime, q) for q in ring.minimal_primes):
            problems.append("prime not among the declared minimal primes")
        steps.append(FiltrationStep(i, problems, failure))
    return FiltrationReport(steps, any(ideal_equal(chain[-2], q) for q in ring.minimal_primes))


# ---------------------------------------------------------------------------
# experiment orchestration


@dataclass
class ExperimentBundle:
    """An experiment's results, read together with the config they ran:
    the operator certificate and one shift report per ideal.  A failed
    reverse check ("artin_rees" only) raises, so the report lists every one
    the config asks for as passed."""

    cfg: ExperimentConfig
    certificate: NoetherianCertificate
    reports: list[ConstantReport]

    @property
    def aggregate_c(self) -> int | None:
        """The max shift over the family; None when some row exhausted."""
        return _max_shift(rep.max_c for rep in self.reports)

    @property
    def verdict(self) -> str:
        c, D = self.aggregate_c, self.cfg.degree
        if c is None:
            return "exhausted: some rows hit c_max without containment"
        return f"aggregate c = {c} over {len(self.reports)} ideal(s), degree bound {D}"

    def to_dict(self, var_names: Sequence[str]) -> dict:
        cfg = self.cfg
        checked = [name for name, _ in cfg.ideals] if cfg.mode == "artin_rees" else []
        return {
            "mode": cfg.mode,
            "seed": cfg.seed,
            "parameters": {"degree_bound": cfg.degree, "n_max": cfg.n_max, "c_max": cfg.c_max},
            "operator_certificate": self.certificate.to_dict(var_names),
            "max_operator_order": cfg.operators.max_order,
            "reports": [r.to_dict(var_names) for r in self.reports],
            "reverse_checks": [{"ideal": name, "n": n, "passed": True} for name in checked for n in range(1, cfg.n_max + 1)],
            "aggregate_c": self.aggregate_c if self.aggregate_c is not None else "NOT_FOUND",
            "verdict": self.verdict,
        }

    def csv_rows(self, var_names: Sequence[str]) -> list[list[str]]:
        rows = [["J_id", "n", "c_min", "witness", "degree_bound"]]
        for rep in self.reports:
            for r in rep.to_dict(var_names)["rows"]:
                rows.append([rep.ideal_name, str(r["n"]), r["c_min"], r["witness"], str(rep.degree_bound)])
        return rows


def run_constant_experiment(cfg: ExperimentConfig) -> ExperimentBundle:
    """Verify the config's operator set against the ring's defining ideal
    (a refuted set raises `RefutedError`), run the minimal-shift search under the power schedule of `cfg.mode` for
    each of its ideals in input order (plus the reverse containment checks
    for "artin_rees", which raise `ArithmeticBugError` on failure), and
    bundle the reports with `cfg`.

    `cfg.witnesses` (ideal name -> saturation witness, default 1) feeds the
    symbolic schedule.  `configs.run_experiment_config` checks the mode
    before the operators are verified, and `closures.power_schedule` each
    mode's inputs."""
    from .closures import shift_search  # closures imports this module

    ring, ops, D = cfg.ring, cfg.operators, cfg.degree
    cert = verify_noetherian_ops(ring.N, ops, D)
    if not cert.ok:
        raise RefutedError("operator set refuted against the defining ideal; not a Noetherian set for R", cert.witness)
    reports: list[ConstantReport] = []
    for name, J in cfg.ideals:
        witness = cfg.witnesses.get(name)
        reports.append(shift_search(cfg.mode, J, ops, ring, cfg.n_max, cfg.c_max, D, witness=witness, ideal_name=name))
        if cfg.mode == "artin_rees":
            for n in range(1, cfg.n_max + 1):
                check_reverse(J, ops, ring, n, ideal_name=name)
    return ExperimentBundle(cfg, cert, reports)
