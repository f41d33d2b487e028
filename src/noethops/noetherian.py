"""Noetherian operators describing primary ideals, and their verification.

One engine serves every primary component: the Macaulay dual space at the
rational point that the prime cuts out over F = Q(u), u a user-declared
independent variable set, with denominators cleared back to polynomial
coefficients.  The dual space is read off normal forms of the powers of the
shifted variables modulo Q's basis over F, and the same walk decides that Q
is primary to the point.  That basis is Q's block-order basis, kept on its
handle for the contraction check, made reduced over F.  With no u, F = Q
(rational coefficients) and this is the dual space at a point
(`dual_space`).  The set's modulus is the prime, and it keeps its
component.  `verify_noetherian_ops` certifies a claimed operator set
exactly where a dual-dimension count over F is available (the set's
modulus is the rational point of the ideal over F) and degree-truncated
otherwise, as the colons are (`TruncatedSubspace.first_outside`), and
refutes with an explicit witness when the claim is wrong.  Where the
operators' span at the point is closed under brackets with the variables,
it proves the ideal is killed from its generators alone (the Macaulay
inverse-system criterion).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .diffops import ArithmeticBugError, DiffOp, OperatorSet, first_not_killed, operator_kernel
from .groebner import (
    IdealHandle,
    NotZeroDimensionalError,
    RingSpec,
    _reduce,
    _reduce_basis,
    _standard_monomials_from_gb,
    eliminate,
    ideal_equal,
    ideal_intersect,
    is_subideal,
    saturate,
)
from .poly import (
    Block,
    GrevLex,
    Mono,
    Poly,
    RationalFunction,
    mono_degree,
    mono_embed,
    mono_unit,
    mono_zero,
    monomials_up_to,
    qdiv,
    rational,
    rational_content,
)


class NonRationalPointError(ValueError):
    """The prime does not cut out a rational point over the fraction field of
    the declared independent variables."""


class ComponentMismatchError(ValueError):
    def __init__(self, message: str, witness: Poly | None = None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# components and certificates


@dataclass(frozen=True)
class PrimaryComponent:
    """A claimed p-primary ideal Q together with a declared independent
    variable set (p meets the subring on those variables in 0).  Q is
    checked, once, to equal its contraction from F = Q(independent
    variables), so what holds for Q over F holds for Q itself."""

    Q: IdealHandle
    p: IdealHandle
    independent: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "independent", tuple(sorted(self.independent)))
        if len(set(self.independent)) < len(self.independent) or not all(0 <= i < self.Q.nvars for i in self.independent):
            raise ValueError(f"independent variables must be distinct variables of the ring, not indices {self.independent}")
        for g in self.Q.gens:
            if not self.p.contains(g):
                raise ComponentMismatchError("claimed primary ideal is not inside its prime", g)
        if self.independent:
            dep = self.dependent
            if not eliminate(self.p, dep).is_zero():
                raise ComponentMismatchError("declared independent variables are not independent for the prime")
            if not _is_contracted(self.Q, dep, self.independent):
                raise ValueError("claimed primary ideal is not primary to its prime")

    @property
    def dependent(self) -> tuple[int, ...]:
        indep = set(self.independent)
        return tuple(i for i in range(self.Q.nvars) if i not in indep)


@dataclass
class NoetherianCertificate:
    status: str  # "exact" | "verified_up_to_degree" | "refuted"
    degree_bound: int
    operators: OperatorSet
    witness: Poly | None = None
    witness_side: str | None = None  # "in_ideal_not_killed" | "killed_not_in_ideal"

    @property
    def ok(self) -> bool:
        return self.status != "refuted"

    def to_dict(self, var_names: Sequence[str]) -> dict:
        out = {
            "status": self.status,
            "degree_bound": self.degree_bound,
            "operators": [op.format(var_names) for op in self.operators],
        }
        if self.witness is not None:
            out["witness"] = self.witness.format(var_names)
            out["witness_side"] = self.witness_side
        return out


# ---------------------------------------------------------------------------
# dual spaces


def _normalize_op(op: DiffOp) -> DiffOp:
    """Scale an operator's rational coefficients (constants or polynomials)
    to coprime integers with a positive leading coefficient on the highest
    derivative term."""
    if not op:
        return op
    content = rational_content(c for coeff in op.terms.values() for c in coeff.terms.values())
    top = op.terms[max(op.terms, key=GrevLex().key)]
    if top.terms[max(top.terms, key=GrevLex().key)] < 0:
        content = -content
    return DiffOp(op.nvars, {alpha: coeff.divide_by(content) for alpha, coeff in op.terms.items()})


def dual_space(Q: IdealHandle, point: Sequence) -> OperatorSet:
    """Macaulay dual space basis of a zero-dimensional ideal primary to the
    maximal ideal at `point`: the component case with no independent
    variables, so F = Q.

    Returns the operator set of `noetherian_ops_primary`, whose modulus is
    the maximal ideal: evaluation at the point is reduction by it.  The
    operators span the dual, their count equals the colength, and f lies in
    Q iff every one of them kills f.
    """
    point = [rational(p) for p in point]
    nvars = Q.nvars
    if len(point) != nvars:
        raise ValueError("point has wrong number of coordinates")
    for g in Q.gens:
        if g.evaluate(point):
            raise ValueError("point is not a root of the ideal")
    maximal = IdealHandle(nvars, [Poly.variable(nvars, i) - Poly.constant(nvars, point[i]) for i in range(nvars)])
    return noetherian_ops_primary(PrimaryComponent(Q, maximal))


# ---------------------------------------------------------------------------
# components over F = Q(u)


def _field_element(q: Poly):
    """A polynomial in the independent variables u as an element of F:
    a rational when there are none (F = Q), else a `RationalFunction`."""
    return RationalFunction(q) if q.nvars else q.constant_term()


def _to_field_poly(f: Poly, dep: tuple[int, ...], indep: tuple[int, ...]) -> Poly:
    """Rewrite an ambient polynomial as a polynomial in the dependent
    variables with coefficients in F."""
    acc: dict[Mono, dict[Mono, object]] = {}
    for m, c in f.terms.items():
        dm = tuple(m[i] for i in dep)
        im = tuple(m[i] for i in indep)
        bucket = acc.setdefault(dm, {})
        bucket[im] = bucket.get(im, 0) + c
    terms = {dm: _field_element(Poly(len(indep), co)) for dm, co in acc.items()}
    return Poly(len(dep), terms)


def _rational_point_of_prime(p: IdealHandle, dep: tuple[int, ...], indep: tuple[int, ...]) -> list:
    """Solve the prime for the dependent variables over F; errors unless its
    Groebner basis over F has the linear form {x_j - r_j(u)}.  With no
    independent variables F = Q, and that basis is the prime's own."""
    ndep = len(dep)
    gb = _basis_over_field(p, dep, indep)
    point = {}
    zero = _field_element(Poly.zero(len(indep)))
    if len(gb) != ndep:
        raise NonRationalPointError("prime is not maximal with a rational point over the independent variables")
    for g in gb:
        lead, _ = g.leading(GrevLex())
        if mono_degree(lead) != 1:
            raise NonRationalPointError("prime requires a field extension over the independent variables")
        slot = next(i for i, e in enumerate(lead) if e)
        if any(mono_degree(m) for m in g.terms if m != lead):
            raise NonRationalPointError("prime does not solve linearly for the dependent variables")
        point[slot] = -g.terms.get(mono_zero(ndep), zero)
    if sorted(point) != list(range(ndep)):
        raise NonRationalPointError("prime does not determine every dependent variable")
    return [point[i] for i in range(ndep)]


def _basis_over_field(I: IdealHandle, dep: tuple[int, ...], indep: tuple[int, ...]) -> list[Poly]:
    """The reduced Groebner basis over F of I, in the dependent variables.
    With no independent variables F = Q, and that basis is I's own; else it
    is the reduction of I's basis under the block order eliminating the
    dependent variables, which over F is a Groebner basis of I*F[x_dep]
    (Gianni, Trager and Zacharias 1988); both are kept on the handle."""
    if not indep:
        return I.gb
    gb = I._field_bases.get((dep, indep))
    if gb is None:
        over_field = [_to_field_poly(g, dep, indep) for g in I.basis(Block(dep))]
        gb = I._field_bases[dep, indep] = _reduce_basis(over_field, GrevLex())
    return gb


def _colength_over_field(I: IdealHandle, dep: tuple[int, ...], indep: tuple[int, ...]) -> int:
    """The colength over F of I, with no arithmetic over F: the dependent
    parts of the leads of the basis `_basis_over_field` reduces generate
    I's leading ideal over F."""
    order = Block(dep) if indep else GrevLex()
    leads = [tuple(g.leading(order)[0][i] for i in dep) for g in I.basis(order)]
    return len(_standard_monomials_from_gb(leads, len(dep)))


def _dual_vectors(gb: list[Poly], colength: int, point: list, one):
    """The Macaulay dual space at the point of Q (basis `gb` over F), read
    off normal forms; ValueError unless Q is primary to the point.

    NF((x - r)^alpha) is computed degree by degree as NF((x_j - r_j) *
    NF((x - r)^(alpha - e_j))) up to the first degree where all vanish, so
    m^degree lies in Q; an m-primary Q of colength L holds m^L.  The
    functionals "coefficient of a standard monomial in NF" span the dual
    space; over the shifted monomials `monos` their rows are the
    coefficients of the NF((x - r)^alpha).  Their reduced echelon form with
    last-column pivots is the canonical basis: `one` at each vector's last
    column, 0 at the other vectors' last columns.
    """
    ndep = len(point)
    linears = [Poly(ndep, {mono_unit(ndep, j): one, mono_zero(ndep): -r}) for j, r in enumerate(point)]
    order = GrevLex()
    leads = [g.leading(order) for g in gb]
    forms = {mono_zero(ndep): _reduce(Poly.constant(ndep, one), gb, leads, order)}
    degree, layer = 0, list(forms.values())
    while any(layer):
        if degree == colength:
            raise ValueError("claimed primary ideal is not primary to its prime")
        degree += 1
        layer = []
        for alpha in monomials_up_to(ndep, degree)[len(forms):]:
            j = next(i for i, e in enumerate(alpha) if e)
            below = forms[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]]
            form = _reduce(below * linears[j], gb, leads, order) if below else below
            forms[alpha] = form
            layer.append(form)
    monos = monomials_up_to(ndep, degree - 1)
    rows: dict[Mono, dict] = {}
    for col, alpha in enumerate(monos):
        for s, c in forms[alpha].terms.items():
            rows.setdefault(s, {})[col] = c
    reduced, pivots = linalg.rref(list(rows.values()), len(monos), last_leading=True)
    for row, pc in zip(reduced, pivots):
        row[pc] = one
    return monos, [dict(sorted(row.items())) for row in reduced]


def _is_contracted(Q: IdealHandle, dep: tuple[int, ...], indep: tuple[int, ...]) -> bool:
    """Q equals its contraction Q*F[x] meet Q[x], F = Q(u): no associated
    prime of Q contains a nonzero polynomial in u, so what holds for Q over
    F holds for Q itself.

    The contraction is Q : h^infinity, h the product of the leading
    coefficients in Q[u] of Q's basis under the block order eliminating the
    dependent variables (Gianni, Trager and Zacharias 1988).  As Q : (c*d)^infinity =
    (Q : c^infinity) : d^infinity, one saturation per distinct factor c decides it."""
    if not indep:
        return True
    order = Block(dep)
    coeffs = set()
    for g in Q.basis(order):
        lead, _ = g.leading(order)
        top = [lead[i] for i in dep]
        coeffs.add(Poly(Q.nvars, {
            tuple(0 if i in dep else e for i, e in enumerate(m)): c
            for m, c in g.terms.items()
            if [m[i] for i in dep] == top
        }))
    return all(is_subideal(saturate(Q, c), Q) for c in coeffs if c.degree() > 0)


def noetherian_ops_primary(comp: PrimaryComponent) -> OperatorSet:
    """Noetherian operators for a primary component, computed through the
    Macaulay dual space over F = Q(independent variables) at the rational
    point cut out by the prime, with denominators cleared to polynomial
    coefficients (harmless: they avoid the prime).  With no independent
    variables F = Q and this is the dual space at a point.  Raises
    ValueError when Q is not primary to that point over F.  (That Q equals
    its contraction from F, so is primary over Q as well, was checked when
    the component was built.)"""
    dep = comp.dependent
    indep = comp.independent
    nvars = comp.Q.nvars
    nindep = len(indep)
    point = _rational_point_of_prime(comp.p, dep, indep)
    gb, colength = _basis_over_field(comp.Q, dep, indep), _colength_over_field(comp.Q, dep, indep)
    monos, vectors = _dual_vectors(gb, colength, point, _field_element(Poly.one(nindep)))

    ops = []
    for v in vectors:
        coeffs: dict[Mono, RationalFunction] = {}
        for j, c in v.items():
            coeffs[monos[j]] = RationalFunction.lift(qdiv(c, math.prod(map(math.factorial, monos[j]))), nindep)
        dens = list(dict.fromkeys(c.den for c in coeffs.values()))
        terms = {}
        for alpha_dep, c in coeffs.items():
            cleared = c.num
            for d in dens:
                if d != c.den:
                    cleared = cleared * d
            embedded = {mono_embed(m, indep, nvars): q for m, q in cleared.terms.items()}
            terms[mono_embed(alpha_dep, dep, nvars)] = Poly(nvars, embedded)
        ops.append(_normalize_op(DiffOp(nvars, terms)))
    if len(ops) != colength:  # dual-space bases have exactly colength elements (Macaulay)
        raise ArithmeticBugError(f"{len(ops)} dual operators for colength {colength}")
    return OperatorSet(ops, comp.p, comp)


# ---------------------------------------------------------------------------
# combining components


def combine_components(
    target: IdealHandle,
    comps: Sequence[tuple[PrimaryComponent, OperatorSet]],
    ring: RingSpec,
) -> OperatorSet:
    """Union of per-component operator sets, re-targeted to R_red.

    Checks that the components intersect to `target` first.  When R has
    several minimal primes, each component's operators are multiplied by a
    separator that vanishes on every other minimal prime but not on the
    component's own; this keeps the common kernel equal to the intersection
    once all outputs are read modulo rad.
    """
    if not comps:
        raise ComponentMismatchError("no components supplied")
    inter = functools.reduce(ideal_intersect, [comp.Q for comp, _ in comps])
    if not ideal_equal(inter, target):
        witness = next((g for g in inter.gens if not target.contains(g)), None)
        if witness is None:
            witness = next((g for g in target.gens if not inter.contains(g)), None)
        raise ComponentMismatchError("components do not intersect to the target ideal", witness)

    merged: list[DiffOp] = []
    for comp, ops in comps:
        separator = _prime_separator(comp.p, ring)
        for op in ops:
            if separator is not None:
                op = op.scale(separator)
            merged.append(op.reduce_coefficients(ring.rad))
    alone = len(comps) == 1 and ideal_equal(comps[0][0].p, ring.rad)
    return OperatorSet(merged, ring.rad, comps[0][1].component if alone else None)


def _prime_separator(p: IdealHandle, ring: RingSpec) -> Poly | None:
    """Element of every other minimal prime that avoids p; None when p is the
    only minimal prime (or none are declared)."""
    others = [q for q in ring.minimal_primes if not ideal_equal(q, p)]
    if not others:
        return None
    inter = functools.reduce(ideal_intersect, others)
    for g in inter.gb:
        if not p.contains(g):
            return g
    raise ComponentMismatchError("no separator for the component prime among the minimal primes")


# ---------------------------------------------------------------------------
# verification


def verify_noetherian_ops(a: IdealHandle, ops: OperatorSet, D: int) -> NoetherianCertificate:
    """Certify or refute that the common kernel of `ops` (read modulo the set's
    modulus) equals the ideal `a`.

    The exact branch works at the rational point of the modulus over
    F = Q(u), u the independent variables of the set's component (none
    without one, so F = Q), when `a` is zero-dimensional over F and equals
    its contraction from F.  There the reverse containment is a
    dual-dimension count: the rank of the operators' coefficient rows at the
    point against colength(a).  Otherwise it is degree-truncated at D: the
    kernel of degree <= D is decided to lie in a on its equations
    (`TruncatedSubspace.first_outside`, as for the differential colons), and
    only a refutation reads the kernel's reduced row echelon basis, whose
    first element outside a is the witness.

    The containment "a is killed" is proven from the generators alone when
    the span of those rows is closed under brackets (`_kills_by_closure`),
    and is otherwise checked exactly by `first_not_killed`, whose first
    witness refutes.
    """
    if any(g.degree() > D for g in a.gens):
        raise ValueError("degree bound is below the ideal's generator degrees")

    space = _exact_space(a, ops)
    if space is None or not _kills_by_closure(a, ops, space):
        witness = first_not_killed(ops, a.gens)
        if witness is not None:
            return NoetherianCertificate("refuted", D, ops, witness=witness, witness_side="in_ideal_not_killed")

    # with a killed, a full-rank span has exactly a as its kernel
    if space is not None and space.rank == space.colength:
        return NoetherianCertificate("exact", D, ops)

    witness = operator_kernel(ops, ops.modulus, D).first_outside(a)
    if witness is None:
        return NoetherianCertificate("verified_up_to_degree", D, ops)
    return NoetherianCertificate("refuted", D, ops, witness=witness, witness_side="killed_not_in_ideal")


def _exact_space(a: IdealHandle, ops: OperatorSet) -> _CoefficientSpace | None:
    """The operators' coefficient space at the rational point of the modulus
    over F, with the colength of a over F; None when the exact branch is
    unavailable: no rational point, a not zero-dimensional over F, or a not
    equal to its contraction from F.  F = Q(u), u the independent variables
    of the set's component (none without one).  The contraction check is
    skipped for the component's own Q, which `PrimaryComponent` checked
    when it was built."""
    comp = ops.component
    indep = comp.independent if comp is not None else ()
    dep = tuple(i for i in range(a.nvars) if i not in indep)
    try:
        point = _rational_point_of_prime(ops.modulus, dep, indep)
        colength = _colength_over_field(a, dep, indep)
    except (NonRationalPointError, NotZeroDimensionalError):
        return None
    own_q = comp is not None and (a is comp.Q or ideal_equal(a, comp.Q))
    if not own_q and not _is_contracted(a, dep, indep):
        return None
    return _CoefficientSpace(ops, dep, indep, point, colength)


class _CoefficientSpace:
    """The span over F of the operators' coefficient rows at the point, and
    the colength over F of the ideal they are checked against.

    Row i is (c_i,alpha(point))_alpha over the dependent multi-indices alpha
    of order at most the set's maximal order; a term with a derivative in an
    independent variable has no column, as it kills every polynomial in the
    dependent variables.  The values op(x^beta) at the point are the row
    times an invertible triangular matrix (alpha! on the diagonal), so the
    rank is that of the value rows.
    """

    def __init__(self, ops: OperatorSet, dep: tuple[int, ...], indep: tuple[int, ...], point: list, colength: int):
        self.dep, self.indep, self.point, self.colength = dep, indep, point, colength
        self.alphas = monomials_up_to(len(dep), ops.max_order)
        self.columns = {alpha: j for j, alpha in enumerate(self.alphas)}
        self.rows = [self.row(op) for op in ops]
        self.reduced, self.pivots = linalg.rref(self.rows, len(self.alphas))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def row(self, op: DiffOp) -> dict:
        out = {}
        for alpha, coeff in op.terms.items():
            if any(alpha[i] for i in self.indep):
                continue
            value = _to_field_poly(coeff, self.dep, self.indep).evaluate(self.point)
            if value:
                out[self.columns[tuple(alpha[i] for i in self.dep)]] = value
        return out

    def bracket_row(self, row: dict, k: int) -> dict:
        """The row of [op, x_j] from op's row, x_j the k-th dependent
        variable.  The bracket never differentiates a coefficient: its row
        is alpha_k times op's value at alpha, moved to alpha - e_k."""
        out = {}
        for col, value in row.items():
            alpha = self.alphas[col]
            if alpha[k]:
                out[self.columns[alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]]] = alpha[k] * value
        return out

    def closed_under_brackets(self) -> bool:
        """The row of [op, x_j] lies in the span for every op and dependent
        x_j, so the span is closed under brackets with the variables."""
        return all(
            linalg.in_row_space(self.reduced, self.pivots, self.bracket_row(row, k))
            for row in self.rows
            for k in range(len(self.dep))
        )


def _kills_by_closure(a: IdealHandle, ops: OperatorSet, space: _CoefficientSpace) -> bool:
    """True when a provably lies in the operators' common kernel without
    testing any multiple of its generators.

    Reading modulo the modulus is the ring map to F when the modulus equals
    its contraction from F, so the kernel is {f : op(f)(point) = 0 for
    every op}.  With no derivative in an independent variable and the span
    closed under [., x_j], op(x_j*h) = x_j*op(h) + [op, x_j](h) keeps that
    kernel closed under multiplication, so it is an ideal and contains a
    once it contains a's generators.  A plain `if` chain: the decision must
    hold under `python -O`.
    """
    if any(alpha[i] for op in ops for alpha in op.terms for i in space.indep):
        return False
    if not space.closed_under_brackets():
        return False
    if any(ops.modulus.normal_form(op.apply(g)) for op in ops for g in a.gens):
        return False
    return _is_contracted(ops.modulus, space.dep, space.indep)
