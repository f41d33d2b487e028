"""Differential operators with polynomial coefficients on Q[x1..xn], and
operator sets that read them into a quotient.

An operator is a finite sum of coefficient * d^alpha terms where d^alpha is
the plain iterated partial derivative (no factorial normalization), applied
in closed form: d^alpha x^m = m!/(m - alpha)! * x^(m - alpha), and 0 when
some m_i < alpha_i.  An operator acts on P.  An `OperatorSet` holds the one
target modulus and reads every value modulo it, so "delta(f) = 0 in R_red"
is a normal-form test.  A degree-truncated kernel of a set is a
`TruncatedSubspace` (`operator_kernel`, kept per condition ideal and bound),
whose `first_outside` decides containment in an ideal for the colons and
the verification alike, reading the basis only up to the witness.

By the Leibniz rule an operator of order <= e carries K^(e+1) into K for
every ideal K.  So with M a set's modulus and e its maximal order, every
value on a monomial of M^(e+1) is 0 modulo M.  The set finds such
monomials without a Groebner basis of M^(e+1): a monomial that an
(e+1)-fold product of single-term elements of M's reduced basis divides
is *dead*.  Its column is zero in every truncated kernel, and it lies in
every ideal that holds those products.  So `on_monomials` and
`first_not_killed` apply no operator to it, `operator_kernel` reads no
value of it, and `first_outside` reads no normal form of it once the
ideal holds the products.  A modulus whose basis has no single-term
element has no dead monomial, and costs nothing more.

A set keeps its values per monomial, [op(x^m) reduced by M, for each op]
(`OperatorSet.values_at`), and both its readers take them from there: the
truncated kernels at every degree bound, and `first_not_killed`, which
forms op(h) modulo M as the sum of c * op(x^(t+beta)) over the terms of
h = x^beta * g.  So each operator is applied to each monomial at most
once per set.

The text syntax writes d<var> for the derivative in that variable, e.g.
"y*dx*dy + 1" or "dx^2"; juxtaposition with '*' is formal (coefficients to
the left of derivatives), not composition in the Weyl algebra.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from . import linalg
from .groebner import IdealHandle, ideal_power, split_poly_list
from .poly import (
    GrevLex,
    Mono,
    Poly,
    format_monomial,
    join_terms,
    mono_degree,
    mono_divides,
    mono_mul,
    monomials_up_to,
    parse_polynomial,
)

if TYPE_CHECKING:
    from .noetherian import PrimaryComponent


class ArithmeticBugError(RuntimeError):
    """A theorem-backed check failed: the arithmetic, not the input, is at
    fault.  Raised explicitly, so it survives `python -O`."""


class DiffOp:
    """Sum of (polynomial coefficient, derivative multi-index) terms: an
    operator on P."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms):
        self.nvars = nvars
        merged: dict[Mono, Poly] = {}
        for alpha, coeff in terms.items() if isinstance(terms, dict) else terms:
            if coeff:
                prev = merged.get(alpha)
                merged[alpha] = coeff if prev is None else prev + coeff
        self.terms = {a: merged[a] for a in sorted(merged, key=GrevLex().key) if merged[a]}

    # structure -----------------------------------------------------------

    @property
    def order(self) -> int:
        """Max |alpha| over surviving terms; the zero operator has order 0."""
        if not self.terms:
            return 0
        return max(mono_degree(a) for a in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffOp) and self.nvars == other.nvars and self.terms == other.terms

    def scale(self, factor) -> "DiffOp":
        """Multiply every coefficient by a scalar or polynomial factor."""
        return DiffOp(self.nvars, {a: c * factor for a, c in self.terms.items()})

    def reduce_coefficients(self, ideal: IdealHandle) -> "DiffOp":
        return DiffOp(self.nvars, {a: ideal.normal_form(c) for a, c in self.terms.items()})

    # action ----------------------------------------------------------------

    def apply(self, f: Poly) -> Poly:
        """delta(f) in P, in closed form: each term a*x^m of f and c*x^t of
        the coefficient of d^alpha add c * (a * m!/(m - alpha)!) *
        x^(t + m - alpha), and x^m with some m_i < alpha_i adds nothing."""
        if f.nvars != self.nvars:
            raise ValueError("operator and argument live over different variable sets")
        sums: dict[Mono, object] = {}
        for alpha, coeff in self.terms.items():
            for m, a in f.terms.items():
                factor = 1
                for e, k in zip(m, alpha):
                    if e < k:
                        break
                    while k:
                        factor *= e
                        e -= 1
                        k -= 1
                else:
                    value = a if factor == 1 else a * factor
                    for t, c in coeff.terms.items():
                        mono = tuple([s + e - k for s, e, k in zip(t, m, alpha)])
                        term = value if c == 1 else c * value
                        prev = sums.get(mono)
                        sums[mono] = term if prev is None else prev + term
        return Poly(self.nvars, sums)

    def bracket(self, f: Poly) -> "DiffOp":
        """[delta, f]: g -> delta(f*g) - f*delta(g), by the Leibniz rule, each
        d^gamma f read off `apply` of the monomial operator d^gamma; drops
        the order by at least one for operators of positive order."""
        one = Poly.one(self.nvars)
        terms: list[tuple[Mono, Poly]] = []
        for alpha, coeff in self.terms.items():
            for gamma in itertools.product(*[range(a + 1) for a in alpha]):
                if not any(gamma):
                    continue  # d^0 f * delta(g) cancels f*delta(g)
                binom = 1
                for a, g in zip(alpha, gamma):
                    binom *= math.comb(a, g)
                df = DiffOp(self.nvars, {gamma: one}).apply(f)
                if df:
                    terms.append((tuple(x - y for x, y in zip(alpha, gamma)), coeff * (binom * df)))
        return DiffOp(self.nvars, terms)

    # printing ---------------------------------------------------------------

    def format(self, var_names: Sequence[str]) -> str:
        dnames = [f"d{name}" for name in var_names]
        terms = []
        for alpha in sorted(self.terms, key=GrevLex().key, reverse=True):
            coeff = self.terms[alpha]
            ctext = coeff.format(var_names)
            if len(coeff.terms) > 1:
                ctext = f"({ctext})"
            terms.append((ctext, format_monomial(alpha, dnames)))
        return join_terms(terms)

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.nvars)]
        return f"DiffOp({self.format(names)})"


# ---------------------------------------------------------------------------
# operator sets


_UNSEEN = object()  # a monomial whose values the set has not computed yet


@dataclass(frozen=True)
class OperatorSet:
    """Operators read modulo one target modulus, which only the set holds,
    and the primary component they were computed from, if any.  Read-only,
    so what it keeps stays the set's: values per monomial (`values_at`),
    the columns per degree bound read from them (`on_monomials`), kernels
    per (condition ideal handle, degree bound), built by `operator_kernel`,
    and the divisors that mark its dead monomials (see the module
    docstring)."""

    ops: tuple[DiffOp, ...]
    modulus: IdealHandle
    component: PrimaryComponent | None = None
    # monomial -> [op(x^m) reduced by the modulus, for each op], None when dead
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # degree bound -> ((monomials, their values), live column indices)
    _on_monomials: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))

    @property
    def max_order(self) -> int:
        return max((op.order for op in self.ops), default=0)

    @functools.cached_property
    def dead_divisors(self) -> tuple[Mono, ...]:
        """The (e+1)-fold products of the single-term elements of the
        modulus's reduced basis (`ideal_power` of those elements), e the
        maximal order: monomials of M^(e+1); none when the basis has no
        such element."""
        singles = IdealHandle(self.modulus.nvars, [g for g in self.modulus.gb if len(g.terms) == 1])
        return tuple(next(iter(p.terms)) for p in ideal_power(singles, self.max_order + 1).gens)

    def is_dead(self, m: Mono) -> bool:
        """x^m lies in M^(e+1), by divisibility by one of `dead_divisors`."""
        return any(mono_divides(d, m) for d in self.dead_divisors)

    def values_at(self, m: Mono) -> list[Poly] | None:
        """[op(x^m) for op in the set], reduced by the modulus; None when
        x^m is dead, with no operator applied.  Computed once per monomial
        and kept: `on_monomials` and `first_not_killed` read the same
        values."""
        values = self._values.get(m, _UNSEEN)
        if values is _UNSEEN:
            values = None
            if not self.is_dead(m):
                x_m = Poly.monomial(self.modulus.nvars, m)
                values = [self.modulus.normal_form(op.apply(x_m)) for op in self.ops]
            self._values[m] = values
        return values

    def on_monomials(self, D: int) -> tuple[list[Mono], list[list[Poly]]]:
        """The monomials of degree at most D in ascending order, and for each
        one the values [op(x^m) for op in the set], reduced by the modulus
        (`values_at`); a dead monomial's are zero polynomials.

        Kept per degree bound, with `live_columns`: every truncated kernel
        of this set at that bound starts from the same values.
        """
        return self._columns(D)[0]

    def live_columns(self, D: int) -> Sequence[int]:
        """The indices of the monomials of `on_monomials(D)` that are not
        dead: the live columns of every truncated kernel at D."""
        return self._columns(D)[1]

    def _columns(self, D: int) -> tuple[tuple[list[Mono], list[list[Poly]]], list[int]]:
        cached = self._on_monomials.get(D)
        if cached is None:
            monos = monomials_up_to(self.modulus.nvars, D)
            stored = [self.values_at(m) for m in monos]
            zeros = [Poly.zero(self.modulus.nvars)] * len(self.ops)
            values = [zeros if v is None else v for v in stored]
            live = [j for j, v in enumerate(stored) if v is not None]
            cached = self._on_monomials[D] = ((monos, values), live)
        return cached

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)

    def format(self, var_names: Sequence[str]) -> str:
        return "; ".join(op.format(var_names) for op in self.ops)


# ---------------------------------------------------------------------------
# parsing


def parse_operator(text: str, var_names: Sequence[str]) -> DiffOp:
    """Parse operator text; d<var> is the derivative in that variable."""
    names = list(var_names) + [f"d{v}" for v in var_names]
    p = parse_polynomial(text, names)
    n = len(var_names)
    # a term x^m * d^alpha is the monomial (m, alpha) over the doubled names
    return DiffOp(n, [(m[n:], Poly.monomial(n, m[:n], c)) for m, c in p.terms.items()])


def parse_operator_set(text: str, var_names: Sequence[str], modulus: IdealHandle) -> OperatorSet:
    ops = [parse_operator(part, var_names) for part in split_poly_list(text)]
    return OperatorSet(ops, modulus)


# ---------------------------------------------------------------------------
# truncated kernels


class TruncatedSubspace:
    """Linear subspace S of P_<=D, held as its equations: the reduced
    echelon form, each row's pivot its last nonzero column (`linalg.rref`
    with `last_leading`), of a matrix whose kernel, over the fixed ascending
    monomial enumeration, is S.  So dim S is the number of columns minus
    the rank.

    `basis` is S's own reduced row echelon basis, pivots ascending, so that
    it (and the first witness read off it) does not depend on how S was
    given.  That form of the equations holds it already: its kernel vectors,
    read one free column at a time (`linalg.kernel_vectors`), are that
    basis, built only when asked for.

    A kernel of an operator set keeps the set's `dead_divisors` and its
    `live` columns at D; every other column is a dead monomial of S.  Built
    from anything else, no column is dead.
    """

    def __init__(
        self,
        nvars: int,
        degree_bound: int,
        monos: list[Mono],
        reduced: list[dict],
        pivots: list[int],
        dead_divisors: tuple[Mono, ...] = (),
        live: Sequence[int] | None = None,
    ):
        self.nvars = nvars
        self.degree_bound = degree_bound
        self.monos = monos
        self.reduced, self.pivots = reduced, pivots
        self.dead_divisors = dead_divisors
        self.live = range(len(monos)) if live is None else live

    @property
    def dim(self) -> int:
        return len(self.monos) - len(self.pivots)

    @functools.cached_property
    def basis(self) -> list[Poly]:
        return list(self._basis_polys())

    def _basis_polys(self):
        """The elements of `basis`, built one at a time."""
        for v in linalg.kernel_vectors(self.reduced, self.pivots, len(self.monos)):
            yield Poly(self.nvars, {self.monos[j]: c for j, c in v.items()})

    def first_outside(self, ideal: IdealHandle) -> Poly | None:
        """The first element of `basis` outside the ideal; None when S lies
        in the ideal.

        Containment is decided on the equations.  NF is linear: f = sum_j
        f_j x^(m_j) has NF(f) = sum_t (N f)_t x^t, where N has a row per
        monomial t and entry (t, j) the coefficient of x^t in NF(x^(m_j)),
        read off the ideal's memoised forms.  So S lies in the ideal exactly
        when N vanishes on it, that is when every row of N lies in the row
        space of the equations.  When the ideal holds `dead_divisors`, the
        dead columns of N are zero, and only the live ones are read.
        Only a refuted containment reads the basis, for its witness, and
        only up to it; a basis wholly inside contradicts the equations, an
        arithmetic bug.
        """
        columns = range(len(self.monos))
        if len(self.live) < len(self.monos) and not any(map(ideal.monomial_form, self.dead_divisors)):
            columns = self.live
        forms: dict[Mono, dict] = {}
        for j in columns:
            for t, c in ideal.monomial_form(self.monos[j]).terms.items():
                forms.setdefault(t, {})[j] = c
        if all(linalg.in_row_space(self.reduced, self.pivots, row) for row in forms.values()):
            return None
        for f in self._basis_polys():
            if ideal.normal_form(f):
                return f
        raise ArithmeticBugError("the kernel's equations put it outside the ideal, but every basis element lies inside")


def operator_kernel(ops: OperatorSet, cond: IdealHandle, D: int) -> TruncatedSubspace:
    """{f in P_<=D : NF(op(f), cond) = 0 for every op}, held as the reduced
    echelon form with last-column pivots (`TruncatedSubspace`) of the matrix
    M whose kernel, over the ascending monomial enumeration of P_<=D, is
    this space.  M has one row per (operator, monomial of NF(op(x^m),
    cond)) and one column per x^m, read off the live columns only (a dead
    column is zero).  That one row reduction serves the containment test
    and the basis alike.

    `cond` must contain the set's modulus: the values op(x^m) are shared by
    every call at this D (`OperatorSet.on_monomials`) and already reduced by
    the modulus, so only their normal forms by `cond` are taken here.  The
    kernel depends on nothing else, so the set keeps it, one per (handle of
    `cond`, D): shifts (n, c) and (n + 1, c - 1) share their colon.
    """
    kernel = ops._kernels.get((cond, D))
    if kernel is not None:
        return kernel
    monos, values = ops.on_monomials(D)
    live = ops.live_columns(D)
    rows: dict[tuple[int, Mono], dict] = {}
    for j in live:
        for i, value in enumerate(values[j]):
            if not value:
                continue
            for out_mono, c in cond.normal_form(value).terms.items():
                rows.setdefault((i, out_mono), {})[j] = c
    ordered = [rows[k] for k in sorted(rows, key=lambda k: (k[0], GrevLex().key(k[1])))]
    equations = linalg.rref(ordered, len(monos), last_leading=True)
    kernel = TruncatedSubspace(cond.nvars, D, monos, *equations, ops.dead_divisors, live)
    return ops._kernels.setdefault((cond, D), kernel)


def first_not_killed(ops: OperatorSet, gens: Sequence[Poly], target: IdealHandle | None = None) -> Poly | None:
    """The first h = x^beta * g, iterating operators, then generators g, then
    monomials x^beta of degree at most the operator's order, with op(h)
    outside `target` (the set's own modulus when None); None when there is
    none.  A `target` must contain the set's modulus M.

    op(h) modulo M is the sum of c * op(x^(t+beta)) over the terms c*x^t of
    g, read off the set's kept values (`OperatorSet.values_at`), so each
    operator meets each monomial at most once per set, however many h
    share it; a dead monomial adds nothing, as op carries it into M.  That
    sum is a normal form by M, and NF_target(NF_M(f)) = NF_target(f) for M
    inside the target, so one normal form by the target decides h.

    None is exact: an operator of order d composed with multiplication by g
    is again an operator of order at most d, hence carries every multiple of
    g into `target` once it carries the monomials of degree at most d there.
    """
    for i, op in enumerate(ops):
        for g in gens:
            for beta in monomials_up_to(g.nvars, op.order):
                sums: dict[Mono, object] = {}
                for t, c in g.terms.items():
                    values = ops.values_at(mono_mul(t, beta))
                    if values is None:
                        continue
                    for s, d in values[i].terms.items():
                        prev = sums.get(s)
                        sums[s] = c * d if prev is None else prev + c * d
                value = Poly(g.nvars, sums)
                if value and (target is None or target.normal_form(value)):
                    return Poly(g.nvars, {mono_mul(t, beta): c for t, c in g.terms.items()}) if any(beta) else g
    return None
