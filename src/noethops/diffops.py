"""Differential operators with polynomial coefficients on Q[x1..xn] and its
quotients.

An operator is a finite sum of coefficient * d^alpha terms where d^alpha is
the plain iterated partial derivative (no factorial normalization), applied
in closed form: d^alpha x^m = m!/(m - alpha)! * x^(m - alpha), and 0 when
some m_i < alpha_i.  An optional target modulus realizes operators into a
quotient: applying the operator reduces the result by that ideal, so
"delta(f) = 0 in R_red" is a normal-form test.

The text syntax writes d<var> for the derivative in that variable, e.g.
"y*dx*dy + 1" or "dx^2"; juxtaposition with '*' is formal (coefficients to
the left of derivatives), not composition in the Weyl algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .groebner import IdealHandle, split_poly_list
from .poly import GrevLex, Mono, Poly, mono_degree, monomials_up_to, parse_polynomial


def _alpha_key(alpha: Mono):
    return (mono_degree(alpha), GrevLex().key(alpha))


class DiffOp:
    """Sum of (polynomial coefficient, derivative multi-index) terms, with an
    optional post-composed reduction modulus."""

    __slots__ = ("nvars", "terms", "modulus")

    def __init__(self, nvars: int, terms, modulus: IdealHandle | None = None):
        self.nvars = nvars
        merged: dict[Mono, Poly] = {}
        for alpha, coeff in terms.items() if isinstance(terms, dict) else terms:
            if coeff:
                prev = merged.get(alpha)
                merged[alpha] = coeff if prev is None else prev + coeff
        self.terms = {a: c for a, c in sorted(merged.items(), key=lambda kv: _alpha_key(kv[0])) if c}
        self.modulus = modulus

    # construction --------------------------------------------------------

    @classmethod
    def identity(cls, nvars: int, modulus: IdealHandle | None = None) -> "DiffOp":
        return cls(nvars, {(0,) * nvars: Poly.one(nvars)}, modulus)

    @classmethod
    def partial(cls, nvars: int, alpha: Mono, modulus: IdealHandle | None = None) -> "DiffOp":
        return cls(nvars, {tuple(alpha): Poly.one(nvars)}, modulus)

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
        return (
            isinstance(other, DiffOp)
            and self.nvars == other.nvars
            and self.terms == other.terms
            and _same_modulus(self.modulus, other.modulus)
        )

    def with_modulus(self, modulus: IdealHandle | None) -> "DiffOp":
        return DiffOp(self.nvars, self.terms, modulus)

    def scale(self, factor) -> "DiffOp":
        """Multiply every coefficient by a scalar or polynomial factor."""
        return DiffOp(self.nvars, {a: c * factor for a, c in self.terms.items()}, self.modulus)

    def reduce_coefficients(self, ideal: IdealHandle) -> "DiffOp":
        return DiffOp(self.nvars, {a: ideal.normal_form(c) for a, c in self.terms.items()}, self.modulus)

    # action ----------------------------------------------------------------

    def apply(self, f: Poly) -> Poly:
        """delta(f), reduced by the modulus, in closed form: each term
        a*x^m of f and c*x^t of the coefficient of d^alpha add
        c * (a * m!/(m - alpha)!) * x^(t + m - alpha), and x^m with some
        m_i < alpha_i adds nothing."""
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
        out = Poly(self.nvars, sums)
        if self.modulus is not None:
            out = self.modulus.normal_form(out)
        return out

    def bracket(self, f: Poly) -> "DiffOp":
        """[delta, f]: g -> delta(f*g) - f*delta(g); drops the order by at
        least one for operators of positive order."""
        terms: list[tuple[Mono, Poly]] = []
        for alpha, coeff in self.terms.items():
            for gamma in _sub_indices(alpha):
                binom = 1
                for a, g in zip(alpha, gamma):
                    binom *= math.comb(a, g)
                df = f.derivative(gamma)
                if df:
                    terms.append((tuple(x - y for x, y in zip(alpha, gamma)), coeff * (binom * df)))
        return DiffOp(self.nvars, terms, self.modulus)

    # printing ---------------------------------------------------------------

    def format(self, var_names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=_alpha_key, reverse=True):
            coeff = self.terms[alpha]
            dfactors = []
            for name, e in zip(var_names, alpha):
                if e == 1:
                    dfactors.append(f"d{name}")
                elif e > 1:
                    dfactors.append(f"d{name}^{e}")
            dpart = "*".join(dfactors)
            ctext = coeff.format(var_names)
            if not dpart:
                text = f"({ctext})" if len(coeff.terms) > 1 else ctext
            elif ctext == "1":
                text = dpart
            elif ctext == "-1":
                text = f"-{dpart}"
            elif len(coeff.terms) > 1:
                text = f"({ctext})*{dpart}"
            else:
                text = f"{ctext}*{dpart}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.nvars)]
        return f"DiffOp({self.format(names)})"


def _same_modulus(a: IdealHandle | None, b: IdealHandle | None) -> bool:
    if a is None or b is None:
        return a is b
    return a is b or list(a.gb) == list(b.gb)


def _sub_indices(alpha: Mono) -> list[Mono]:
    """Nonzero gamma with gamma <= alpha componentwise."""
    ranges = [range(a + 1) for a in alpha]
    out = []

    def rec(i, acc):
        if i == len(alpha):
            g = tuple(acc)
            if any(g):
                out.append(g)
            return
        for v in ranges[i]:
            rec(i + 1, acc + [v])

    rec(0, [])
    return out


# ---------------------------------------------------------------------------
# operator sets


@dataclass
class OperatorSet:
    """Operators sharing one target modulus; `meta` optionally records the
    primary component the set was computed from."""

    ops: list[DiffOp]
    modulus: IdealHandle | None
    meta: object = None
    # degree bound -> (monomials, per monomial [op(x^m) for each op])
    _on_monomials: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ops = [op.with_modulus(self.modulus) for op in self.ops]

    @property
    def max_order(self) -> int:
        return max((op.order for op in self.ops), default=0)

    def on_monomials(self, D: int) -> tuple[list[Mono], list[list[Poly]]]:
        """The monomials of degree at most D in ascending order, and for each
        one the values [op(x^m) for op in the set], reduced by the modulus.

        Computed once per degree bound and kept: every truncated kernel of
        this set at that bound starts from the same values.
        """
        cached = self._on_monomials.get(D)
        if cached is None:
            nvars = self.modulus.nvars if self.modulus is not None else self.ops[0].nvars
            monos = monomials_up_to(nvars, D)
            values = []
            for m in monos:
                basis_poly = Poly.monomial(nvars, m)
                values.append([op.apply(basis_poly) for op in self.ops])
            cached = self._on_monomials[D] = (monos, values)
        return cached

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)

    def format(self, var_names: Sequence[str]) -> str:
        return "; ".join(op.format(var_names) for op in self.ops)


# ---------------------------------------------------------------------------
# parsing


def parse_operator(text: str, var_names: Sequence[str], modulus: IdealHandle | None = None) -> DiffOp:
    """Parse operator text; d<var> is the derivative in that variable."""
    names = list(var_names) + [f"d{v}" for v in var_names]
    p = parse_polynomial(text, names)
    n = len(var_names)
    terms: list[tuple[Mono, Poly]] = []
    for m, c in p.terms.items():
        coeff_mono, alpha = m[:n], m[n:]
        terms.append((alpha, Poly.monomial(n, coeff_mono, c)))
    return DiffOp(n, terms, modulus)


def parse_operator_set(text: str, var_names: Sequence[str], modulus: IdealHandle | None = None) -> OperatorSet:
    ops = [parse_operator(part, var_names) for part in split_poly_list(text)]
    return OperatorSet(ops, modulus)


# ---------------------------------------------------------------------------
# truncated kernels


def operator_kernel(ops: OperatorSet, cond: IdealHandle, D: int) -> tuple[list[Mono], list[dict], list[int]]:
    """The equations of {f in P_<=D : NF(op(f), cond) = 0 for every op}:
    the ascending monomial enumeration of P_<=D, and the reduced row echelon
    form (rows, pivot columns) of the matrix M whose kernel, over that
    enumeration, is this space.  M has one row per (operator, monomial of
    NF(op(x^m), cond)) and one column per x^m.

    `cond` must contain the set's modulus: the values op(x^m) are shared by
    every call at this D (`OperatorSet.on_monomials`) and already reduced by
    the modulus, so only their normal forms by `cond` are taken here.
    """
    monos, values = ops.on_monomials(D)
    rows: dict[tuple[int, Mono], dict] = {}
    for j, per_op in enumerate(values):
        for i, value in enumerate(per_op):
            if not value:
                continue
            for out_mono, c in cond.normal_form(value).terms.items():
                rows.setdefault((i, out_mono), {})[j] = c
    ordered = [rows[k] for k in sorted(rows, key=lambda k: (k[0], _alpha_key(k[1])))]
    return (monos, *linalg.rref(ordered, len(monos)))


def kernel_in_ideal(monos: list[Mono], reduced: list[dict], pivots: list[int], ideal: IdealHandle) -> bool:
    """Does the kernel of the RREF equations over `monos` lie in the ideal?

    NF is linear: f = sum_j f_j x^(m_j) has NF(f) = sum_t (N f)_t x^t, where
    N has a row per monomial t and entry (t, j) the coefficient of x^t in
    NF(x^(m_j)), read off the ideal's memoised forms.  So the kernel lies in
    the ideal exactly when N vanishes on it, that is when every row of N
    lies in the row space of the equations.
    """
    forms: dict[Mono, dict] = {}
    for j, m in enumerate(monos):
        for t, c in ideal.monomial_form(m).terms.items():
            forms.setdefault(t, {})[j] = c
    return all(linalg.in_row_space(reduced, pivots, row) for row in forms.values())


def kernel_polynomials(monos: list[Mono], vectors: list[dict], nvars: int) -> list[Poly]:
    """The polynomials of sparse vectors over `monos`, terms in ascending
    column order."""
    return [Poly(nvars, {monos[j]: c for j, c in sorted(v.items())}) for v in vectors]


def first_not_killed(ops: OperatorSet, gens: Sequence[Poly], target: IdealHandle | None = None) -> Poly | None:
    """The first h = x^beta * g, iterating operators, then generators g, then
    monomials x^beta of degree at most the operator's order, with op(h)
    outside `target` (the set's own modulus when None); None when there is
    none.

    None is exact: an operator of order d composed with multiplication by g
    is again an operator of order at most d, hence carries every multiple of
    g into `target` once it carries the monomials of degree at most d there.
    """
    for op in ops:
        for g in gens:
            for beta in monomials_up_to(g.nvars, op.order):
                h = g.scale_term(beta, Fraction(1))
                value = op.apply(h)
                if target is not None:
                    value = target.normal_form(value)
                if value:
                    return h
    return None

