"""Buchberger Groebner bases and ideal arithmetic.

The pair strategy is the normal one (no sugar): pick the pair whose lcm has
minimal total degree, ties broken by the active order on the lcm and then by
pair indices.  New pairs pass through the usual product and chain filters.
The returned basis is the reduced Groebner basis, which is unique for a
given ideal and order, so output never depends on traversal details.

Ideals of a quotient ring R = P/N are represented by generator lists in the
ambient polynomial ring P.  Membership "in R" or "in R_red = P/rad" goes
through `RingSpec.plus_N` / `RingSpec.plus_rad`, which adjoin N or rad and
keep one handle, hence one basis, per generator tuple.  Ideal handles use
grevlex; only elimination runs Buchberger under a block order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .poly import (
    Block,
    GrevLex,
    Mono,
    MonomialOrder,
    Poly,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_polynomial,
)


class NotZeroDimensionalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# core algorithms


def _monic(f: Poly, order: MonomialOrder) -> Poly:
    _, c = f.leading(order)
    return f * (1 / c)


def normal_form(f: Poly, basis: Sequence[Poly], order: MonomialOrder) -> Poly:
    """Full normal form of f modulo `basis` (need not be a Groebner basis,
    but NF(f) = 0 iff f is in the ideal only when it is)."""
    if not basis:
        return f
    leads = [g.leading(order) for g in basis]
    work = dict(f.terms)
    remainder: dict[Mono, object] = {}
    key = order.key
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for (lm, lc), g in zip(leads, basis):
            if mono_divides(lm, m):
                shift = mono_div(m, lm)
                factor = c / lc
                for gm, gc in g.terms.items():
                    t = mono_mul(gm, shift)
                    if t == m:
                        continue
                    s = work.get(t)
                    s = -factor * gc if s is None else s - factor * gc
                    if s:
                        work[t] = s
                    elif t in work:
                        del work[t]
                break
        else:
            remainder[m] = c
    return Poly(f.nvars, remainder)


def _s_polynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    fm, fc = f.leading(order)
    gm, gc = g.leading(order)
    lcm = mono_lcm(fm, gm)
    return f.scale_term(mono_div(lcm, fm), 1 / fc) - g.scale_term(mono_div(lcm, gm), 1 / gc)


def _interreduce(polys: list[Poly], order: MonomialOrder) -> list[Poly]:
    current = [p for p in polys if p]
    while True:
        nxt: list[Poly] = []
        for i, p in enumerate(current):
            r = normal_form(p, nxt, order)
            if r:
                nxt.append(_monic(r, order))
        if nxt == current:
            return nxt
        current = nxt


def buchberger(gens: Iterable[Poly], order: MonomialOrder = GrevLex()) -> list[Poly]:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Zero generators are dropped; the zero ideal yields the empty basis.
    """
    basis = _interreduce(list(gens), order)
    if not basis:
        return []
    leads = [g.leading(order)[0] for g in basis]

    def pair_key(pair):
        i, j = pair
        lcm = mono_lcm(leads[i], leads[j])
        return (mono_degree(lcm), order.key(lcm), i, j)

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        lcm = mono_lcm(leads[i], leads[j])
        if lcm == mono_mul(leads[i], leads[j]):
            continue  # product criterion
        if _chain_criterion(i, j, lcm, leads, pairs):
            continue
        s = _s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order)
        if not r:
            continue
        basis.append(_monic(r, order))
        leads.append(basis[-1].leading(order)[0])
        k = len(basis) - 1
        pairs.update((i2, k) for i2 in range(k))

    return _reduce_basis(basis, order)


def _chain_criterion(i: int, j: int, lcm: Mono, leads: list[Mono], pairs: set) -> bool:
    for k in range(len(leads)):
        if k in (i, j) or not mono_divides(leads[k], lcm):
            continue
        if (min(i, k), max(i, k)) in pairs or (min(j, k), max(j, k)) in pairs:
            continue
        if mono_lcm(leads[i], leads[k]) == lcm or mono_lcm(leads[j], leads[k]) == lcm:
            continue  # guard against circular skips among equal lcms
        return True
    return False


def _reduce_basis(basis: list[Poly], order: MonomialOrder) -> list[Poly]:
    # minimalize: drop elements whose lead is divisible by another lead
    leads = [g.leading(order)[0] for g in basis]
    keep = []
    for i, g in enumerate(basis):
        if any(j != i and mono_divides(leads[j], leads[i]) and (leads[j] != leads[i] or j < i) for j in range(len(basis))):
            continue
        keep.append(g)
    # tail-reduce each against the others
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        reduced.append(_monic(normal_form(g, others, order), order))
    reduced.sort(key=lambda p: order.key(p.leading(order)[0]))
    return reduced


# ---------------------------------------------------------------------------
# ideal handles


class IdealHandle:
    """Generator list plus a lazily computed, cached reduced grevlex Groebner
    basis."""

    __slots__ = ("nvars", "gens", "_gb")
    ORDER = GrevLex()

    def __init__(self, nvars: int, gens: Iterable[Poly]):
        self.nvars = nvars
        self.gens = tuple(g for g in gens if g)
        for g in self.gens:
            if g.nvars != nvars:
                raise ValueError("generator has wrong number of variables")
        self._gb: list[Poly] | None = None

    @property
    def gb(self) -> list[Poly]:
        if self._gb is None:
            self._gb = buchberger(self.gens, self.ORDER)
        return self._gb

    def normal_form(self, f: Poly) -> Poly:
        return normal_form(f, self.gb, self.ORDER)

    def contains(self, f: Poly) -> bool:
        return not self.normal_form(f)

    def is_zero(self) -> bool:
        return not self.gb

    def contains_one(self) -> bool:
        gb = self.gb
        return len(gb) == 1 and gb[0] == Poly.one(self.nvars)

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.nvars)]
        inner = "; ".join(g.format(names) for g in self.gens) or "0"
        return f"IdealHandle({inner})"


def split_poly_list(text: str) -> list[str]:
    """Split a semicolon-separated list at the semicolons outside brackets,
    dropping empty entries."""
    parts, depth, cur = [], 0, []
    for ch in text:
        depth += ch in "(["
        depth -= ch in ")]"
        if ch == ";" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [part.strip() for part in parts if part.strip()]


def ideal_power(I: IdealHandle, n: int) -> IdealHandle:
    """I^n, generated by all n-fold products of generators; I^0 = (1)."""
    if n < 0:
        raise ValueError("negative ideal power")
    if n == 0:
        return IdealHandle(I.nvars, [Poly.one(I.nvars)])
    gens = []
    seen = set()
    for combo in itertools.combinations_with_replacement(I.gens, n):
        p = combo[0]
        for q in combo[1:]:
            p = p * q
        key = frozenset(p.terms.items())
        if p and key not in seen:
            seen.add(key)
            gens.append(p)
    return IdealHandle(I.nvars, gens)


def is_subideal(I: IdealHandle, J: IdealHandle) -> bool:
    """I is contained in J (every generator of I reduces to zero mod J)."""
    return all(J.contains(g) for g in I.gens)


def ideal_equal(I: IdealHandle, J: IdealHandle) -> bool:
    return is_subideal(I, J) and is_subideal(J, I)


def eliminate(I: IdealHandle, drop: Iterable[int]) -> IdealHandle:
    """Generators of I intersected with the subring omitting the `drop`
    variables; exponents stay in the full ambient ring."""
    drop = tuple(sorted(set(drop)))
    if not drop:
        return I
    gb = buchberger(I.gens, Block(eliminated=drop, inner=IdealHandle.ORDER))
    dropped = set(drop)
    kept = [g for g in gb if not (g.variables_used() & dropped)]
    return IdealHandle(I.nvars, kept)


def saturate(I: IdealHandle, g: Poly) -> IdealHandle:
    """I : g^infinity via a fresh variable t and elimination of t from
    I + (1 - t*g)."""
    if not g:
        raise ValueError("saturation by the zero polynomial")
    n = I.nvars
    extended = [p.extend(1) for p in I.gens]
    t = Poly.variable(n + 1, n)
    extended.append(Poly.one(n + 1) - t * g.extend(1))
    big = IdealHandle(n + 1, extended)
    elim = eliminate(big, [n])
    gens = [p.restrict(range(n)) for p in elim.gens]
    return IdealHandle(n, gens)


def ideal_intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I intersect J via t*I + (1-t)*J and elimination of t."""
    n = I.nvars
    t = Poly.variable(n + 1, n)
    one_minus_t = Poly.one(n + 1) - t
    gens = [t * p.extend(1) for p in I.gens]
    gens += [one_minus_t * p.extend(1) for p in J.gens]
    big = IdealHandle(n + 1, gens)
    elim = eliminate(big, [n])
    return IdealHandle(n, [p.restrict(range(n)) for p in elim.gens])


def standard_monomials(Q: IdealHandle) -> list[Mono]:
    """Monomials outside the leading-term ideal of Q, ascending in the active
    order.  Requires Q zero-dimensional (a pure power of every variable among
    the leading terms)."""
    return _standard_monomials_from_gb(Q.gb, Q.ORDER, Q.nvars)


def _standard_monomials_from_gb(gb: list[Poly], order: MonomialOrder, nvars: int) -> list[Mono]:
    if any(len(g.terms) == 1 and not mono_degree(next(iter(g.terms))) for g in gb):
        return []  # unit ideal
    leads = [g.leading(order)[0] for g in gb]
    bounds = []
    for i in range(nvars):
        pure = [m[i] for m in leads if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            raise NotZeroDimensionalError(
                f"no pure power of variable {i} among the leading terms; ideal is not zero-dimensional"
            )
        bounds.append(min(pure))
    out = []
    for combo in itertools.product(*[range(b) for b in bounds]):
        if not any(mono_divides(l, combo) for l in leads):
            out.append(tuple(combo))
    out.sort(key=order.key)
    return out


# ---------------------------------------------------------------------------
# ring presentation


@dataclass
class RingSpec:
    """Ambient variables and the defining data of R = P/N.

    `rad` is the user-supplied radical of N (so R_red = P/rad) and
    `minimal_primes` the user-asserted associated primes of R.  Construction
    checks N inside rad, and that rad equals the intersection of the claimed
    minimal primes when they are given; primality itself is taken on trust.

    The ring keeps one handle per generator tuple (`ideal`), so an ideal that
    several steps of a search test against has its basis computed once.
    """

    var_names: tuple[str, ...]
    N: IdealHandle
    rad: IdealHandle
    minimal_primes: tuple[IdealHandle, ...] = ()
    _handles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.var_names = tuple(self.var_names)
        self.minimal_primes = tuple(self.minimal_primes)
        for g in self.N.gens:
            if not self.rad.contains(g):
                names = self.var_names
                raise ValueError(f"defining ideal not inside the claimed radical: {g.format(names)}")
        if self.minimal_primes:
            inter = self.minimal_primes[0]
            for p in self.minimal_primes[1:]:
                inter = ideal_intersect(inter, p)
            if not ideal_equal(inter, self.rad):
                raise ValueError("claimed radical differs from the intersection of the minimal primes")
        for handle in (self.rad, self.N):
            self._handles.setdefault(handle.gens, handle)

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def parse(self, text: str) -> Poly:
        return parse_polynomial(text, self.var_names)

    def ideal(self, gens: Iterable[Poly]) -> IdealHandle:
        """The ring's handle for this generator tuple (zeros dropped)."""
        handle = IdealHandle(self.nvars, gens)
        return self._handles.setdefault(handle.gens, handle)

    def plus_N(self, J: IdealHandle) -> IdealHandle:
        """J + N: membership in J as an ideal of R."""
        return self.ideal(J.gens + self.N.gens)

    def plus_rad(self, J: IdealHandle) -> IdealHandle:
        """J + rad: membership in the image of J in R_red."""
        return self.ideal(J.gens + self.rad.gens)

    def image_in_reduced(self, J: IdealHandle) -> IdealHandle:
        """Generators of J reduced mod rad: the image ideal in R_red."""
        return self.ideal([self.rad.normal_form(g) for g in J.gens])

    def format(self, f: Poly) -> str:
        return f.format(self.var_names)
