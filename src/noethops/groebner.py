"""Buchberger Groebner bases and ideal arithmetic.

The pair strategy is the normal one (no sugar): pick the pair whose lcm has
minimal total degree, ties broken by the active order on the lcm and then by
pair indices.  Pending pairs sit in a heap under that key.  Which pairs are
formed is decided once, when an element enters the basis, by the update of
Gebauer and Moeller (1988; Becker and Weispfenning, Groebner Bases, 5.5):
of the new element's pairs, criterion M drops those whose lcm another of
their lcms properly divides, criterion F keeps one pair per lcm (the least
index), and the product criterion then drops every lcm one of whose pairs
has coprime leads; criterion B deletes each pending pair whose lcm the new
lead divides when both of its lcms with the new element differ from it.  A
deleted pair stays in the heap and is skipped when popped.  The input
enters in one pass, in ascending lead order, each generator reduced by the
elements before it.
The returned basis is the reduced Groebner basis, which is unique for a
given ideal and order, so output never depends on traversal details.  A
monomial ideal, every generator a single term, runs no pair and no
reduction: its reduced basis is its minimal monomials, made monic.  An
ideal handle keeps its basis and the basis' leading terms, the basis under
any other order it was asked for (elimination), and the normal forms of
the monomials it has reduced: 0 or x^m by divisibility when the basis is
monomial, and otherwise built from the normal form of one divisor
x^m / x_j.  NF(f) is the sum of its terms' forms; modulo a monomial basis,
the terms of f whose form is not 0.  Buchberger itself keeps
the leading terms of its growing basis for every reduction; `ideal_power`
builds each n-fold product from its (n-1)-fold prefix, and the handle keeps
those levels of products for its higher powers.  Powers multiply each
generator divided by its rational content, a unit multiple, so the
products of generators scaled by a rational keep integer coefficients.

Ideals of a quotient ring R = P/N are represented by generator lists in the
ambient polynomial ring P.  Membership "in R" or "in R_red = P/rad" goes
through `RingSpec.plus_N` / `RingSpec.plus_rad`, which adjoin N or rad and
keep one handle, hence one basis, per generator tuple.  Powers plus a
modulus come from `RingSpec.power_plus`: J^n + M is generated by the basis
of J^(n-1) + M times the generators of J, reduced modulo M, plus M.  That is
the same ideal as J^n + M from all n-fold products (M*J lies in M), so its
reduced basis, and every report read from it, is the same, from a much
smaller Buchberger input.  Ideal handles use grevlex; only elimination runs
Buchberger under a block order.  Every run is over Q: a basis over Q(u) is
a block-order basis made reduced over Q(u) (`_reduce_basis`).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
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
    qdiv,
    rational_content,
)


class NotZeroDimensionalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# core algorithms


def _monic(f: Poly, order: MonomialOrder) -> Poly:
    return _monic_and_lead(f, order)[0]


def _primitive(f: Poly) -> Poly:
    """f divided by its rational content: a unit multiple, so the same
    ideal, with integer coefficients that share no factor."""
    content = rational_content(f.terms.values())
    return f if content == 1 else f.divide_by(content)


def _monic_and_lead(f: Poly, order: MonomialOrder) -> tuple[Poly, tuple[Mono, object]]:
    m, c = f.leading(order)
    f = f if c == 1 else f.divide_by(c)
    return f, (m, f.terms[m])


def normal_form(f: Poly, basis: Sequence[Poly], order: MonomialOrder) -> Poly:
    """Full normal form of f modulo `basis` (need not be a Groebner basis,
    but NF(f) = 0 iff f is in the ideal only when it is)."""
    return _reduce(f, basis, [g.leading(order) for g in basis], order)


def _reduce(f: Poly, basis: Sequence[Poly], leads: Sequence[tuple[Mono, object]], order: MonomialOrder) -> Poly:
    """`normal_form` with the basis' leading terms already known."""
    if not basis:
        return f
    work = dict(f.terms)
    remainder: dict[Mono, object] = {}
    key = order.key
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for (lm, lc), g in zip(leads, basis):
            if mono_divides(lm, m):
                shift = mono_div(m, lm)
                factor = qdiv(c, lc)
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
            # sums of Fractions can be integral: keep the remainder's as ints
            remainder[m] = c.numerator if type(c) is Fraction and c.denominator == 1 else c
    return Poly(f.nvars, remainder)


def _s_polynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    """lcm/lt(f) * f - lcm/lt(g) * g, built in one dict; the leading terms,
    which cancel, are skipped."""
    fm, fc = f.leading(order)
    gm, gc = g.leading(order)
    lcm = mono_lcm(fm, gm)
    fshift, gshift = mono_div(lcm, fm), mono_div(lcm, gm)
    fa, ga = qdiv(1, fc), qdiv(1, gc)
    out = {mono_mul(t, fshift): c * fa for t, c in f.terms.items() if t != fm}
    for t, c in g.terms.items():
        if t == gm:
            continue
        m = mono_mul(t, gshift)
        s = out.get(m)
        s = -(c * ga) if s is None else s - c * ga
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return Poly(f.nvars, out)


def buchberger(gens: Iterable[Poly], order: MonomialOrder = GrevLex()) -> list[Poly]:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Zero generators are dropped; the zero ideal yields the empty basis.
    When every generator left is a single term, the ideal is monomial and
    its reduced basis is read off at once (`_monomial_basis`).  Otherwise
    the generators enter the basis in ascending lead order, each reduced
    by the basis so far, and then the pending pair of least (deg lcm, order
    key of lcm, i, j) is reduced until none is left.  Every element that
    enters, a generator or a nonzero remainder, goes through the
    Gebauer-Moeller update (`insert`), which keeps some of its pairs and
    deletes some pending ones, so no criterion is tested when a pair is
    popped.  The basis then left is reduced (`_reduce_basis`).
    """
    gens = [g for g in gens if g]
    if all(len(g.terms) == 1 for g in gens):
        return _monomial_basis(gens, order)
    key = order.key
    basis: list[Poly] = []
    lead_terms: list[tuple[Mono, object]] = []
    leads: list[Mono] = []
    # `pending` maps each live pair to its lcm; `queue` holds the pairs keyed
    # by (deg lcm, order key of lcm, i, j), and a pair that criterion B
    # deleted stays in the heap until it is popped and skipped
    pending: dict[tuple[int, int], Mono] = {}
    queue: list = []

    def insert(r: Poly) -> None:
        g, lead = _monic_and_lead(r, order)
        m, t = lead[0], len(basis)
        # criterion B: (i, j) goes when m divides its lcm and both lcms with
        # t differ from it, so the pairs (i, t) and (t, j) stand in for it
        for pair, lcm in list(pending.items()):
            if mono_divides(m, lcm) and mono_lcm(leads[pair[0]], m) != lcm and mono_lcm(leads[pair[1]], m) != lcm:
                del pending[pair]
        # criterion F: one pair per lcm, the least index; a group holding a
        # pair with coprime leads goes whole (product criterion)
        first: dict[Mono, int] = {}
        coprime: set[Mono] = set()
        for i, lead_i in enumerate(leads):
            lcm = mono_lcm(lead_i, m)
            first.setdefault(lcm, i)
            if lcm == mono_mul(lead_i, m):
                coprime.add(lcm)
        # criterion M: drop an lcm that another one properly divides; each
        # such divisor is a multiple of a minimal lcm of lower degree, so in
        # ascending degree the minimal lcms found so far are enough to test
        minimal: list[Mono] = []
        for lcm in sorted(first, key=mono_degree):
            if any(mono_divides(d, lcm) for d in minimal):
                continue
            minimal.append(lcm)
            if lcm not in coprime:
                i = first[lcm]
                pending[i, t] = lcm
                heapq.heappush(queue, (mono_degree(lcm), key(lcm), i, t))
        basis.append(g)
        lead_terms.append(lead)
        leads.append(m)

    for p in sorted(gens, key=lambda p: key(p.leading(order)[0])):
        r = _reduce(p, basis, lead_terms, order)
        if r:
            insert(r)
    while queue:
        _, _, i, j = heapq.heappop(queue)
        if pending.pop((i, j), None) is None:
            continue  # deleted by criterion B
        r = _reduce(_s_polynomial(basis[i], basis[j], order), basis, lead_terms, order)
        if r:
            insert(r)

    return _reduce_basis(basis, order, lead_terms)


def _monomial_basis(gens: list[Poly], order: MonomialOrder) -> list[Poly]:
    """The reduced basis of the ideal of the single-term `gens`: the
    distinct monomials that no other generator divides, ascending in
    `order`, each with the coefficient c/c of its first generator c*x^m, the
    one of c's field (a `RationalFunction` over Q(u), an int over Q).
    Every S-polynomial of two monomials is 0, so they are a Groebner basis
    already (Cox, Little and O'Shea, ch. 2, sections 4-7)."""
    first: dict[Mono, object] = {}
    for g in gens:
        ((m, c),) = g.terms.items()
        first.setdefault(m, c)
    minimal = [m for m in first if not any(d != m and mono_divides(d, m) for d in first)]
    return [Poly(gens[0].nvars, {m: qdiv(first[m], first[m])}) for m in sorted(minimal, key=order.key)]


def _reduce_basis(basis: list[Poly], order: MonomialOrder, lead_terms: list | None = None) -> list[Poly]:
    """The reduced basis of a Groebner basis, whose leading terms may be given."""
    if lead_terms is None:
        lead_terms = [g.leading(order) for g in basis]
    leads = [m for m, _ in lead_terms]
    # minimalize: drop elements whose lead is divisible by another lead
    keep = [i for i, m in enumerate(leads) if not any(mono_divides(d, m) and (d != m or j < i) for j, d in enumerate(leads))]
    # tail-reduce each against the others, which keeps its leading term
    reduced = {}
    for i in keep:
        others = [j for j in keep if j != i]
        reduced[i] = _monic(_reduce(basis[i], [basis[j] for j in others], [lead_terms[j] for j in others], order), order)
    return [reduced[i] for i in sorted(keep, key=lambda i: order.key(leads[i]))]


# ---------------------------------------------------------------------------
# ideal handles


class IdealHandle:
    """Generator list plus lazily computed, cached reduced Groebner bases
    (grevlex, any other order asked for once, and over F = Q(u) for
    `noetherian`) and the normal forms of the monomials reduced so far.

    Modulo a monomial basis NF(x^m) is 0 or x^m, and NF(f) keeps the terms
    of f whose form is x^m, with no product and no reduction.  Otherwise
    NF(x^m) comes from the normal form of one divisor: with x_j the first
    variable of x^m, NF(x^m) is 0 when NF(x^m / x_j) is, and otherwise the
    reduction of x_j * NF(x^m / x_j), a few standard terms.  NF(f) is then
    the sum of c * NF(x^m) over the terms of f.  The basis is fixed and
    normal forms are unique, so this is the same polynomial a reduction of
    f gives (Faugere, Gianni, Lazard and Mora 1993)."""

    __slots__ = ("nvars", "gens", "_gb", "_leads", "_zero_form", "_bases", "_field_bases", "_forms", "_products")
    ORDER = GrevLex()

    def __init__(self, nvars: int, gens: Iterable[Poly]):
        self.nvars = nvars
        self.gens = tuple(g for g in gens if g)
        for g in self.gens:
            if g.nvars != nvars:
                raise ValueError("generator has wrong number of variables")
        self._gb: list[Poly] | None = None
        self._leads: list[tuple[Mono, object]] = []
        self._zero_form: Poly | None = None  # shared by the forms, when the basis is monomial
        self._bases: dict[MonomialOrder, list[Poly]] = {}
        self._field_bases: dict[tuple, list[Poly]] = {}  # by (dependent, independent) variables
        self._forms: dict[Mono, Poly] = {}
        self._products: list[list[tuple[int, Poly]]] = []  # `ideal_power`'s levels

    @property
    def gb(self) -> list[Poly]:
        if self._gb is None:
            self._gb = self.basis(self.ORDER)
            self._leads = [g.leading(self.ORDER) for g in self._gb]
            if all(len(g.terms) == 1 for g in self._gb):
                self._zero_form = Poly.zero(self.nvars)
        return self._gb

    def basis(self, order: MonomialOrder) -> list[Poly]:
        """The reduced Groebner basis under `order`, computed once per order;
        the zero ideal's is empty under every order, with no Buchberger run."""
        gb = self._bases.get(order)
        if gb is None:
            gb = self._bases[order] = buchberger(self.gens, order) if self.gens else []
        return gb

    def normal_form(self, f: Poly) -> Poly:
        if not self.gb:
            return f
        out: dict[Mono, object] = {}
        if self._zero_form is not None:
            # NF(x^m) is 0 or x^m: keep the terms whose form is x^m
            for m, c in f.terms.items():
                if self.monomial_form(m):
                    out[m] = c
            return Poly(f.nvars, out)
        for m, c in f.terms.items():
            for t, d in self.monomial_form(m).terms.items():
                s = out.get(t)
                out[t] = c * d if s is None else s + c * d
        return Poly(f.nvars, out)

    def monomial_form(self, m: Mono) -> Poly:
        """NF(x^m), memoised: by divisibility modulo a monomial basis, else
        walking down x^m, x^m / x_j, ... to the nearest divisor already
        known (or 1) in a loop, then reducing back up, one `_reduce` each."""
        forms = self._forms
        form = forms.get(m)
        if form is not None:
            return form
        gb, leads = self.gb, self._leads
        if self._zero_form is not None:
            divisible = any(mono_divides(lead, m) for lead, _ in leads)
            form = forms[m] = self._zero_form if divisible else Poly.monomial(self.nvars, m)
            return form
        chain = []
        while form is None and any(m):
            j = next(i for i, e in enumerate(m) if e)
            chain.append((m, j))
            m = m[:j] + (m[j] - 1,) + m[j + 1 :]
            form = forms.get(m)
        if form is None:  # walked down to 1
            form = forms[m] = _reduce(Poly.one(self.nvars), gb, leads, self.ORDER)
        for m, j in reversed(chain):
            if form:
                shifted = {t[:j] + (t[j] + 1,) + t[j + 1 :]: c for t, c in form.terms.items()}
                form = _reduce(Poly(self.nvars, shifted), gb, leads, self.ORDER)
            forms[m] = form
        return form

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
    """I^n, generated by the n-fold products of generators, each divided by
    its rational content (`_primitive`), in the order of
    `combinations_with_replacement`, each its (n-1)-fold prefix times one
    generator, repeats dropped; I^0 = (1).  The handle keeps the levels of
    products built so far, so I^n grows from the highest one kept."""
    if n < 0:
        raise ValueError("negative ideal power")
    if n == 0:
        return IdealHandle(I.nvars, [Poly.one(I.nvars)])
    levels = I._products  # level k: (index of the last factor, product) of the (k+1)-fold products
    if not levels:
        levels.append(list(enumerate(map(_primitive, I.gens))))
    gens = [g for _, g in levels[0]]
    while len(levels) < n:
        levels.append([(j, p * g) for i, p in levels[-1] for j, g in enumerate(gens[i:], i)])
    return IdealHandle(I.nvars, dict.fromkeys(p for _, p in levels[n - 1]))


def is_subideal(I: IdealHandle, J: IdealHandle) -> bool:
    """I is contained in J (every generator of I is one of J's or reduces
    to zero mod J)."""
    listed = set(J.gens)
    return all(g in listed or J.contains(g) for g in I.gens)


def ideal_equal(I: IdealHandle, J: IdealHandle) -> bool:
    return is_subideal(I, J) and is_subideal(J, I)


def eliminate(I: IdealHandle, drop: Iterable[int]) -> IdealHandle:
    """Generators of I intersected with the subring omitting the `drop`
    variables; exponents stay in the full ambient ring."""
    drop = tuple(sorted(set(drop)))
    if not drop:
        return I
    gb = I.basis(Block(drop))
    dropped = set(drop)
    kept = [g for g in gb if not (g.variables_used() & dropped)]
    return IdealHandle(I.nvars, kept)


def _eliminate_fresh(gens: list[Poly], n: int) -> IdealHandle:
    """The ideal of `gens`, over n variables and a fresh last one t, meet the
    subring without t, restricted back to the n variables."""
    elim = eliminate(IdealHandle(n + 1, gens), [n])
    return IdealHandle(n, [p.restrict(range(n)) for p in elim.gens])


def saturate(I: IdealHandle, g: Poly) -> IdealHandle:
    """I : g^infinity via a fresh variable t and elimination of t from
    I + (1 - t*g)."""
    if not g:
        raise ValueError("saturation by the zero polynomial")
    if g.degree() == 0:
        return I  # a unit: nothing to saturate
    n = I.nvars
    t = Poly.variable(n + 1, n)
    gens = [p.extend(1) for p in I.gens] + [Poly.one(n + 1) - t * g.extend(1)]
    return _eliminate_fresh(gens, n)


def ideal_intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I intersect J via t*I + (1-t)*J and elimination of t."""
    n = I.nvars
    t = Poly.variable(n + 1, n)
    one_minus_t = Poly.one(n + 1) - t
    gens = [t * p.extend(1) for p in I.gens]
    gens += [one_minus_t * p.extend(1) for p in J.gens]
    return _eliminate_fresh(gens, n)


def standard_monomials(Q: IdealHandle) -> list[Mono]:
    """Monomials outside the leading-term ideal of Q, ascending in the active
    order.  Requires Q zero-dimensional (a pure power of every variable among
    the leading terms)."""
    return _standard_monomials_from_gb([g.leading(Q.ORDER)[0] for g in Q.gb], Q.nvars)


def krull_dimension(Q: IdealHandle) -> int:
    """dim P/Q: the size of a largest set of variables containing the
    variables of no leading monomial of Q's grevlex basis (Cox, Little and
    O'Shea, ch. 9); -1 for the unit ideal."""
    supports = [{i for i, e in enumerate(g.leading(Q.ORDER)[0]) if e} for g in Q.gb]
    sets = (set(u) for k in range(Q.nvars, -1, -1) for u in itertools.combinations(range(Q.nvars), k))
    return next((len(u) for u in sets if not any(s <= u for s in supports)), -1)


def _standard_monomials_from_gb(leads: list[Mono], nvars: int) -> list[Mono]:
    """The monomials divisible by none of `leads`, the lead monomials of a
    Groebner basis, ascending in grevlex."""
    if any(not any(m) for m in leads):
        return []  # unit ideal
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
    out.sort(key=GrevLex().key)
    return out


# ---------------------------------------------------------------------------
# ring presentation


@dataclass
class RingSpec:
    """Ambient variables and the defining data of R = P/N.

    `rad` is the user-supplied radical of N (so R_red = P/rad) and
    `minimal_primes` the user-asserted associated primes of R.  Construction
    checks that N is not the unit ideal (R is not the zero ring), N inside
    rad, rad inside the radical of N (each generator nilpotent modulo N),
    that no claimed minimal prime contains another, and that rad equals the
    intersection of the claimed minimal primes when they are given; that
    rad is itself radical, and the primality of the primes, are taken on
    trust.

    The ring keeps one handle per generator tuple (`ideal`), so an ideal that
    several steps of a search test against has its basis computed once, and
    one handle per power plus modulus (`power_plus`).
    """

    var_names: tuple[str, ...]
    N: IdealHandle
    rad: IdealHandle
    minimal_primes: tuple[IdealHandle, ...] = ()
    _handles: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.var_names = tuple(self.var_names)
        self.minimal_primes = tuple(self.minimal_primes)
        names = self.var_names
        if self.N.contains_one():
            raise ValueError("defining ideal is the unit ideal (R is the zero ring)")
        for g in self.N.gens:
            if not self.rad.contains(g):
                raise ValueError(f"defining ideal not inside the claimed radical: {g.format(names)}")
        for g in self.rad.gens:
            # Rabinowitsch: g lies in the radical of N iff N : g^infinity = (1)
            if not saturate(self.N, g).contains_one():
                raise ValueError(f"radical generator not nilpotent modulo the defining ideal: {g.format(names)}")
        for p, q in itertools.permutations(self.minimal_primes, 2):
            if is_subideal(p, q):
                inner, outer = ("(" + "; ".join(g.format(names) for g in I.gens) + ")" for I in (p, q))
                raise ValueError(f"claimed minimal prime {outer} contains the claimed minimal prime {inner}")
        if self.minimal_primes:
            if not ideal_equal(functools.reduce(ideal_intersect, self.minimal_primes), self.rad):
                raise ValueError("claimed radical differs from the intersection of the minimal primes")
        for handle in (self.rad, self.N):
            self._handles.setdefault(handle.gens, handle)

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def parse(self, text: str) -> Poly:
        return parse_polynomial(text, self.var_names)

    def ideal(self, gens: Iterable[Poly]) -> IdealHandle:
        """The ring's handle for this generator tuple (zeros and repeats
        dropped, so adjoining N or rad twice gives the same handle)."""
        handle = IdealHandle(self.nvars, dict.fromkeys(gens))
        return self._handles.setdefault(handle.gens, handle)

    def plus_N(self, J: IdealHandle) -> IdealHandle:
        """J + N: membership in J as an ideal of R."""
        return self.ideal(J.gens + self.N.gens)

    def plus_rad(self, J: IdealHandle) -> IdealHandle:
        """J + rad: membership in the image of J in R_red."""
        return self.ideal(J.gens + self.rad.gens)

    def power_plus(self, J: IdealHandle, n: int, M: IdealHandle) -> IdealHandle:
        """J^n + M, M being N or rad; J^0 = (1).

        J^1 + M is `plus_N` / `plus_rad`; for n >= 2 the generators are
        NF_M(g * h), g in the basis of J^(n-1) + M and h a generator of J
        divided by its rational content (`_primitive`), followed by those of
        M.  The ideals agree because M*J lies in M, and the products of a
        reduced basis are far fewer and smaller than the n-fold products of
        J's generators.
        """
        if n < 0:
            raise ValueError("negative ideal power")
        key = (J.gens, n, M.gens)
        handle = self._powers.get(key)
        if handle is None:
            if n == 0:
                handle = self.ideal([Poly.one(self.nvars)])
            elif n == 1:
                handle = self.ideal(J.gens + M.gens)
            else:
                below = self.power_plus(J, n - 1, M).gb
                gens = [_primitive(h) for h in J.gens]
                products = [M.normal_form(g * h) for g in below for h in gens]
                # monic, so that powers of ideals equal up to scaling share handles
                monic = [_monic(p, IdealHandle.ORDER) for p in products if p]
                handle = self.ideal(monic + list(M.gens))
            self._powers[key] = handle
        return handle

    def image_in_reduced(self, J: IdealHandle) -> IdealHandle:
        """Generators of J reduced mod rad, made monic: the image ideal in
        R_red, one handle for images equal up to scaling."""
        images = (self.rad.normal_form(g) for g in J.gens)
        return self.ideal([_monic(f, IdealHandle.ORDER) for f in images if f])

    def format(self, f: Poly) -> str:
        return f.format(self.var_names)
