"""Reference implementations the tests compare the package against."""

import contextlib
import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

from noethops import cli, groebner, linalg, noetherian, poly
from noethops.closures import _monomial_exponents
from noethops.diffops import DiffOp, OperatorSet, TruncatedSubspace, first_not_killed
from noethops.groebner import IdealHandle, NotZeroDimensionalError, ideal_power, saturate, standard_monomials
from noethops.noetherian import NoetherianCertificate
from noethops.poly import (
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
    mono_unit,
    mono_zero,
    monomials_up_to,
)


def monomial_closure_bruteforce_oracle(I: IdealHandle, candidate: Mono, k_max: int) -> bool:
    """Valuation-criterion oracle: x^a is integral over I iff x^(k*a) lies in
    I^k for some k <= k_max.  Test use only, independent of the polyhedron."""
    exps = _monomial_exponents(I)
    for k in range(1, k_max + 1):
        target = tuple(k * a for a in candidate)
        for combo in itertools.combinations_with_replacement(exps, k):
            total = [0] * len(candidate)
            for e in combo:
                for i, x in enumerate(e):
                    total[i] += x
            if mono_divides(tuple(total), target):
                return True
    return False


def dilation_member_lp(points: list[tuple[int, ...]], e: tuple[int, ...], m: int) -> bool:
    """Is e in the m-fold dilation of conv(points) + the orthant?  That is
    e >= sum mu_a * a with mu >= 0 and sum mu = m, which holds iff the
    linear program max sum lambda subject to sum lambda_a * a <= e,
    lambda >= 0 reaches m (scale lambda down: the points are >= 0).

    An exact tableau simplex, independent of the facets: the origin is
    feasible since e >= 0, so the slacks start as the basis, and Bland's
    rule (least entering index, ties in the ratio test by least basic
    index) cannot cycle.  A zero point makes the program unbounded.
    """
    if any(x < 0 for x in e):
        return False
    n, d = len(points), len(e)
    width = n + d
    rows = [
        [Fraction(a[i]) for a in points] + [Fraction(int(i == k)) for k in range(d)] + [Fraction(e[i])]
        for i in range(d)
    ]
    basis = [n + i for i in range(d)]
    cost = [Fraction(1)] * n + [Fraction(0)] * d
    while True:
        reduced = [cost[j] - sum(cost[basis[i]] * rows[i][j] for i in range(d)) for j in range(width)]
        entering = next((j for j in range(width) if reduced[j] > 0), None)
        if entering is None:
            return sum(cost[basis[i]] * rows[i][-1] for i in range(d)) >= m
        ratios = [(rows[i][-1] / rows[i][entering], basis[i], i) for i in range(d) if rows[i][entering] > 0]
        if not ratios:
            return True
        r = min(ratios)[2]
        pivot = rows[r][entering]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(d):
            if i != r and rows[i][entering]:
                factor = rows[i][entering]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        basis[r] = entering


# ---------------------------------------------------------------------------
# operator application as a sum of derivative polynomials: the formula the
# closed form of `DiffOp.apply` replaced, kept as its reference, and the
# bracket built from the same derivatives


def derivative(f: Poly, alpha: Mono) -> Poly:
    """The iterated partial derivative d^alpha f (no factorial
    normalization), term by term: d^alpha x^m = m!/(m - alpha)! x^(m - alpha)."""
    out = {}
    for m, c in f.terms.items():
        if not mono_divides(alpha, m):
            continue
        factor = 1
        for e, a in zip(m, alpha):
            factor *= math.perm(e, a)
        out[mono_div(m, alpha)] = c * factor
    return Poly(f.nvars, out)


def apply_by_derivatives(op: DiffOp, f: Poly) -> Poly:
    """sum over alpha of coeff_alpha * d^alpha(f), each derivative built by
    `derivative`."""
    out = Poly.zero(op.nvars)
    for alpha, coeff in op.terms.items():
        out = out + coeff * derivative(f, alpha)
    return out


def bracket_by_leibniz(op: DiffOp, f: Poly) -> DiffOp:
    """[op, f] as the Leibniz sum: coeff_alpha * C(alpha, gamma) *
    d^gamma(f) * d^(alpha - gamma) over every alpha of op and 0 < gamma <=
    alpha, each derivative built by `derivative`."""
    terms = []
    for alpha, coeff in op.terms.items():
        for gamma in itertools.product(*[range(a + 1) for a in alpha]):
            if any(gamma):
                binom = math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))
                terms.append((mono_div(alpha, gamma), coeff * (binom * derivative(f, gamma))))
    return DiffOp(op.nvars, terms)


# ---------------------------------------------------------------------------
# symbolic powers from the n-fold products: the slow path of the symbolic
# schedule of `closures.power_schedule`, which saturates the ring's powers


def symbolic_power(p: IdealHandle, n: int, witness: Poly) -> IdealHandle:
    """p^(n) computed as p^n : witness^infinity, p^n from its n-fold products;
    correct when the witness avoids p but lies in every embedded component
    of p^n (user-asserted)."""
    if not witness:
        raise ValueError("zero saturation witness")
    if p.contains(witness):
        raise ValueError("saturation witness lies in the prime")
    return saturate(ideal_power(p, n), witness)


# ---------------------------------------------------------------------------
# Buchberger with the pair picked by a scan, after interreducing its input to
# a fixed point, and with the product and chain criteria tested when a pair
# is picked: the loop the heap pair queue and the Gebauer-Moeller update
# replaced, kept as the reference they are tested against.  It reads
# `groebner._s_polynomial` through the module, so a test can record the
# pairs it reduces.


def interreduce(polys: list[Poly], order: MonomialOrder) -> list[Poly]:
    """Reduce each polynomial by the monic remainders before it, until a
    round changes nothing."""
    current = [p for p in polys if p]
    while True:
        nxt = []
        for p in current:
            r = groebner.normal_form(p, nxt, order)
            if r:
                nxt.append(groebner._monic(r, order))
        if nxt == current:
            return nxt
        current = nxt


def chain_criterion(i: int, j: int, lcm: Mono, leads: list[Mono], pairs: set) -> bool:
    """Some k, with leads[k] dividing lcm and neither (i, k) nor (j, k)
    pending, whose lcms with i and j both differ from lcm."""
    for k in range(len(leads)):
        if k in (i, j) or not mono_divides(leads[k], lcm):
            continue
        if (min(i, k), max(i, k)) in pairs or (min(j, k), max(j, k)) in pairs:
            continue
        if mono_lcm(leads[i], leads[k]) == lcm or mono_lcm(leads[j], leads[k]) == lcm:
            continue  # guard against circular skips among equal lcms
        return True
    return False


def scan_buchberger(gens, order: MonomialOrder = GrevLex()) -> list[Poly]:
    """Reduced Groebner basis, each step reducing the pending pair of least
    (deg lcm, order key of lcm, i, j), found by a scan of every pair."""
    basis = interreduce(list(gens), order)
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
        if chain_criterion(i, j, lcm, leads, pairs):
            continue
        s = groebner._s_polynomial(basis[i], basis[j], order)
        r = groebner.normal_form(s, basis, order)
        if not r:
            continue
        basis.append(groebner._monic(r, order))
        leads.append(basis[-1].leading(order)[0])
        k = len(basis) - 1
        pairs.update((i2, k) for i2 in range(k))

    return groebner._reduce_basis(basis, order)


# ---------------------------------------------------------------------------
# dense row reduction: the list-of-lists elimination the sparse `linalg`
# replaced, kept as the reference it is tested against


def dense_rref(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination on full rows,
    pivoting on the first nonzero column; returns (nonzero rows, pivots)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def dense_kernel_basis(rows: list[list], ncols: int, one=Fraction(1), zero=Fraction(0)) -> list[list]:
    """One kernel vector per free column, in column order: `one` at the free
    column and the negated pivot-row entries at the pivot columns."""
    reduced, pivots = dense_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for col in range(ncols):
        if col in pivot_set:
            continue
        v = [zero] * ncols
        v[col] = one
        for r, pc in enumerate(pivots):
            if reduced[r][col]:
                v[pc] = -reduced[r][col]
        basis.append(v)
    return basis


def dense_in_row_space(reduced: list[list], pivots: list[int], v: list) -> bool:
    out = list(v)
    for row, pc in zip(reduced, pivots):
        if out[pc]:
            factor = out[pc]
            out = [x - factor * y for x, y in zip(out, row)]
    return not any(out)


# ---------------------------------------------------------------------------
# exact certification at a rational point over Q: the evaluation-functional
# path the one certifier over F = Q(u) replaced, kept as its reference


def _evaluation_point(modulus: IdealHandle) -> list[Fraction] | None:
    """Coordinates when the modulus is the maximal ideal of a rational point."""
    gb = modulus.gb
    if len(gb) != modulus.nvars:
        return None
    point: dict[int, Fraction] = {}
    zero = mono_zero(modulus.nvars)
    for g in gb:
        lead, lc = g.leading(modulus.ORDER)
        if mono_degree(lead) != 1 or lc != 1:
            return None
        slot = next(i for i, e in enumerate(lead) if e)
        for m in g.terms:
            if m != lead and m != zero:
                return None
        if slot in point:
            return None
        point[slot] = -g.terms.get(zero, Fraction(0))
    if sorted(point) != list(range(modulus.nvars)):
        return None
    return [point[i] for i in range(modulus.nvars)]


def point_exact_oracle(a: IdealHandle, ops: OperatorSet) -> bool:
    """True when `ops` provably describes `a` at a rational point: every op
    kills x^beta * g for each generator g and |beta| <= order(op), and the
    values at the point, read as constant terms of normal forms by the
    maximal ideal, have rank colength(a) over Q."""
    modulus, nvars = ops.modulus, a.nvars
    for op in ops:
        for g in a.gens:
            for beta in monomials_up_to(nvars, op.order):
                if modulus.normal_form(op.apply(Poly.monomial(nvars, beta) * g)):
                    return False
    if _evaluation_point(modulus) is None:
        return False
    try:
        colength = len(standard_monomials(a))
    except NotZeroDimensionalError:
        return False
    betas = monomials_up_to(nvars, ops.max_order)
    rows = []
    for op in ops:
        values = (modulus.normal_form(op.apply(Poly.monomial(nvars, b))).constant_term() for b in betas)
        rows.append({j: c for j, c in enumerate(values) if c})
    return rank(rows, len(betas)) == colength


# ---------------------------------------------------------------------------
# the kill-check certifier: Noetherian-operator verification as it ran before
# the bracket-closure shortcut, kept as its reference.  Every operator is
# applied to x^beta * g for each generator g and |beta| up to its order, and
# the exact count is the rank of the values op(x^beta) at the point.


def kill_check_certifier(a: IdealHandle, ops: OperatorSet, D: int) -> NoetherianCertificate:
    """The certificate of `verify_noetherian_ops`, from `first_not_killed`,
    then the rank of the value rows at the rational point of the modulus
    over F = Q(u), then the truncated kernel at D, whose witness is the
    first element of its row-reduced basis outside a, as for the colons."""
    if any(g.degree() > D for g in a.gens):
        raise ValueError("degree bound is below the ideal's generator degrees")
    witness = first_not_killed(ops, a.gens)
    if witness is not None:
        return NoetherianCertificate("refuted", D, ops, witness=witness, witness_side="in_ideal_not_killed")
    if _value_rank_is_colength(a, ops):
        return NoetherianCertificate("exact", D, ops)
    monos, rows = colon_equation_rows(ops, ops.modulus, D)
    reduced, _ = linalg.rref(linalg.kernel_basis(rows, len(monos)), len(monos))
    for f in kernel_polynomials(monos, reduced, a.nvars):
        if a.normal_form(f):
            return NoetherianCertificate("refuted", D, ops, witness=f, witness_side="killed_not_in_ideal")
    return NoetherianCertificate("verified_up_to_degree", D, ops)


def _value_rank_is_colength(a: IdealHandle, ops: OperatorSet) -> bool:
    indep = ops.component.independent if ops.component is not None else ()
    dep = tuple(i for i in range(a.nvars) if i not in indep)
    try:
        point = noetherian._rational_point_of_prime(ops.modulus, dep, indep)
        leads = [g.leading(GrevLex())[0] for g in field_basis_by_buchberger(a, dep, indep)]
        colength = len(groebner._standard_monomials_from_gb(leads, len(dep)))
    except (noetherian.NonRationalPointError, NotZeroDimensionalError):
        return False
    if not noetherian._is_contracted(a, dep, indep):
        return False
    betas = monomials_up_to(len(dep), ops.max_order)
    rows = []
    for op in ops:
        row = {}
        for j, beta in enumerate(betas):
            full = [0] * a.nvars
            for pos, e in zip(dep, beta):
                full[pos] = e
            value = op.apply(Poly.monomial(a.nvars, tuple(full)))
            value = noetherian._to_field_poly(value, dep, indep).evaluate(point)
            if value:
                row[j] = value
        rows.append(row)
    return rank(rows, len(betas)) == colength


# ---------------------------------------------------------------------------
# the basis over F = Q(u) by a Buchberger run over F: what reading it off the
# handle's block-order basis (`noetherian._basis_over_field`) replaced


def field_basis_by_buchberger(I: IdealHandle, dep: tuple[int, ...], indep: tuple[int, ...]) -> list[Poly]:
    """The reduced grevlex basis of I*F[x_dep], from I's generators
    rewritten over F and a Buchberger run with coefficients in F."""
    return groebner.buchberger([noetherian._to_field_poly(g, dep, indep) for g in I.gens], GrevLex())


# ---------------------------------------------------------------------------
# contraction from F = Q(u) by one saturation: the product test that one
# saturation per distinct leading coefficient (`noetherian._is_contracted`)
# replaced, kept as its reference


def is_contracted_by_product(Q: IdealHandle, dep: tuple[int, ...], indep: tuple[int, ...]) -> bool:
    """Q equals Q : h^infinity, h the product of the distinct leading
    coefficients in Q[u] of Q's block-order basis eliminating the dependent
    variables (Gianni, Trager and Zacharias 1988)."""
    if not indep:
        return True
    order = Block(dep)
    coeffs = set()
    for g in Q.basis(order):
        top = [g.leading(order)[0][i] for i in dep]
        coeffs.add(Poly(Q.nvars, {
            tuple(0 if i in dep else e for i, e in enumerate(m)): c
            for m, c in g.terms.items()
            if [m[i] for i in dep] == top
        }))
    h = functools.reduce(lambda a, b: a * b, coeffs, Poly.one(Q.nvars))
    return h.degree() == 0 or groebner.is_subideal(saturate(Q, h), Q)


# ---------------------------------------------------------------------------
# the truncated dual space: the per-degree truncation matrices the walk over
# normal forms (`noetherian._dual_vectors`) replaced, kept as its reference


def truncation_dual_vectors(gens_f: list[Poly], point: list, colength: int, one) -> tuple[list[Mono], list[dict]]:
    """(monos, vectors) of the Macaulay dual space at `point` of the ideal of
    `gens_f` over F, `one` being F's unit.  The generators are shifted to the
    origin; for t = 0, 1, ... the stack of rows x^beta * g (coefficients on
    the monomials of degree <= t) is built and row-reduced afresh, until its
    kernel has the colength's dimension.  Each kernel vector has `one` at
    its free column."""
    ndep = len(point)
    values = {j: Poly(ndep, {mono_unit(ndep, j): one, mono_zero(ndep): r}) for j, r in enumerate(point)}
    shifted_gens = [substitute(g, values) for g in gens_f]
    max_degree = max((g.degree() for g in shifted_gens), default=0)
    for t in range(colength + max_degree + 2):
        monos = monomials_up_to(ndep, t)
        index = {m: j for j, m in enumerate(monos)}
        rows = []
        for g in shifted_gens:
            for beta in monos:
                shifted = g.scale_term(beta, one)
                row = {index[m]: c for m, c in shifted.terms.items() if m in index and c}
                if row:
                    rows.append(row)
        vectors = [{**v, max(v): one} for v in linalg.kernel_basis(rows, len(monos))]
        if len(vectors) == colength:
            return monos, vectors
    raise AssertionError("dual space truncation failed to stabilize at the colength")


# ---------------------------------------------------------------------------
# the truncated colon as a row-reduced basis: the construction that deciding
# containment on the colon's equations replaced, kept as its reference


def kernel_polynomials(monos: list[Mono], vectors: list[dict], nvars: int) -> list[Poly]:
    """The polynomials of sparse vectors over `monos`, terms in ascending
    column order."""
    return [Poly(nvars, {monos[j]: c for j, c in sorted(v.items())}) for v in vectors]


def colon_equation_rows(ops: OperatorSet, cond: IdealHandle, D: int) -> tuple[list[Mono], list[dict]]:
    """The monomials of degree <= D, ascending, and the rows of the matrix
    whose kernel is the colon: one per (operator, monomial t), entry j the
    coefficient of x^t in NF(NF(op(x^(m_j)), modulus), cond), every operator
    applied afresh and read modulo the set's modulus first."""
    nvars = cond.nvars
    monos = monomials_up_to(nvars, D)
    rows: dict[tuple[int, Mono], dict] = {}
    for j, m in enumerate(monos):
        for i, op in enumerate(ops):
            value = ops.modulus.normal_form(op.apply(Poly.monomial(nvars, m)))
            for t, c in cond.normal_form(value).terms.items():
                rows.setdefault((i, t), {})[j] = c
    return monos, list(rows.values())


def colon_oracle(ops: OperatorSet, cond: IdealHandle, D: int, target: IdealHandle) -> tuple[list[Poly], Poly | None]:
    """The colon's basis, rref(kernel_basis(rows)), and the first basis
    element outside `target` by a full reduction of its basis (None when
    every one lies inside, so the colon is contained)."""
    monos, rows = colon_equation_rows(ops, cond, D)
    ncols = len(monos)
    reduced, _ = linalg.rref(linalg.kernel_basis(rows, ncols), ncols)
    basis = kernel_polynomials(monos, reduced, cond.nvars)
    witness = next((f for f in basis if groebner.normal_form(f, target.gb, target.ORDER)), None)
    return basis, witness


# ---------------------------------------------------------------------------
# the full normalization of a rational function: what every value of
# `poly.RationalFunction` ran before the fast paths that skip parts of it


def rational_function_fully_normalized(num: Poly, den: Poly | None = None) -> tuple[Poly, Poly]:
    """(num, den) after the gcd probe, the content and the sign, each run
    whatever the input: the gcd is cancelled when den is univariate and num
    is univariate in the same variable or constant, then both parts are
    divided by den's content signed like den's grevlex lead."""
    if den is None:
        den = Poly.one(num.nvars)
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return num, Poly.one(num.nvars)
    slot = poly._univariate_slot(den)
    if slot is not None and slot >= 0 and poly._univariate_slot(num) in (slot, -1):
        g = poly._poly_gcd_univariate(num, den, slot)
        if g.degree() > 0:
            num = poly._poly_div_exact(num, g)
            den = poly._poly_div_exact(den, g)
    c = poly.rational_content(den.terms.values())
    if den.leading(GrevLex())[1] < 0:
        c = -c
    inv = Fraction(1) / c
    return num * inv, den * inv


# ---------------------------------------------------------------------------
# the inner-loop definitions that the map-based monomial kernels, the prefix
# products of `groebner.ideal_power` and the exponent shift of
# `diffops.first_not_killed` replaced


def mono_mul_by_zip(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides_by_zip(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div_by_zip(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm_by_zip(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key_by_generator(m: Mono):
    return (sum(m), tuple(-e for e in reversed(m)))


def block_key_by_generator(eliminated: tuple[int, ...], m: Mono):
    elim = [m[i] for i in eliminated]
    dropped = set(eliminated)
    keep = [e for i, e in enumerate(m) if i not in dropped]
    return (sum(elim), tuple(-e for e in reversed(elim)), sum(keep), tuple(-e for e in reversed(keep)))


def ideal_power_by_reduce(I: IdealHandle, n: int) -> IdealHandle:
    """I^n from every n-fold product of I's generators, each divided by its
    rational content, folded from scratch, in the order of
    `combinations_with_replacement`, repeats dropped; I^0 = (1)."""
    if n == 0:
        return IdealHandle(I.nvars, [Poly.one(I.nvars)])
    # by the content's definition, each quotient is an integer
    contents = [poly.rational_content(g.terms.values()) for g in I.gens]
    primitive = [Poly(g.nvars, {m: int(Fraction(x) / c) for m, x in g.terms.items()}) for g, c in zip(I.gens, contents)]
    gens = []
    seen = set()
    for combo in itertools.combinations_with_replacement(primitive, n):
        p = functools.reduce(Poly.__mul__, combo)
        key = frozenset(p.terms.items())
        if p and key not in seen:
            seen.add(key)
            gens.append(p)
    return IdealHandle(I.nvars, gens)


def first_not_killed_by_scaling(ops: OperatorSet, gens, target: IdealHandle | None = None) -> Poly | None:
    """`diffops.first_not_killed` with each h = x^beta * g built by scaling
    g by the coefficient 1 at x^beta, beta = 0 included."""
    ideal = ops.modulus if target is None else target
    for op in ops:
        for g in gens:
            for beta in monomials_up_to(g.nvars, op.order):
                h = g.scale_term(beta, 1)
                if ideal.normal_form(op.apply(h)):
                    return h
    return None


def monomial_form_by_chain_walk(I: IdealHandle, m: Mono, forms: dict) -> Poly:
    """`IdealHandle.monomial_form` by the chain walk, whatever the basis:
    down x^m, x^m / x_j, ... to a divisor already in `forms` (or 1), then
    one reduction per monomial back up, each memoised in `forms`."""
    form = forms.get(m)
    if form is not None:
        return form
    gb, order = I.gb, IdealHandle.ORDER
    leads = [g.leading(order) for g in gb]
    chain = []
    while form is None and any(m):
        j = next(i for i, e in enumerate(m) if e)
        chain.append((m, j))
        m = m[:j] + (m[j] - 1,) + m[j + 1 :]
        form = forms.get(m)
    if form is None:  # walked down to 1
        form = forms[m] = groebner._reduce(Poly.one(I.nvars), gb, leads, order)
    for m, j in reversed(chain):
        if form:
            shifted = {t[:j] + (t[j] + 1,) + t[j + 1 :]: c for t, c in form.terms.items()}
            form = groebner._reduce(Poly(I.nvars, shifted), gb, leads, order)
        forms[m] = form
    return form


# ---------------------------------------------------------------------------
# API only the tests use: constructors, membership tests and substitution,
# kept here so that the package ships only what it calls or exports


def identity_op(nvars: int) -> DiffOp:
    return DiffOp(nvars, {(0,) * nvars: Poly.one(nvars)})


def partial_op(nvars: int, alpha: Mono) -> DiffOp:
    return DiffOp(nvars, {tuple(alpha): Poly.one(nvars)})


def rank(rows: list[dict], ncols: int) -> int:
    return len(linalg.rref(rows, ncols)[1])


def subspace_from_polynomials(nvars: int, degree_bound: int, polys) -> TruncatedSubspace:
    """The span of `polys` as a `TruncatedSubspace`: its equations are the
    annihilator of the span, the kernel of the matrix with the polynomials
    as rows, in the echelon form `operator_kernel` keeps."""
    monos = monomials_up_to(nvars, degree_bound)
    index = {m: j for j, m in enumerate(monos)}
    if any(m not in index for p in polys for m in p.terms):
        raise ValueError("polynomial exceeds the degree bound")
    rows = [{index[m]: c for m, c in p.terms.items()} for p in polys]
    equations = linalg.kernel_basis(rows, len(monos))
    return TruncatedSubspace(nvars, degree_bound, monos, *linalg.rref(equations, len(monos), last_leading=True))


def contains_poly(S: TruncatedSubspace, f: Poly) -> bool:
    """f lies in S: it has no monomial beyond S's degree bound, and every
    equation vanishes on it."""
    index = {m: j for j, m in enumerate(S.monos)}
    if any(m not in index for m in f.terms):
        return False
    v = {index[m]: c for m, c in f.terms.items()}
    return not any(sum(x * v[col] for col, x in row.items() if col in v) for row in S.reduced)


def contains_subspace(S: TruncatedSubspace, T: TruncatedSubspace) -> bool:
    return all(contains_poly(S, f) for f in T.basis)


def substitute(f: Poly, values: dict):
    """Evaluate with variable i replaced by values[i]; missing variables
    are kept.  Returns a Poly, or a RationalFunction when any value is one."""
    for i in values:
        if not 0 <= i < f.nvars:
            raise ValueError(f"unassigned variable index {i}")
    rational = any(isinstance(v, poly.RationalFunction) for v in values.values())

    def lift(p):
        return poly.RationalFunction(p) if rational and isinstance(p, Poly) else p

    acc = None
    for m, c in f.terms.items():
        term = lift(Poly.constant(f.nvars, c))
        for i, e in enumerate(m):
            if e:
                base = values.get(i)
                base = lift(base) if base is not None else lift(Poly.variable(f.nvars, i))
                for _ in range(e):
                    term = term * base
        acc = term if acc is None else acc + term
    return Poly.zero(f.nvars) if acc is None else acc


def dense_rref_last_leading(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """The reduced echelon form pivoting on each row's last nonzero column,
    in ascending pivot order: `dense_rref` of the rows with their columns
    reversed, mapped back."""
    reduced, pivots = dense_rref([row[::-1] for row in rows], ncols)
    return [row[::-1] for row in reversed(reduced)], [ncols - 1 - pc for pc in reversed(pivots)]


# --- every coefficient a Fraction ----------------------------------------------


def _fraction_div(a, b):
    return (Fraction(a) if type(a) is int else a) / b


@contextlib.contextmanager
def fraction_coefficients():
    """Run the package as it ran before integral rationals were kept as
    ints: every coefficient a `Poly` is built with becomes a `Fraction`,
    coefficient division is the field's own `/` on a `Fraction` (never
    demoted to an int), and point coordinates are read as `Fraction`s.
    Build the inputs inside the block too."""
    init = poly.Poly.__init__

    def fraction_init(self, nvars, terms=None):
        init(self, nvars, terms and {m: Fraction(c) if type(c) is int else c for m, c in terms.items()})

    patches = [(poly.Poly, "__init__", fraction_init)]
    patches += [(module, "qdiv", _fraction_div) for module in (poly, groebner, linalg, noetherian)]
    patches += [(module, "rational", Fraction) for module in (poly, noetherian, cli)]
    with contextlib.ExitStack() as stack:
        for owner, name, value in patches:
            stack.enter_context(mock.patch.object(owner, name, value))
        yield
