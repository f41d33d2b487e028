"""Integral closures of monomial ideal powers via Newton polyhedra, and
`power_schedule`, the one factory whose schedules (n, c) -> condition ideal
feed plain, integrally closed or symbolic (saturated plain) powers into the
one minimal-shift search.

Integral closure is supported for monomial ideals only, in any number of
active variables; the facet enumeration is exact over the rationals.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import linalg
from .diffops import OperatorSet
from .groebner import IdealHandle, RingSpec, krull_dimension, saturate
from .poly import GrevLex, Mono, Poly, mono_degree, mono_embed
from .uniformity import ConstantReport, PowerSchedule, find_min_c


class NonMonomialIdealError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Newton polyhedra


def _dot(u: Sequence, v: Sequence) -> int | Fraction:
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(generator exponents) + the nonnegative orthant, as facet
    inequalities (normal, offset) with componentwise nonnegative normals.

    A lattice point e lies in the m-fold dilation iff n.e >= m*offset for
    every facet.
    """

    facets: tuple[tuple[tuple[int | Fraction, ...], int | Fraction], ...]

    @classmethod
    def of(cls, points: Sequence[tuple[int, ...]]) -> "NewtonPolyhedron":
        """Every facet's hyperplane passes through an exponent p and is
        spanned by dim - 1 directions among the q - p and the axes, so each
        such choice with a one-dimensional kernel gives a candidate normal:
        the canonical `kernel_basis` vector, which is 1 at its free column,
        so it is >= 0 exactly when the hyperplane has a normal >= 0, and
        equal hyperplanes give equal vectors.  A candidate every exponent
        satisfies holds on the whole polyhedron, so the kept candidates cut
        out exactly the polyhedron."""
        pts = tuple(dict.fromkeys(tuple(p) for p in points))
        if not pts:
            raise ValueError("empty generator set")
        dim = len(pts[0])
        axes = [{i: 1} for i in range(dim)]
        candidates: set[tuple[tuple[int | Fraction, ...], int | Fraction]] = set()
        for p in pts:
            directions = [{i: b - a for i, (a, b) in enumerate(zip(p, q))} for q in pts if q != p]
            for rows in itertools.combinations(directions + axes, dim - 1):
                kernel = linalg.kernel_basis(list(rows), dim)
                if len(kernel) != 1:
                    continue
                normal = tuple(kernel[0].get(i, 0) for i in range(dim))
                if min(normal) >= 0:
                    candidates.add((normal, _dot(normal, p)))
        valid = [(n, offset) for n, offset in sorted(candidates) if all(_dot(n, q) >= offset for q in pts)]
        return cls(tuple(valid))

    def contains(self, e: Sequence[int], dilation: int = 1) -> bool:
        if any(x < 0 for x in e):
            return False
        return all(_dot(normal, e) >= dilation * offset for normal, offset in self.facets)


def _monomial_exponents(I: IdealHandle) -> list[Mono]:
    exps = []
    for g in I.gens:
        if len(g.terms) != 1:
            raise NonMonomialIdealError("generator is not a monomial")
        exps.append(next(iter(g.terms)))
    if not exps:
        raise NonMonomialIdealError("zero ideal has no Newton polyhedron")
    return exps


def monomial_integral_closure(I: IdealHandle, m: int) -> IdealHandle:
    """Integral closure of I^m for a monomial ideal I: the monomial ideal of
    all lattice points in the m-fold dilation of the Newton polyhedron,
    returned through its minimal generators."""
    if m < 1:
        raise ValueError("power must be at least 1")
    exps = _monomial_exponents(I)
    nvars = I.nvars
    active = sorted({i for e in exps for i in range(nvars) if e[i]})
    if not active:  # the ideal generated by 1
        return IdealHandle(nvars, [Poly.one(nvars)])
    poly = NewtonPolyhedron.of([tuple(e[i] for i in active) for e in exps])
    box = itertools.product(*[range(m * max(e[i] for e in exps) + 1) for i in active])
    members = [mono_embed(combo, active, nvars) for combo in box if poly.contains(combo, m)]
    # members are upward closed within the box, so e is minimal exactly when
    # no e - e_i is a member
    inside = set(members)
    minimal = [e for e in members if not any(e[i] and e[:i] + (e[i] - 1,) + e[i + 1:] in inside for i in active)]
    minimal.sort(key=GrevLex().key)
    return IdealHandle(nvars, [Poly.monomial(nvars, e) for e in minimal])


# ---------------------------------------------------------------------------
# power schedules: every mode runs the one minimal-shift search, `find_min_c`,
# on the condition ideals its schedule gives for (n, c)

MODES = ("artin_rees", "briancon_skoda", "symbolic")


def power_schedule(mode: str, J: IdealHandle, ring: RingSpec, witness: Poly | None = None) -> tuple[PowerSchedule, dict]:
    """The schedule (n, c) -> P(n*step + c) + rad of `mode`, P(m) a power of
    the image I of J in R_red, and its extra report fields; the mode's inputs
    are checked here, once per ideal.  P(m) is memoised by m:

    - artin_rees: step 1, P(m) = I^m (differential Artin-Rees), by the ring;
    - briancon_skoda: step 1, P(m) the integral closure of I^m
      (Briancon-Skoda), for I monomial and rad generated by variables;
    - symbolic: step d, the Krull dimension of R_red (at least 1; its
      regularity is assumed), and P(m) = (I^m + rad) : witness^infinity, the
      symbolic power when the witness (default 1, outside I + rad) lies in
      every embedded component (assumed)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    I = ring.image_in_reduced(J)
    if mode == "artin_rees":
        return (lambda n, c: ring.power_plus(I, n + c, ring.rad)), {}
    if mode == "briancon_skoda":
        if any(len(g.terms) != 1 or mono_degree(next(iter(g.terms))) != 1 for g in ring.rad.gb):
            raise NonMonomialIdealError("radical is not generated by variables; reduced ring is not a polynomial ring here")
        for g in I.gens:
            if len(g.terms) != 1:
                raise NonMonomialIdealError(f"image of the ideal is not monomial: {ring.format(g)}")
        step, extras = 1, {"image_monomials": sorted(list(next(iter(g.terms))) for g in I.gens)}
        power = functools.cache(lambda m: ring.plus_rad(monomial_integral_closure(I, m)))
    else:
        step, extras = krull_dimension(ring.rad), {}
        if step < 1:
            raise ValueError(f"symbolic mode needs a reduced ring of dimension at least 1, not {step}")
        if not I.gens:
            raise ValueError("image of J in the reduced ring is zero")
        if witness is None:
            witness = Poly.one(ring.nvars)
        if ring.plus_rad(I).contains(witness):
            raise ValueError("saturation witness lies in the image prime")
        power = functools.cache(lambda m: saturate(ring.power_plus(I, m, ring.rad), witness))
    return (lambda n, c: power(n * step + c)), extras


def shift_search(
    mode: str,
    J: IdealHandle,
    ops: OperatorSet,
    ring: RingSpec,
    n_max: int,
    c_max: int,
    D: int,
    *,
    witness: Poly | None = None,
    ideal_name: str = "J",
) -> ConstantReport:
    """Minimal-shift search for J under `power_schedule(mode, ...)`, whose
    extra fields join the report."""
    schedule, extras = power_schedule(mode, J, ring, witness)
    report = find_min_c(J, ops, ring, n_max, c_max, D, schedule, ideal_name=ideal_name)
    return replace(report, extras=extras)
