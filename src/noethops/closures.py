"""Integral closures of monomial ideal powers via Newton polyhedra, symbolic
powers of primes via saturation, and the power schedules that feed plain,
integrally closed or symbolic powers into the one minimal-shift search.

Integral closure is supported for monomial ideals only, with at most three
active variables; the facet enumeration is exact over the rationals.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from typing import Callable, Sequence

from .diffops import OperatorSet
from .groebner import IdealHandle, RingSpec, ideal_power, saturate
from .poly import GrevLex, Mono, Poly, mono_degree, mono_divides
from .uniformity import ConstantReport, PowerSchedule, find_min_c, ordinary_powers


class NonMonomialIdealError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Newton polyhedra


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g else v


def _cross(u: tuple[int, int, int], v: tuple[int, int, int]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(generator exponents) + the nonnegative orthant, as facet
    inequalities (normal, offset) with componentwise nonnegative normals.

    A lattice point e lies in the m-fold dilation iff n.e >= m*offset for
    every facet.
    """

    points: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def of(cls, points: Sequence[tuple[int, ...]]) -> "NewtonPolyhedron":
        pts = tuple(dict.fromkeys(tuple(p) for p in points))
        if not pts:
            raise ValueError("empty generator set")
        dim = len(pts[0])
        if dim > 3:
            raise NonMonomialIdealError("Newton polyhedron facets supported in at most 3 active variables")
        candidates: set[tuple[tuple[int, ...], int]] = set()
        # axis facets
        for i in range(dim):
            normal = tuple(1 if j == i else 0 for j in range(dim))
            candidates.add((normal, min(p[i] for p in pts)))
        if dim == 1:
            pass
        elif dim == 2:
            for p, q in itertools.combinations(pts, 2):
                v = (q[0] - p[0], q[1] - p[1])
                for n in ((v[1], -v[0]), (-v[1], v[0])):
                    if n != (0, 0) and all(x >= 0 for x in n):
                        n = _primitive(n)
                        candidates.add((n, sum(a * b for a, b in zip(n, p))))
        else:
            rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
            spans = []
            for p, q in itertools.combinations(pts, 2):
                v = tuple(b - a for a, b in zip(p, q))
                for r in rays:
                    spans.append((p, v, r))
            for p, q, r in itertools.combinations(pts, 3):
                spans.append((p, tuple(b - a for a, b in zip(p, q)), tuple(b - a for a, b in zip(p, r))))
            for base, u, v in spans:
                n = _cross(u, v)  # type: ignore[arg-type]
                for cand in (n, tuple(-x for x in n)):
                    if any(cand) and all(x >= 0 for x in cand):
                        cand = _primitive(cand)
                        candidates.add((cand, sum(a * b for a, b in zip(cand, base))))
        valid = []
        for normal, offset in sorted(candidates):
            if all(sum(a * b for a, b in zip(normal, p)) >= offset for p in pts):
                valid.append((normal, offset))
        return cls(pts, tuple(valid))

    def contains(self, e: Sequence[int], dilation: int = 1) -> bool:
        if any(x < 0 for x in e):
            return False
        return all(
            sum(a * b for a, b in zip(normal, e)) >= dilation * offset for normal, offset in self.facets
        )


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
    poly = NewtonPolyhedron.of([tuple(e[i] for i in active) for e in exps]) if active else None
    bounds = {i: m * max(e[i] for e in exps) for i in active}
    members: list[Mono] = []
    if poly is None:
        # ideal generated by 1
        return IdealHandle(nvars, [Poly.one(nvars)])
    for combo in itertools.product(*[range(bounds[i] + 1) for i in active]):
        if poly.contains(combo, m):
            full = [0] * nvars
            for pos, e in zip(active, combo):
                full[pos] = e
            members.append(tuple(full))
    minimal = [e for e in members if not any(other != e and mono_divides(other, e) for other in members)]
    minimal.sort(key=GrevLex().key)
    return IdealHandle(nvars, [Poly.monomial(nvars, e) for e in minimal])


# ---------------------------------------------------------------------------
# symbolic powers


def symbolic_power(p: IdealHandle, n: int, witness: Poly) -> IdealHandle:
    """p^(n) computed as p^n : witness^infinity; correct when the witness
    avoids p but lies in every embedded component of p^n (user-asserted)."""
    if not witness:
        raise ValueError("zero saturation witness")
    if p.contains(witness):
        raise ValueError("saturation witness lies in the prime")
    return saturate(ideal_power(p, n), witness)


# ---------------------------------------------------------------------------
# power schedules and the shift search
#
# Every mode searches the same way (`find_min_c`); only the condition ideal
# (source plus rad) fed to the colon for (n, c) changes.  A factory checks its
# inputs once per ideal and returns the schedule plus any extra report fields.


def _monomial_image(J: IdealHandle, ring: RingSpec) -> IdealHandle:
    for g in ring.rad.gb:
        if len(g.terms) != 1 or mono_degree(next(iter(g.terms))) != 1:
            raise NonMonomialIdealError("radical is not generated by variables; reduced ring is not a polynomial ring here")
    I = ring.image_in_reduced(J)
    for g in I.gens:
        if len(g.terms) != 1:
            raise NonMonomialIdealError(f"image of the ideal is not monomial: {g!r}")
    return I


def _ordinary_schedule(
    J: IdealHandle, ring: RingSpec, dimension: int | None, witness: Poly | None
) -> tuple[PowerSchedule, dict]:
    """The plain power I^(n+c) (differential Artin-Rees)."""
    return ordinary_powers(ring), {}


def _closure_schedule(
    J: IdealHandle, ring: RingSpec, dimension: int | None, witness: Poly | None
) -> tuple[PowerSchedule, dict]:
    """The integral closure of I^(n+c) (Briancon-Skoda); requires the image
    of J to be a monomial ideal in a polynomial reduced ring."""
    image = _monomial_image(J, ring)
    closure = functools.cache(monomial_integral_closure)
    extras = {"image_monomials": sorted(list(next(iter(g.terms))) for g in image.gens)}
    return (lambda I, n, c: ring.plus_rad(closure(I, n + c))), extras


def _symbolic_schedule(
    J: IdealHandle, ring: RingSpec, dimension: int | None, witness: Poly | None
) -> tuple[PowerSchedule, dict]:
    """The symbolic power I^(m), m = n*d + c, computed by saturating
    I^m + rad at the witness (default 1); d is the (user-asserted) dimension
    of the regular reduced ring.  The saturation contains rad already."""
    if dimension is None or dimension < 1:
        raise ValueError("dimension must be at least 1")
    I = ring.image_in_reduced(J)
    if not I.gens:
        raise ValueError("image of J in the reduced ring is zero")
    if witness is None:
        witness = Poly.one(ring.nvars)
    if ring.plus_rad(I).contains(witness):
        raise ValueError("saturation witness lies in the image prime")
    power = functools.cache(lambda I, m: saturate(ring.power_plus(I, m, ring.rad), witness))
    return (lambda I, n, c: power(I, n * dimension + c)), {}


SCHEDULES: dict[str, Callable[..., tuple[PowerSchedule, dict]]] = {
    "artin_rees": _ordinary_schedule,
    "briancon_skoda": _closure_schedule,
    "symbolic": _symbolic_schedule,
}


def shift_search(
    mode: str,
    J: IdealHandle,
    ops: OperatorSet,
    ring: RingSpec,
    n_max: int,
    c_max: int,
    D: int,
    *,
    dimension: int | None = None,
    witness: Poly | None = None,
    ideal_name: str = "J",
) -> ConstantReport:
    """Minimal-shift search for J under the power schedule of `mode` (a key
    of SCHEDULES).  `dimension` and `witness` are read by the symbolic
    schedule only."""
    schedule, extras = SCHEDULES[mode](J, ring, dimension, witness)
    return find_min_c(
        J, ops, ring, n_max, c_max, D, schedule=schedule, ideal_name=ideal_name, extras=extras
    )
