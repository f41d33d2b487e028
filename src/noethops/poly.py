"""Sparse multivariate polynomials with exact rational coefficients.

A monomial is an exponent tuple with one entry per ambient variable; a
polynomial maps monomials to nonzero coefficients.  A rational coefficient
is an `int` when it is integral and a `fractions.Fraction` only when it has
a denominator: equal ints and Fractions compare, hash and print alike, and
int arithmetic is far cheaper.  Only division can turn two ints into a
non-integer, so every coefficient division goes through `qdiv`, which keeps
that rule and never returns a float.  Every other arithmetic routine only
combines coefficients that are already present, so the same container
works verbatim over other exact fields (see `RationalFunction`, used as the
coefficient field Q(u) when computing over the fraction field of a set of
independent variables).

Nothing here ever rounds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, le, neg, sub
from typing import Iterable, Mapping, Sequence, Union

Mono = tuple[int, ...]


def qdiv(a, b):
    """a / b in the coefficient field: for two ints the exact quotient, an
    int when b divides a and a `Fraction` otherwise, never a float; an
    integral `Fraction` quotient is demoted to its int; any other field (a
    `RationalFunction`) divides by its own `/`."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


def rational(value) -> int | Fraction:
    """An int, a `Fraction` or a text such as "3/4" as a rational
    coefficient: an int when integral."""
    return qdiv(*Fraction(value).as_integer_ratio())


# ---------------------------------------------------------------------------
# monomials


def mono_zero(nvars: int) -> Mono:
    return (0,) * nvars


def mono_unit(nvars: int, i: int) -> Mono:
    e = [0] * nvars
    e[i] = 1
    return tuple(e)


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_degree(a: Mono) -> int:
    return sum(a)


def mono_embed(sub: Sequence[int], positions: Sequence[int], nvars: int) -> Mono:
    """The exponents `sub` placed at `positions` of an `nvars`-tuple, 0
    elsewhere."""
    full = [0] * nvars
    for pos, e in zip(positions, sub):
        full[pos] = e
    return tuple(full)


def monomials_up_to(nvars: int, degree: int) -> list[Mono]:
    """All monomials of total degree <= degree, ascending in grevlex."""
    out: list[Mono] = []

    def rec(prefix: list[int], remaining: int, slot: int) -> None:
        if slot == nvars - 1:
            for e in range(remaining + 1):
                out.append(tuple(prefix + [e]))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slot + 1)

    if nvars == 0:
        return [()]
    rec([], degree, 0)
    out.sort(key=GrevLex().key)
    return out


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class GrevLex:
    """Graded reverse lexicographic order."""

    def key(self, m: Mono):
        return (sum(m), tuple(map(neg, reversed(m))))


@dataclass(frozen=True)
class Block:
    """Block order: the eliminated positions dominate, the remaining ones
    break ties, and each block compares in grevlex.  The key is the two
    grevlex keys laid end to end."""

    eliminated: tuple[int, ...]

    @functools.cached_property
    def _dropped(self) -> frozenset[int]:
        return frozenset(self.eliminated)

    def key(self, m: Mono):
        elim = list(map(m.__getitem__, self.eliminated))
        dropped = self._dropped
        keep = [e for i, e in enumerate(m) if i not in dropped]
        return (sum(elim), tuple(map(neg, reversed(elim))), sum(keep), tuple(map(neg, reversed(keep))))


MonomialOrder = Union[GrevLex, Block]


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Immutable sparse polynomial: {exponent tuple: nonzero coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Mono, object] | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError(f"monomial {m} has wrong length for {nvars} variables")
                if c:
                    clean[m] = c
        self.terms = clean

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls(nvars, {mono_zero(nvars): 1})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {mono_zero(nvars): c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        return cls(nvars, {mono_unit(nvars, i): 1})

    @classmethod
    def monomial(cls, nvars: int, m: Mono, c=1) -> "Poly":
        return cls(nvars, {m: c})

    # predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def constant_term(self):
        return self.terms.get(mono_zero(self.nvars), 0)

    def leading(self, order: MonomialOrder) -> tuple[Mono, object]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def variables_used(self) -> set[int]:
        used: set[int] = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    # arithmetic ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            out: dict[Mono, object] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    c = c1 * c2
                    s = out.get(m)
                    s = c if s is None else s + c
                    if s:
                        out[m] = s
                    elif m in out:
                        del out[m]
            return Poly(self.nvars, out)
        # scalar
        if not other:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Poly.one(self.nvars)
        half = self ** (n // 2)
        sq = half * half
        return sq * self if n % 2 else sq

    def divide_by(self, c) -> "Poly":
        """self / c for a nonzero scalar c, one `qdiv` per coefficient, so
        integral quotients stay ints."""
        return Poly(self.nvars, {m: qdiv(x, c) for m, x in self.terms.items()})

    def scale_term(self, m: Mono, c) -> "Poly":
        """self * c*x^m without building an intermediate Poly."""
        return Poly(self.nvars, {mono_mul(t, m): tc * c for t, tc in self.terms.items()})

    # evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence):
        """Value at `point`, whose coordinates lie in the coefficient field
        (rationals, or `RationalFunction`s for Q(u)); terms that a zero
        coordinate kills are skipped."""
        total = 0
        for m, c in self.terms.items():
            v = c
            for e, p in zip(m, point):
                if e:
                    if not p:
                        break
                    v = v * p**e
            else:
                total = total + v
        return total

    # variable bookkeeping ------------------------------------------------

    def extend(self, extra: int) -> "Poly":
        """Append `extra` fresh variables (exponent 0 everywhere)."""
        pad = (0,) * extra
        return Poly(self.nvars + extra, {m + pad: c for m, c in self.terms.items()})

    def restrict(self, keep: Sequence[int]) -> "Poly":
        """Project onto the listed variable positions; caller guarantees the
        dropped positions carry exponent 0 in every term."""
        out = {}
        for m, c in self.terms.items():
            for i, e in enumerate(m):
                if e and i not in keep:
                    raise ValueError(f"term {m} uses dropped variable {i}")
            out[tuple(m[i] for i in keep)] = c
        return Poly(len(keep), out)

    # printing -------------------------------------------------------------

    def format(self, var_names: Sequence[str]) -> str:
        terms = []
        for m in sorted(self.terms, key=GrevLex().key, reverse=True):
            terms.append((str(self.terms[m]), format_monomial(m, var_names)))
        return join_terms(terms)

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.nvars)]
        return f"Poly({self.format(names)})"


# ---------------------------------------------------------------------------
# printing terms


def format_monomial(m: Mono, names: Sequence[str]) -> str:
    """x^m as name factors joined by '*': "x*y^2"; "" for the monomial 1."""
    factors = []
    for name, e in zip(names, m):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def join_terms(terms: Sequence[tuple[str, str]]) -> str:
    """The sum of terms given as (coefficient text, monomial text): a
    coefficient 1 is left out before a monomial and -1 reduced to its sign,
    and terms are joined with " + ", or " - " before a term that starts with
    a minus sign; "0" for no terms."""
    out = ""
    for coeff, body in terms:
        if not body:
            text = coeff
        elif coeff == "1":
            text = body
        elif coeff == "-1":
            text = f"-{body}"
        else:
            text = f"{coeff}*{body}"
        if not out:
            out = text
        elif text.startswith("-"):
            out += f" - {text[1:]}"
        else:
            out += f" + {text}"
    return out or "0"


# ---------------------------------------------------------------------------
# rational functions


def rational_content(values: Iterable[int | Fraction]) -> int | Fraction:
    """Positive rational c such that the values divided by c are coprime
    integers; 1 when every value is 0."""
    num = 0
    den = 1
    for c in values:
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    if num == 0:
        return 1
    return qdiv(num, den)


def _univariate_slot(p: Poly) -> int | None:
    used = p.variables_used()
    if len(used) == 1:
        return used.pop()
    if not used:
        return -1  # constant
    return None


def _poly_gcd_univariate(a: Poly, b: Poly, slot: int) -> Poly:
    """Monic gcd of two nonzero polynomials in the single variable `slot`."""

    def deg(p):
        return max((m[slot] for m in p.terms), default=-1)

    def lc(p):
        d = deg(p)
        return next(c for m, c in p.terms.items() if m[slot] == d)

    while b:
        # remainder of a by b
        r = a
        db, cb = deg(b), lc(b)
        while r and deg(r) >= db:
            dr, cr = deg(r), lc(r)
            m = tuple(e * (dr - db) for e in mono_unit(a.nvars, slot))
            r = r - b.scale_term(m, qdiv(cr, cb))
        a, b = b, r
    return a.divide_by(lc(a))


def _content_to_numerator(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """(num/c, den/c) for c the rational content of den signed like den's
    grevlex leading coefficient: den gets content 1 and a positive lead."""
    c = rational_content(den.terms.values())
    if den.leading(GrevLex())[1] < 0:
        c = -c
    if c == 1:
        return num, den
    return num.divide_by(c), den.divide_by(c)


_SCALARS = (int, Fraction)


class RationalFunction:
    """Quotient of two polynomials over the same variable set.

    Every value keeps one invariant: `den` is nonzero, has rational content
    1 and a positive grevlex leading coefficient, and the gcd of `num` and
    `den` is cancelled when both are univariate in the same variable (or
    `num` is constant); zero is (0, 1).  Reduction is deliberately cheap: no
    gcd is taken outside that univariate case, so equality is decided by
    cross multiplication, and unreduced representatives compare correctly.

    These build the pair the full normalization would give without running
    the parts of it that cannot change it:
    - a polynomial p is (p, 1), and p over a constant d is (p/d, 1): there is
      no gcd to cancel, and d is its own content with its sign;
    - a denominator of content 1 is not scaled by 1;
    - a scalar k (int or Fraction) times n/d is (k*n, d): that changes
      neither the gcd with d nor d, and -(n/d) is (-n, d);
    - k/(n/d) is (k*d, n) with n's content and sign moved to the numerator:
      n and d are already coprime wherever a gcd would be taken;
    - (n/d)^e is (n^e, d^e): powers of coprime polynomials stay coprime, and
      a product of polynomials of content 1 has content 1 (Gauss's lemma).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is not None and not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if den is None or not num:
            self.num, self.den = num, Poly.one(num.nvars)
            return
        slot = _univariate_slot(den)
        if slot == -1:
            (d,) = den.terms.values()
            self.num = num if d == 1 else num.divide_by(d)
            self.den = Poly.one(num.nvars)
            return
        if slot is not None and _univariate_slot(num) in (slot, -1):
            g = _poly_gcd_univariate(num, den, slot)
            if g.degree() > 0:
                num = _poly_div_exact(num, g)
                den = _poly_div_exact(den, g)
        self.num, self.den = _content_to_numerator(num, den)

    @classmethod
    def _of(cls, num: Poly, den: Poly) -> "RationalFunction":
        """num/den stored as given; the caller guarantees the invariant."""
        r = cls.__new__(cls)
        r.num, r.den = num, den
        return r

    @classmethod
    def lift(cls, value, nvars: int) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, Poly):
            return cls(value)
        return cls(Poly.constant(nvars, rational(value)))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        raise TypeError("unhashable: RationalFunction")

    def __neg__(self):
        return RationalFunction._of(-self.num, self.den)

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, (int, Fraction, Poly)):
            return RationalFunction.lift(other, self.num.nvars)
        if isinstance(other, RationalFunction):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(o.num * self.den - self.num * o.den, self.den * o.den)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            if not other:
                return RationalFunction(Poly.zero(self.num.nvars))
            return RationalFunction._of(self.num * other, self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            if not other:
                raise ZeroDivisionError("division by zero rational function")
            return RationalFunction._of(self.num.divide_by(other), self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            if not self.num:
                raise ZeroDivisionError("division by zero rational function")
            if not other:
                return RationalFunction(Poly.zero(self.num.nvars))
            return RationalFunction._of(*_content_to_numerator(self.den * other, self.num))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return (1 / self) ** -n
        return RationalFunction._of(self.num**n, self.den**n)

    def is_polynomial(self) -> bool:
        return self.den == Poly.one(self.den.nvars)

    def format(self, var_names: Sequence[str]) -> str:
        if self.is_polynomial():
            return self.num.format(var_names)
        return f"({self.num.format(var_names)})/({self.den.format(var_names)})"

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.num.nvars)]
        return f"RationalFunction({self.format(names)})"


def _poly_div_exact(a: Poly, b: Poly) -> Poly:
    """Exact quotient a/b for univariate b dividing a; used by gcd reduction."""
    order = GrevLex()
    out = {}
    r = a
    mb, cb = b.leading(order)
    while r:
        mr, cr = r.leading(order)
        if not mono_divides(mb, mr):
            raise ValueError("inexact polynomial division")
        m = mono_div(mr, mb)
        c = qdiv(cr, cb)
        out[m] = c
        r = r - b.scale_term(m, c)
    return Poly(a.nvars, out)


# ---------------------------------------------------------------------------
# parsing


class PolyParseError(ValueError):
    """Syntax or name error while parsing polynomial text; carries `position`."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_SYMBOLS = "+-*^()/"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, var_names: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = len(var_names)
        self.index = {name: i for i, name in enumerate(var_names)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.advance()
        if val != value:
            raise PolyParseError(f"expected {value!r}", at)

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected trailing {val!r}", at)
        return p

    def expr(self) -> Poly:
        p = self.signed_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.advance()
                q = self.signed_term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def signed_term(self) -> Poly:
        kind, val, _ = self.peek()
        if kind == "sym" and val in "+-":
            self.advance()
            return self.term() * (-1 if val == "-" else 1)
        return self.term()

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val == "*":
                self.advance()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Poly:
        p = self.atom()
        kind, val, _ = self.peek()
        if kind == "sym" and val == "^":
            self.advance()
            kind, val, at = self.advance()
            if kind != "int":
                raise PolyParseError("expected integer exponent", at)
            p = p ** int(val)
        return p

    def atom(self) -> Poly:
        kind, val, at = self.advance()
        if kind == "int":
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "sym" and val2 == "/":
                self.advance()
                kind3, val3, at3 = self.advance()
                if kind3 != "int" or int(val3) == 0:
                    raise PolyParseError("expected positive integer denominator", at3)
                return Poly.constant(self.nvars, qdiv(num, int(val3)))
            return Poly.constant(self.nvars, num)
        if kind == "name":
            if val not in self.index:
                raise PolyParseError(f"unknown variable {val!r}", at)
            return Poly.variable(self.nvars, self.index[val])
        if kind == "sym" and val == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise PolyParseError(f"unexpected {val!r}" if val else "unexpected end of input", at)


def parse_polynomial(text: str, var_names: Sequence[str]) -> Poly:
    """Parse `text` over the given variables.

    Grammar: expr := signed (('+'|'-') signed)*, signed := ['+'|'-'] term,
    term := factor ('*' factor)*, factor := atom ('^' nat)?, atom :=
    rational | var | '(' expr ')'.  So "u + -3*v" and "x - -y" parse, while
    "x^-1" and "2*-x" do not.
    Rational literals are written n/d with a positive integer denominator.
    """
    return _Parser(text, var_names).parse()
