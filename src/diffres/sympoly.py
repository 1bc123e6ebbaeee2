"""Exact sparse polynomial arithmetic over the coefficient symbols.

A monomial is a sorted tuple of (CoeffSymbol, positive exponent) pairs; a
polynomial maps monomials to nonzero exact coefficients: an int when the
value is integral, as in every generic polynomial, δ and determinant, and a
Fraction otherwise (from a specialization or `exact_div`).  A coefficient
or a value from outside is read by `parse_rational`, which refuses a float
and a bool; every operation returns a canonical form (no zero
coefficients, no zero exponents).  Values are immutable after construction
and safe to share between threads, so a value keeps its text once rendered:
the first `render()` fills the `_text` slot and later calls return it.

Term order is graded lexicographic over the fixed symbol order, given by
one sort key, `mono_order`, that both `render` and `exact_div` use.  It must
be a monomial order (multiplicative and a well-order): that makes the
exact-division loop below a genuine multivariate long division (the leading
monomial strictly decreases, and an exact quotient is found whenever one
exists).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from .errors import DivisionByZero, NotDivisible, UnassignedSymbol
from .symbols import CoeffSymbol, parse_symbol

# Monomial: ((symbol, exponent), ...) sorted by symbol, exponents > 0.
Monomial = Tuple[Tuple[CoeffSymbol, int], ...]

MONO_ONE: Monomial = ()

Coeff = int | Fraction


def mono_make(pairs: Mapping[CoeffSymbol, int]) -> Monomial:
    items = [(s, e) for s, e in pairs.items() if e != 0]
    for s, e in items:
        if e < 0:
            raise ValueError(f"negative exponent on {s}")
    return tuple(sorted(items))


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product: each pair of the shorter monomial bisected into the other."""
    if len(m1) > len(m2):
        m1, m2 = m2, m1
    out = list(m2)
    for s, e in m1:
        k = bisect_left(out, (s,))
        if k < len(out) and out[k][0] == s:
            e += out.pop(k)[1]
        out.insert(k, (s, e))
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_div(m2: Monomial, m1: Monomial) -> Monomial | None:
    """m2 / m1, or None when m1 does not divide m2."""
    acc = dict(m2)
    for s, e in m1:
        left = acc.get(s, 0) - e
        if left < 0:
            return None
        acc[s] = left
    return tuple((s, e) for s, e in acc.items() if e)


def mono_order(m: Monomial) -> tuple:
    """Sort key of the term order: ascending puts the largest monomial first.

    Degree first; within one degree, the (symbol, -exponent) pairs compared
    as tuples put first the monomial with the larger exponent on the earliest
    differing symbol, or with an earlier symbol the other lacks (neither can
    be a proper prefix of the other at equal degree).
    """
    return (-mono_degree(m), tuple((s, -e) for s, e in m))


def mono_render(m: Monomial) -> str:
    parts = []
    for s, e in m:
        parts.append(s.render() if e == 1 else f"{s.render()}^{e}")
    return "*".join(parts)


class SymPoly:
    """Sparse multivariate polynomial with exact int or Fraction coefficients."""

    __slots__ = ("_terms", "_text")

    def __init__(self, terms: Dict[Monomial, Coeff] | None = None):
        """The nonzero terms, an integral coefficient as an int; a coefficient
        that is neither an int nor a Fraction is read by `parse_rational`."""
        self._terms = {}
        for m, c in (terms or {}).items():
            if type(c) is not int:
                c = c if type(c) is Fraction else parse_rational(c)
                c = c.numerator if c.denominator == 1 else c
            if c:
                self._terms[m] = c
        self._text = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "SymPoly":
        return SymPoly()

    @staticmethod
    def one() -> "SymPoly":
        return SymPoly({MONO_ONE: 1})

    @staticmethod
    def const(value) -> "SymPoly":
        return SymPoly({MONO_ONE: value})

    @staticmethod
    def symbol(sym: CoeffSymbol, coeff=1) -> "SymPoly":
        return SymPoly({((sym, 1),): coeff})

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[Tuple[Monomial, Coeff]]:
        return iter(self._terms.items())

    def coefficient(self, mono: Monomial) -> Coeff:
        return self._terms.get(mono, 0)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(mono_degree(m) for m in self._terms)

    def symbols(self) -> set:
        out = set()
        for m in self._terms:
            for s, _ in m:
                out.add(s)
        return out

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> "SymPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return SymPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "SymPoly":
        return SymPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "SymPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SymPoly":
        return -self + other

    def __mul__(self, other) -> "SymPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: Dict[Monomial, Coeff] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = mono_mul(m1, m2)
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return SymPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SymPoly":
        if n < 0:
            raise ValueError("negative power")
        result = SymPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- evaluation and substitution -------------------------------------

    def evaluate(self, assignment: "Specialization | Mapping[CoeffSymbol, Fraction]") -> Fraction:
        """Exact value under a total assignment of the polynomial's symbols."""
        values = (assignment._values if isinstance(assignment, Specialization)
                  else {s: parse_rational(v) for s, v in assignment.items()})
        total = Fraction(0)
        try:
            for m, c in self._terms.items():
                for s, e in m:
                    x = values[s]
                    c *= x if e == 1 else x ** e
                total += c
        except KeyError as exc:
            raise UnassignedSymbol(f"symbol {exc.args[0]} has no assigned value") from None
        return total

    def substitute(self, mapping: Mapping[CoeffSymbol, "SymPoly | Fraction | int"]) -> "SymPoly":
        """Replace symbols by polynomials; untouched symbols pass through."""
        out: Dict[Monomial, Coeff] = {}
        for m, c in self._terms.items():
            factor = SymPoly.const(c)
            rest: Dict[CoeffSymbol, int] = {}
            for s, e in m:
                if s in mapping:
                    factor = factor * (_coerce(mapping[s]) ** e)
                else:
                    rest[s] = e
            tail = mono_make(rest)
            for fm, fc in factor._terms.items():
                t = mono_mul(fm, tail)
                out[t] = out.get(t, 0) + fc
        return SymPoly(out)

    def derivative(self) -> "SymPoly":
        """Formal derivation: each symbol's derivative bumps its order."""
        out: Dict[Monomial, Coeff] = {}
        for m, c in self._terms.items():
            for s, e in m:
                rest = dict(m)
                if e == 1:
                    del rest[s]
                else:
                    rest[s] = e - 1
                rest[s.differentiate()] = rest.get(s.differentiate(), 0) + 1
                t = mono_make(rest)
                out[t] = out.get(t, 0) + c * e
        return SymPoly(out)

    # -- exact division ---------------------------------------------------

    def exact_div(self, divisor: "SymPoly") -> "SymPoly":
        """Quotient q with q * divisor == self; NotDivisible otherwise."""
        divisor = _coerce(divisor)
        if divisor.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero():
            return SymPoly.zero()
        lead_d = min(divisor._terms, key=mono_order)
        coeff_d = divisor._terms[lead_d]
        quotient: Dict[Monomial, Coeff] = {}
        remainder = dict(self._terms)
        while remainder:
            lead_r = min(remainder, key=mono_order)
            qm = mono_div(lead_r, lead_d)
            if qm is None:
                raise NotDivisible("no exact quotient")
            qc = Fraction(remainder[lead_r], coeff_d)
            qc = qc.numerator if qc.denominator == 1 else qc
            quotient[qm] = quotient.get(qm, 0) + qc
            for m, c in divisor._terms.items():
                t = mono_mul(m, qm)
                v = remainder.get(t, 0) - qc * c
                if v:
                    remainder[t] = v
                else:
                    remainder.pop(t, None)
        return SymPoly(quotient)

    # -- text form ----------------------------------------------------------

    def render(self) -> str:
        if self._text is None:
            self._text = self._render()
        return self._text

    def _render(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for m in sorted(self._terms, key=mono_order):
            c = self._terms[m]
            mono = mono_render(m)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"SymPoly({self.render()})"


def _coerce(value) -> SymPoly:
    # a bool is no number: `p + True` raises and `p == True` is False
    if isinstance(value, SymPoly):
        return value
    if type(value) in (int, Fraction):
        return SymPoly.const(value)
    return NotImplemented


# a decimal exponent larger than Python's default limit on the digits of an
# int's text would be expanded into an integer too long to print
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_rational(value) -> Fraction:
    """The exact rational of a text such as "3/4", "-0.25" or "1e-3", so
    "0.01" is 1/100 and not the binary float nearest to it; an int or a
    Fraction is taken as it is.  A text with a decimal exponent beyond
    MAX_EXPONENT is refused with a ValueError rather than expanded, and a
    float, which holds only its binary approximation, or a bool, which is
    no number, with a TypeError."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"a {type(value).__name__} is not read as an exact "
                        f"rational: {value!r}")
    if isinstance(value, str):
        m = _EXPONENT.search(value)
        if m and abs(int(m.group(1))) > MAX_EXPONENT:
            raise ValueError(f"number out of range: {value}")
    return Fraction(value)


def parse_sympoly(text: str) -> SymPoly:
    """Inverse of SymPoly.render (serialize -> parse -> serialize is stable)."""
    text = text.strip()
    if text == "0":
        return SymPoly.zero()
    # Normalise into signed term strings.
    text = text.replace(" - ", " + -")
    if text.startswith("- "):
        text = "-" + text[2:]
    rational = re.compile(r"^-?\d+(/\d+)?$")
    factor = re.compile(r"^([abc]\(\d+,\d+\)'*)(?:\^(\d+))?$")
    terms: Dict[Monomial, Coeff] = {}
    for raw in text.split(" + "):
        raw = raw.strip()
        negative = raw.startswith("-")
        if negative:
            raw = raw[1:]
        coeff = 1
        powers: Dict[CoeffSymbol, int] = {}
        for part in raw.split("*"):
            part = part.strip()
            if rational.match(part):
                coeff *= parse_rational(part)
                continue
            m = factor.match(part)
            if m is None:
                raise ValueError(f"cannot parse factor {part!r}")
            sym = parse_symbol(m.group(1))
            exp = int(m.group(2)) if m.group(2) else 1
            powers[sym] = powers.get(sym, 0) + exp
        if negative:
            coeff = -coeff
        mono = mono_make(powers)
        terms[mono] = terms.get(mono, 0) + coeff
    return SymPoly(terms)


class Specialization:
    """Assignment of exact rationals to symbols; reading a symbol that has
    no value raises `UnassignedSymbol`.

    `zero`, when set, is the point (y, y1, y2) the values were solved for
    (see `common_zero_specialization`): a claim that `det_specialized`
    checks before it uses it, and that no output carries.
    """

    __slots__ = ("_values", "zero")

    def __init__(self, assignment: Mapping[CoeffSymbol, Fraction], *,
                 zero: Tuple[Fraction, Fraction, Fraction] | None = None):
        self.zero = zero
        self._values = {s: v if isinstance(v, Fraction) else parse_rational(v)
                        for s, v in assignment.items()}

    def __contains__(self, sym: CoeffSymbol) -> bool:
        return sym in self._values

    def __getitem__(self, sym: CoeffSymbol) -> Fraction:
        try:
            return self._values[sym]
        except KeyError:
            raise UnassignedSymbol(f"symbol {sym} has no assigned value") from None

    def items(self):
        return self._values.items()

    def to_json(self) -> dict:
        return {s.render(): str(v) for s, v in sorted(self._values.items())}

    @staticmethod
    def from_json(data: Mapping[str, str],
                  universe: Iterable[CoeffSymbol] | None = None) -> "Specialization":
        values = {}
        for key, v in data.items():
            sym = parse_symbol(key)
            try:
                values[sym] = parse_rational(v)
            except (TypeError, ZeroDivisionError, OverflowError):
                raise ValueError(f"value of {key} is not a number: {v!r}") from None
        if universe is not None:
            allowed = set(universe)
            unknown = set(values) - allowed
            if unknown:
                sym = min(unknown)
                raise ValueError(f"unknown symbol in specialization file: {sym}")
            missing = allowed - set(values)
            if missing:
                sym = min(missing)
                raise ValueError(f"symbol missing from specialization file: {sym}")
        return Specialization(values)
