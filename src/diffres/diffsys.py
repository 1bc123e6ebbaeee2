"""Generic first-order systems and the formal derivation operator.

The two generic polynomials carry one indeterminate coefficient per monomial
y^k*y1^l with k+l bounded by the degree.  Applying the derivation once
introduces y2 and order-1 symbols; the Leibniz bookkeeping is exact:

    delta(coeff * y^k * y1^l) = coeff' * y^k * y1^l
                              + k * coeff * y^(k-1) * y1^(l+1)
                              + l * coeff * y^k * y1^(l-1) * y2

All values are immutable and operations pure, so a generic polynomial is
made once per (system, degree, order) and keeps its derivative once made.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping, NamedTuple, Tuple

from .errors import DiffresError
from .symbols import CoeffSymbol
from .sympoly import Monomial, SymPoly, parse_rational


class SystemSpec(NamedTuple):
    """Degrees of the two generic polynomials, with 1 <= d1 <= d2."""

    d1: int
    d2: int

    @property
    def D(self) -> int:
        return 2 * self.d1 + 2 * self.d2 - 3

    @property
    def N(self) -> int:
        return (self.D + 1) ** 2

    def validate(self) -> "SystemSpec":
        if type(self.d1) is not int or type(self.d2) is not int:
            raise TypeError(f"degrees must be ints, got {self}")
        if not (1 <= self.d1 <= self.d2):
            raise ValueError(f"need 1 <= d1 <= d2, got {self}")
        # (D+1)^2 collapses to this closed form; keep both expressions honest.
        assert self.N == 4 * (self.d1 + self.d2 - 1) ** 2
        return self


class YMonomial(NamedTuple):
    """Exponent vector over (y, y1, y2)."""

    ey: int
    ey1: int
    ey2: int

    def degree(self) -> int:
        return self.ey + self.ey1 + self.ey2


YM_ONE = YMonomial(0, 0, 0)


def ym_key(m: YMonomial) -> tuple:
    """Canonical ascending order: degree, then lex with y < y1 < y2."""
    return (m.degree(), m.ey2, m.ey1, m.ey)


def ym_mul(a: YMonomial, b: YMonomial) -> YMonomial:
    return YMonomial(a.ey + b.ey, a.ey1 + b.ey1, a.ey2 + b.ey2)


def ym_divides(a: YMonomial, b: YMonomial) -> bool:
    return a.ey <= b.ey and a.ey1 <= b.ey1 and a.ey2 <= b.ey2


def ym_div(b: YMonomial, a: YMonomial) -> YMonomial:
    if not ym_divides(a, b):
        raise ValueError(f"{a} does not divide {b}")
    return YMonomial(b.ey - a.ey, b.ey1 - a.ey1, b.ey2 - a.ey2)


def ym_render(m: YMonomial) -> str:
    if m == YM_ONE:
        return "1"
    parts = []
    for name, e in (("y", m.ey), ("y1", m.ey1), ("y2", m.ey2)):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def ym_csv_name(m: YMonomial) -> str:
    return f"y^{m.ey}*y1^{m.ey1}*y2^{m.ey2}"


class DiffPoly:
    """Polynomial in (y, y1, y2) whose coefficients are SymPoly values."""

    __slots__ = ("_support", "_delta")

    def __init__(self, support: Mapping[YMonomial, SymPoly] | None = None):
        self._delta = None  # set by the first delta(self)
        self._support = {}
        for m, c in (support or {}).items():
            if not isinstance(c, SymPoly):
                raise TypeError(f"coefficient of {ym_render(m)} is {c!r}, not a SymPoly")
            if not c.is_zero():
                self._support[m] = c

    @staticmethod
    def zero() -> "DiffPoly":
        return DiffPoly()

    def is_zero(self) -> bool:
        return not self._support

    def coefficient(self, m: YMonomial) -> SymPoly:
        return self._support.get(m, SymPoly.zero())

    def items(self):
        return self._support.items()

    def support_set(self) -> Tuple[YMonomial, ...]:
        return tuple(sorted(self._support, key=ym_key))

    def degree_in(self, var_index: int) -> int:
        """Degree in y (0), y1 (1) or y2 (2)."""
        if not self._support:
            return 0
        return max(m[var_index] for m in self._support)

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        out = dict(self._support)   # the constructor drops zero sums
        for m, c in other._support.items():
            out[m] = out[m] + c if m in out else c
        return DiffPoly(out)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly({m: -c for m, c in self._support.items()})

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        out: Dict[YMonomial, SymPoly] = {}
        for m1, c1 in self._support.items():
            for m2, c2 in other._support.items():
                m = ym_mul(m1, m2)
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return DiffPoly(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self._support == other._support

    def evaluate_point(self, point: Tuple[Fraction, Fraction, Fraction]) -> SymPoly:
        """Collapse the variables at a rational point, keeping the symbols."""
        py, py1, py2 = map(parse_rational, point)
        out: Dict[Monomial, Fraction] = {}
        for m, c in self._support.items():
            scale = py ** m.ey * py1 ** m.ey1 * py2 ** m.ey2
            for mono, v in c.terms():
                out[mono] = out.get(mono, 0) + v * scale
        return SymPoly(out)

    def to_json(self) -> list:
        return [{"monomial": list(m), "coeff": c.render()}
                for m, c in sorted(self._support.items(), key=lambda kv: ym_key(kv[0]))]

    def render(self) -> str:
        if not self._support:
            return "0"
        parts = []
        for m in sorted(self._support, key=ym_key, reverse=True):
            c = self._support[m]
            cs = c.render()
            if len(c) > 1:
                cs = f"({cs})"
            parts.append(cs if m == YM_ONE else f"{cs}*{ym_render(m)}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"DiffPoly({self.render()})"


def generic_poly(system: str, degree: int, order: int = 1) -> DiffPoly:
    """Generic polynomial with one fresh symbol per monomial of degree <= d.

    order 1 uses monomials in (y, y1); order 0 restricts to y alone.  The
    symbol for y^k*y1^l is CoeffSymbol(system, k, l, 0).  The 16 latest
    are kept, keyed by (system, degree, order) however they are passed.
    """
    return _generic_poly(system, degree, order)


@lru_cache(maxsize=16)
def _generic_poly(system: str, degree: int, order: int) -> DiffPoly:
    if order not in (0, 1):
        raise DiffresError(f"generic polynomials support order 0 or 1, not {order}")
    support: Dict[YMonomial, SymPoly] = {}
    for k in range(degree + 1):
        lmax = 0 if order == 0 else degree - k
        for l in range(lmax + 1):
            sym = CoeffSymbol(system, k, l, 0)
            support[YMonomial(k, l, 0)] = SymPoly.symbol(sym)
    return DiffPoly(support)


def generic_system(spec: SystemSpec) -> Tuple[DiffPoly, DiffPoly]:
    spec = SystemSpec(*spec).validate()
    return generic_poly("a", spec.d1, 1), generic_poly("b", spec.d2, 1)


def delta(p: DiffPoly) -> DiffPoly:
    """Formal derivation with delta(y) = y1, delta(y1) = y2.

    The input must be free of y2 (the variable alphabet stops there); symbol
    derivative orders are unbounded.  The result is kept on `p`.
    """
    if p._delta is not None:
        return p._delta
    out: Dict[YMonomial, SymPoly] = {}

    def _accumulate(m: YMonomial, c: SymPoly) -> None:
        out[m] = out[m] + c if m in out else c   # DiffPoly drops zero sums

    for m, coeff in p.items():
        if m.ey2:
            raise DiffresError(
                f"cannot differentiate past y2: monomial {ym_render(m)}")
        _accumulate(m, coeff.derivative())
        if m.ey:
            _accumulate(YMonomial(m.ey - 1, m.ey1 + 1, 0), coeff * m.ey)
        if m.ey1:
            _accumulate(YMonomial(m.ey, m.ey1 - 1, 1), coeff * m.ey1)
    p._delta = DiffPoly(out)
    return p._delta


def system_symbols(spec: SystemSpec) -> set:
    """The symbol universe of a spec: every coefficient and its derivative."""
    spec = SystemSpec(*spec).validate()
    out = set()
    for system, d in (("a", spec.d1), ("b", spec.d2)):
        for k in range(d + 1):
            for l in range(d - k + 1):
                out.add(CoeffSymbol(system, k, l, 0))
                out.add(CoeffSymbol(system, k, l, 1))
    return out
