"""Coefficient symbol alphabet.

A symbol names one coefficient of one of the two generic polynomials (or a
derivative of it).  ``CoeffSymbol("a", 2, 1, 0)`` is the coefficient of
y^2*y1 in the first polynomial; applying the derivation bumps ``deriv``.
The fresh flag marks the substitution indeterminate introduced while
certifying nonsingularity; it renders as ``c(k,l)``.

Canonical text forms (the interchange format used by every JSON export):

    a(2,1)      order-0 coefficient of y^2*y1 in the first polynomial
    b(0,3)''    second derivative of the coefficient of y1^3 in the second
    c(1,1)      the fresh substitution symbol
"""

from __future__ import annotations

import re
from typing import NamedTuple


class CoeffSymbol(NamedTuple):
    """Symbols order as their fields: system, exponents, derivative, fresh."""

    system: str  # "a" (first polynomial) or "b" (second)
    k: int       # exponent of y in the named coefficient's monomial
    l: int       # exponent of y1
    deriv: int = 0
    fresh: bool = False

    def differentiate(self) -> "CoeffSymbol":
        return self._replace(deriv=self.deriv + 1)

    def render(self) -> str:
        base = "c" if self.fresh else self.system
        return f"{base}({self.k},{self.l})" + "'" * self.deriv

    def __str__(self) -> str:
        return self.render()


_SYMBOL_RE = re.compile(r"^([abc])\((\d+),(\d+)\)('*)$")


def parse_symbol(text: str) -> CoeffSymbol:
    m = _SYMBOL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a symbol: {text!r}")
    kind, k, l, primes = m.groups()
    if kind == "c":
        return CoeffSymbol("a", int(k), int(l), len(primes), fresh=True)
    return CoeffSymbol(kind, int(k), int(l), len(primes))
