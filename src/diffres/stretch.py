"""Optional deep-expansion goal: the degree-12 resultant factor at d1 = d2 = 2.

With the two top coefficients pinned to one and every derivative symbol set
to zero, the 36x36 determinant expands to a polynomial whose resultant
factor has degree 12 and 3210 terms.  Both halves of the extraction (the
full symbolic determinant and the iterated-resultant candidate) grow far
beyond desk scale in this implementation, so the whole routine runs under a
wall-clock budget and raises TimeoutError when it cannot finish.  Nothing
else in the package depends on this module.

The determinant is expanded by fraction-free elimination (Bareiss 1968): a
memoized cofactor expansion of the 36x36 matrix holds too many minors (a
probe ran past 3 GB).
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import NotDivisible
from .diffsys import SystemSpec
from .matrices import build_square_matrix
from .oracle import eliminate_iterated
from .symbols import CoeffSymbol
from .sympoly import SymPoly


class _Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def check(self, stage: str) -> None:
        if time.monotonic() > self.deadline:
            raise TimeoutError(f"stretch stage {stage!r} exceeded the budget")


def _bareiss(grid: List[List[SymPoly]], budget: _Budget) -> SymPoly:
    """Fraction-free elimination (Bareiss 1968) of a square grid, in place.

    Row i's tail right of pivot k becomes (gkk * tail_i - gik * tail_k) / prev,
    prev the previous pivot (1 at the first step), the budget checked before
    each row.  Every division is checked exact, so a pivot-logic bug surfaces
    as NotDivisible instead of a wrong answer.  The pivot is the nonzero
    entry of fewest terms in the live block (its row and column swapped in),
    which keeps the intermediate polynomials small.  Returns the
    determinant, zero when the live block is zero.
    """
    n = len(grid)
    sign, prev = 1, 1
    for k in range(n - 1):
        live = [(len(grid[i][j]), i, j) for i in range(k, n)
                for j in range(k, n) if grid[i][j]]
        if not live:
            return grid[k][k]
        _, pi, pj = min(live)
        if pi != k:
            grid[pi], grid[k] = grid[k], grid[pi]
            sign = -sign
        if pj != k:
            for row in grid:
                row[pj], row[k] = row[k], row[pj]
            sign = -sign
        row_k = grid[k]
        gkk, tail_k = row_k[k], row_k[k + 1:]
        for row_i in grid[k + 1:]:
            budget.check("determinant")
            gik = row_i[k]
            row_i[k + 1:] = [(gkk * x - gik * y).exact_div(prev)
                             for x, y in zip(row_i[k + 1:], tail_k)]
            row_i[k] = SymPoly.zero()   # frees the eliminated column
        prev = gkk
    return grid[n - 1][n - 1] * sign


def pinned_substitution() -> Dict[CoeffSymbol, SymPoly]:
    """Top coefficients to one, derivative symbols to zero, rest symbolic."""
    sub: Dict[CoeffSymbol, SymPoly] = {
        CoeffSymbol("a", 0, 2, 0): SymPoly.one(),
        CoeffSymbol("b", 0, 2, 0): SymPoly.one(),
    }
    for system in ("a", "b"):
        for k in range(3):
            for l in range(3 - k):
                sub[CoeffSymbol(system, k, l, 1)] = SymPoly.zero()
    return sub


def strip_content(p: SymPoly) -> SymPoly:
    """p over its smallest absolute coefficient, so the division target has
    a coefficient of 1 or -1 (the zero polynomial is returned as it is)."""
    content = min((abs(c) for _, c in p.terms()), default=0)
    return p * Fraction(1, content) if content else p


def resultant_factor_2_2(time_budget: float = 600.0) -> Tuple[SymPoly, SymPoly]:
    """Expand the pinned determinant and split off the resultant factor.

    Returns (factor, cofactor) with factor * cofactor equal to the expanded
    determinant.  Raises TimeoutError when either expansion outgrows the
    budget, or NotDivisible when the candidate fails to divide.
    """
    budget = _Budget(time_budget)
    spec = SystemSpec(2, 2)
    sub = pinned_substitution()

    matrix = build_square_matrix(spec).substitute(sub)
    n = matrix.nrows
    grid = [[matrix.entry(i, j) for j in range(n)] for i in range(n)]
    determinant = _bareiss(grid, budget)

    budget.check("candidate")
    candidate = eliminate_iterated(spec, sub)

    budget.check("division")
    primitive = strip_content(candidate)
    cofactor = determinant.exact_div(primitive)
    if primitive.total_degree() != 12:
        raise NotDivisible(
            f"candidate degree {primitive.total_degree()} is not the "
            "resultant; factor isolation is out of scope")
    return primitive, cofactor
