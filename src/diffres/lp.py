"""Exact rational linear programming.

Standard-form solver for min c.x subject to A x = b, x >= 0, over Fractions
throughout: two phases, Bland's anti-cycling pivot rule, no tolerances.
Phase one alone returns a certificate with its verdict: a basis with
B^-1 b >= 0, or a Farkas vector w with w A >= 0 and w b < 0, read from the
artificial columns of the final tableau.  A basis-verification routine
certifies optimality of a proposed basic solution independently of the
solver (feasibility of B^-1 b and nonpositive reduced costs), so the two can
cross-check each other.  One Gauss-Jordan pivot serves the tableau, the
exact solves and inverses, and the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import SingularBasis, Unbounded

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def _as_fractions(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


def solve_square(B: Matrix, rhs: Vector) -> Optional[Vector]:
    """Gaussian elimination with exact pivots; None when B is singular."""
    solved = _solve(B, [[v] for v in rhs])
    return None if solved is None else [row[0] for row in solved]


def inverse(B: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix; None when it is singular."""
    n = len(B)
    return _solve(B, [[int(i == k) for k in range(n)] for i in range(n)])


def _solve(B: Matrix, right: Sequence[Sequence]) -> Optional[Matrix]:
    """B^-1 times the matrix `right`, by Gauss-Jordan on [B | right]."""
    n = len(B)
    grid = [[Fraction(v) for v in row] + [Fraction(v) for v in extra]
            for row, extra in zip(B, right)]
    if len(_row_reduce(grid, n)) < n:
        return None
    return [row[n:] for row in grid]


def matrix_rank(rows: Sequence[Sequence]) -> int:
    grid = _as_fractions(rows)
    return len(_row_reduce(grid, len(grid[0]))) if grid else 0


def _pivot(rows: Matrix, r: int, c: int) -> None:
    """Scale row r to a one in column c and clear column c from every other
    row; a zero entry of row r leaves the other rows' entry untouched."""
    piv = rows[r][c]
    if piv != 1:
        rows[r] = [v / piv for v in rows[r]]
    pivot_row = rows[r]
    for i, row in enumerate(rows):
        factor = row[c]
        if i != r and factor != 0:
            rows[i] = [a - factor * b if b else a for a, b in zip(row, pivot_row)]


def _row_reduce(rows: Matrix, ncols: int) -> List[int]:
    """Reduced row echelon form over the first ncols columns, in place;
    returns the pivot columns, one per independent row."""
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        _pivot(rows, r, c)
        pivots.append(c)
    return pivots


@dataclass
class LPSolution:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    x: Vector
    objective: Fraction
    basis: Tuple[int, ...]


class _Tableau:
    """Dense simplex tableau with Bland's rule; all entries Fractions."""

    def __init__(self, A: Matrix, b: Vector):
        self.m = len(A)
        self.n = len(A[0]) if A else 0
        self.rows = [row[:] + [b[i]] for i, row in enumerate(A)]
        # flip rows so the right-hand side is nonnegative
        for i in range(self.m):
            if self.rows[i][-1] < 0:
                self.rows[i] = [-v for v in self.rows[i]]
        self.basis: List[int] = [-1] * self.m

    def add_columns(self, count: int) -> List[int]:
        first = self.n
        for i in range(self.m):
            self.rows[i][-1:-1] = [Fraction(0)] * count
        self.n += count
        return list(range(first, self.n))

    def pivot(self, row: int, col: int) -> None:
        _pivot(self.rows, row, col)
        self.basis[row] = col

    def reduced_costs(self, cost: Vector) -> Tuple[Vector, Fraction]:
        """Costs minus the basic combination, plus the current objective."""
        y = [cost[self.basis[i]] for i in range(self.m)]
        reduced = list(cost)
        objective = Fraction(0)
        for i in range(self.m):
            ci = y[i]
            if ci == 0:
                continue
            row = self.rows[i]
            for j in range(self.n):
                if row[j] != 0:
                    reduced[j] -= ci * row[j]
            objective += ci * row[-1]
        return reduced, objective

    def run(self, cost: Vector, allowed: Sequence[bool]) -> Fraction:
        """Minimise cost over the allowed columns; Bland's rule throughout."""
        while True:
            reduced, objective = self.reduced_costs(cost)
            entering = None
            for j in range(self.n):
                if allowed[j] and reduced[j] < 0:
                    entering = j
                    break
            if entering is None:
                return objective
            leaving = None
            best: Optional[Fraction] = None
            for i in range(self.m):
                a = self.rows[i][entering]
                if a > 0:
                    ratio = self.rows[i][-1] / a
                    if (best is None or ratio < best or
                            (ratio == best and self.basis[i] < self.basis[leaving])):
                        best = ratio
                        leaving = i
            if leaving is None:
                raise Unbounded("objective decreases without bound")
            self.pivot(leaving, entering)

    def solution(self) -> Vector:
        x = [Fraction(0)] * self.n
        for i in range(self.m):
            x[self.basis[i]] = self.rows[i][-1]
        return x


class Feasibility(NamedTuple):
    """Phase-one verdict on A x = b, x >= 0, with its certificate.

    Feasible: ``basis`` lists columns of A whose basic solution ``x`` is
    nonnegative (B^-1 b >= 0; one column per independent row of A).
    Infeasible: ``farkas`` is a vector w with w A >= 0 and w b < 0.
    """

    feasible: bool
    basis: Tuple[int, ...]
    x: Tuple[Fraction, ...]
    farkas: Tuple[Fraction, ...]


def _phase_one(A: Matrix, b: Vector) -> Tuple[_Tableau, Optional[Vector]]:
    """Phase one; the tableau on a basis of A's columns, or a Farkas vector.

    At a positive optimum the artificial columns hold B^-1 of the row-flipped
    system S A x = S b, so y = c_B B^-1 has y S A <= 0 (the reduced costs of
    the original columns) and y S b > 0 (the optimum); w = -S y certifies
    infeasibility.  Otherwise the artificial variables are driven out of the
    basis and redundant rows dropped, ready for phase two.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    tab = _Tableau(A, b)
    flipped = [b[i] < 0 for i in range(m)]
    artificial = tab.add_columns(m)
    for i, j in enumerate(artificial):
        tab.rows[i][j] = Fraction(1)
        tab.basis[i] = j

    phase1_cost = [Fraction(0)] * n + [Fraction(1)] * m
    value = tab.run(phase1_cost, [True] * tab.n)
    if value > 0:
        y = [sum(phase1_cost[tab.basis[i]] * tab.rows[i][j] for i in range(m))
             for j in artificial]
        return tab, [y[k] if flipped[k] else -y[k] for k in range(m)]

    # drive any artificial variable out of the basis
    drop_rows: List[int] = []
    for i in range(m):
        if tab.basis[i] >= n:
            pivot_col = next((j for j in range(n) if tab.rows[i][j] != 0), None)
            if pivot_col is None:
                drop_rows.append(i)  # redundant constraint
            else:
                tab.pivot(i, pivot_col)
    if drop_rows:
        for i in sorted(drop_rows, reverse=True):
            del tab.rows[i]
            del tab.basis[i]
        tab.m = len(tab.rows)
    return tab, None


def phase_one(A: Sequence[Sequence], b: Sequence) -> Feasibility:
    """Exact feasibility of A x = b, x >= 0 with a certificate either way."""
    A = _as_fractions(A)
    b = [Fraction(v) for v in b]
    n = len(A[0]) if A else 0
    tab, farkas = _phase_one(A, b)
    if farkas is not None:
        return Feasibility(False, (), (), tuple(farkas))
    return Feasibility(True, tuple(sorted(tab.basis)), tuple(tab.solution()[:n]), ())


def simplex(A: Sequence[Sequence], b: Sequence, c: Sequence) -> LPSolution:
    """Two-phase exact simplex for min c.x, A x = b, x >= 0."""
    A = _as_fractions(A)
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    n = len(A[0]) if A else 0
    tab, farkas = _phase_one(A, b)
    if farkas is not None:
        return LPSolution("infeasible", [], Fraction(0), ())
    allowed = [j < n for j in range(tab.n)]
    phase2_cost = c + [Fraction(0)] * (tab.n - n)
    objective = tab.run(phase2_cost, allowed)
    x = tab.solution()[:n]
    return LPSolution("optimal", x, objective, tuple(sorted(tab.basis)))


def feasible(A: Sequence[Sequence], b: Sequence) -> bool:
    """Exact feasibility of A x = b, x >= 0 (phase one only)."""
    return phase_one(A, b).feasible


@dataclass(frozen=True)
class BasisReport:
    feasible: bool
    strictly_feasible: bool
    optimal: bool
    x: Tuple[Fraction, ...]
    objective: Fraction


def verify_basis(A: Sequence[Sequence], b: Sequence, c: Sequence,
                 basis: Sequence[int]) -> BasisReport:
    """Certify a basic solution: x_B = B^-1 b and reduced costs <= 0.

    The optimality test is the classical one for a minimisation problem:
    with y solving y B = c_B, the certified condition is y A - c <= 0
    componentwise.  Raises SingularBasis when the chosen columns are
    dependent.
    """
    A = _as_fractions(A)
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    m = len(A)
    if len(basis) != m:
        raise SingularBasis(f"basis needs {m} columns, got {len(basis)}")
    B = [[A[i][j] for j in basis] for i in range(m)]
    xb = solve_square(B, b)
    if xb is None:
        raise SingularBasis(f"columns {tuple(basis)} are linearly dependent")
    Bt = [[B[i][j] for i in range(m)] for j in range(m)]
    y = solve_square(Bt, [c[j] for j in basis])
    assert y is not None
    n = len(A[0])
    optimal = True
    for j in range(n):
        reduced = sum(y[i] * A[i][j] for i in range(m)) - c[j]
        if reduced > 0:
            optimal = False
            break
    x = [Fraction(0)] * n
    for value, j in zip(xb, basis):
        x[j] = value
    objective = sum(c[j] * x[j] for j in range(n))
    return BasisReport(
        feasible=all(v >= 0 for v in xb),
        strictly_feasible=all(v > 0 for v in xb),
        optimal=optimal,
        x=tuple(x),
        objective=objective,
    )
