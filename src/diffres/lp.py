"""Exact rational linear programming, computed in integers.

Standard-form solver for min c.x subject to A x = b, x >= 0: two phases,
Bland's anti-cycling pivot rule, no tolerances.  The tableau holds integer
rows over one positive common denominator and pivots fraction-free
(Bareiss 1968, Edmonds 1967).  [A | b] and c are each scaled by one
positive integer, which leaves Bland's path and every result as they are
over the rationals; Fractions are made only for what a call returns.
Phase one alone, `integer_certificate` on integer data, returns its
verdict with a certificate: a basis with B^-1 b >= 0, or an integer Farkas
vector w with w A >= 0 and w b < 0, read from the artificial columns of
the final tableau.  A basis is certified apart from the solver by
`adjugate` (B adj = p I, checked exactly, so x_B = adj b / p) and
`optimal` (the reduced costs, read from adj).  `lattice.PointSystem`
makes that certificate once per catalog basis, per spec and perturbation
(`lattice.scanned`), and `sparse` reads it there; no Fraction copy of the
system is built.  One fraction-free pivot serves the tableau, the
adjugates and the rank; a row whose entry in the pivot column is zero is
only rescaled to the new denominator, and left alone when that
denominator is unchanged.  Integer data is read as it is, with no
Fraction per entry, and a float is refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import CertificateFailure, Unbounded

Vector = List[Fraction]


def _integers(rows: Sequence[Sequence]) -> List[List[int]]:
    """The rows times one positive integer that clears every denominator, as
    new lists; rows of ints are copied as they are.  A float, which holds
    only its binary approximation, is refused with a TypeError."""
    if all(type(v) is int for row in rows for v in row):
        return [list(row) for row in rows]
    if any(isinstance(v, float) for row in rows for v in row):
        raise TypeError("a float is not read as an exact rational")
    rows = [[Fraction(v) for v in row] for row in rows]
    s = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (s // v.denominator) for v in row] for row in rows]


def adjugate(B: Sequence[Sequence[int]]) -> Optional[Tuple[int, List[List[int]]]]:
    """(p, adj) with B adj = p I and p = |det B| > 0 for a square integer
    matrix B, by one fraction-free Gauss-Jordan on [B | I]; None when B is
    singular.  The product is checked exactly, so no caller trusts the
    elimination: CertificateFailure when it does not give p I."""
    n = len(B)
    grid = [list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(B)]
    pivots, p = _row_reduce(grid, n)
    if len(pivots) < n:
        return None
    sign = 1 if p > 0 else -1
    p, adj = sign * p, [[sign * v for v in row[n:]] for row in grid]
    cols = list(zip(*adj))
    if p <= 0 or any(sum(map(mul, row, col)) != p * (i == k)
                     for i, row in enumerate(B) for k, col in enumerate(cols)):
        raise CertificateFailure(f"B adj != p I for B = {B}")
    return p, adj


def optimal(columns: Sequence[Sequence[int]], c: Sequence[int],
            basis: Sequence[int], p: int, adj_columns: Sequence[Sequence[int]],
            nonbasic: Sequence[int]) -> bool:
    """Whether the basis is optimal for min c.x over integer A and c, read
    from the columns of A and of adj: y A - c <= 0 for y = c_B B^-1, tested
    as u A_j <= p c_j for u = c_B adj, B adj = p I, p > 0.  Only nonbasic
    columns j are tested: adj B = p I follows, so u A_j = p c_j at a basic
    one."""
    cb = [c[j] for j in basis]
    u = [sum(map(mul, cb, col)) for col in adj_columns]
    for j in nonbasic:
        if sum(map(mul, u, columns[j])) > p * c[j]:
            return False
    return True


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(_row_reduce(_integers(rows), len(rows[0]))[0]) if rows else 0


def _pivot(rows: List[List[int]], den: int, r: int, c: int) -> int:
    """Fraction-free pivot on integer rows over the common denominator den:
    row r stays, every other row i becomes (piv row_i - row_i[c] row_r) / den
    with piv = row_r[c], each division exact.  A row with row_i[c] = 0 is
    only rescaled, piv row_i / den, and left alone when piv = den.  Returns
    the new denominator piv; every earlier pivot row keeps it in its pivot
    column."""
    piv = rows[r][c]
    pivot_row = rows[r]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(piv * a - f * b) // den for a, b in zip(row, pivot_row)]
        elif piv != den:
            rows[i] = [piv * a // den for a in row]
    return piv


def _row_reduce(rows: List[List[int]], ncols: int) -> Tuple[List[int], int]:
    """Fraction-free reduced row echelon form over the first ncols columns,
    in place; returns the pivot columns, one per independent row, and the
    common denominator."""
    pivots: List[int] = []
    den = 1
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        den = _pivot(rows, den, r, c)
        pivots.append(c)
    return pivots, den


class LPSolution(NamedTuple):
    status: str                 # "optimal" | "infeasible"; unbounded raises
    x: Vector
    objective: Fraction


class _Tableau:
    """Dense simplex tableau with Bland's rule, in integers.

    The entries are rows / den with den > 0.  The tableau starts as
    [S A | I | S b] on the artificial basis I, S flipping the rows whose
    right-hand side is negative; den is then |det| of the current basis.
    """

    def __init__(self, Ab: Sequence[Sequence[int]]):
        self.m = len(Ab)
        self.n = len(Ab[0]) - 1 + self.m if Ab else 0
        self.rows = []
        for i, row in enumerate(Ab):
            sign = -1 if row[-1] < 0 else 1
            self.rows.append([sign * v for v in row[:-1]]
                             + [int(k == i) for k in range(self.m)] + [sign * row[-1]])
        self.basis: List[int] = list(range(self.n - self.m, self.n))
        self.den = 1

    def pivot(self, row: int, col: int) -> None:
        self.den = _pivot(self.rows, self.den, row, col)
        if self.den < 0:   # only a drive-out pivot can be negative
            self.rows = [[-v for v in r] for r in self.rows]
            self.den = -self.den
        self.basis[row] = col

    def reduced_costs(self, cost: Sequence[int]) -> List[int]:
        """den times the costs minus the basic combination; the entry past
        the last column is minus den times the current objective."""
        reduced = [self.den * v for v in cost] + [0]
        for i, row in enumerate(self.rows):
            ci = cost[self.basis[i]]
            if ci:
                reduced = [r - ci * a for r, a in zip(reduced, row)]
        return reduced

    def run(self, cost: Sequence[int], allowed: Sequence[bool]) -> int:
        """Minimise cost over the allowed columns; Bland's rule throughout.
        Returns den times the optimum."""
        while True:
            reduced = self.reduced_costs(cost)
            entering = next((j for j in range(self.n)
                             if allowed[j] and reduced[j] < 0), None)
            if entering is None:
                return -reduced[-1]
            leaving = None
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    if leaving is not None:
                        # compare the ratios rhs / a by cross-multiplying
                        best = self.rows[leaving]
                        diff = row[-1] * best[entering] - best[-1] * a
                        if diff > 0 or (diff == 0 and
                                        self.basis[i] > self.basis[leaving]):
                            continue
                    leaving = i
            if leaving is None:
                raise Unbounded("objective decreases without bound")
            self.pivot(leaving, entering)

    def solution(self) -> Vector:
        x = [Fraction(0)] * self.n
        for i in range(self.m):
            x[self.basis[i]] = Fraction(self.rows[i][-1], self.den)
        return x


def _phase_one(Ab: Sequence[Sequence[int]]) -> Tuple[_Tableau, Optional[List[int]]]:
    """Phase one on the integer system [A | b]; the tableau on a basis of A's
    columns, or den times a Farkas vector.

    At a positive optimum the artificial columns hold den B^-1 of the
    row-flipped system S A x = S b, so y = c_B B^-1 has y S A <= 0 (the
    reduced costs of the original columns) and y S b > 0 (the optimum);
    w = -S y certifies infeasibility.  Otherwise the artificial variables are driven out of the
    basis and redundant rows dropped, ready for phase two.
    """
    tab = _Tableau(Ab)
    m, n = tab.m, tab.n - tab.m
    phase1_cost = [0] * n + [1] * m
    if tab.run(phase1_cost, [True] * tab.n) > 0:
        y = [sum(row[n + k] for i, row in enumerate(tab.rows) if tab.basis[i] >= n)
             for k in range(m)]
        return tab, [y[k] if Ab[k][-1] < 0 else -y[k] for k in range(m)]

    # drive any artificial variable out of the basis
    drop_rows: List[int] = []
    for i in range(m):
        if tab.basis[i] >= n:
            pivot_col = next((j for j in range(n) if tab.rows[i][j] != 0), None)
            if pivot_col is None:
                drop_rows.append(i)  # redundant constraint
            else:
                tab.pivot(i, pivot_col)
    for i in sorted(drop_rows, reverse=True):
        del tab.rows[i]
        del tab.basis[i]
    tab.m = len(tab.rows)
    return tab, None


def _augmented(A: Sequence[Sequence], b: Sequence) -> List[List[int]]:
    return _integers([list(row) + [v] for row, v in zip(A, b)])


def integer_certificate(A: Sequence[Sequence[int]],
                        b: Sequence[int]) -> Tuple[bool, Tuple[int, ...]]:
    """Exact feasibility of A x = b, x >= 0 for integer A and b, with its
    certificate: (True, a basis, one column per independent row of A, with
    B^-1 b >= 0) or (False, w) with w A >= 0 and w b < 0."""
    tab, farkas = _phase_one([list(row) + [v] for row, v in zip(A, b)])
    return (True, tuple(sorted(tab.basis))) if farkas is None else (False, tuple(farkas))


def simplex(A: Sequence[Sequence], b: Sequence, c: Sequence) -> LPSolution:
    """Two-phase exact simplex for min c.x, A x = b, x >= 0."""
    n = len(A[0]) if A else 0
    tab, farkas = _phase_one(_augmented(A, b))
    if farkas is not None:
        return LPSolution("infeasible", [], Fraction(0))
    (cost,) = _integers([c])
    tab.run(cost + [0] * (tab.n - n), [j < n for j in range(tab.n)])
    x = tab.solution()[:n]
    return LPSolution("optimal", x, sum((cj * xj for cj, xj in zip(c, x)), Fraction(0)))

