import random
from fractions import Fraction

import pytest

from diffres import CoeffSymbol, PolyMatrix, SymPoly, YMonomial
from diffres.matrices import F1, RowLabel


SYMBOL_POOL = [
    CoeffSymbol("a", 0, 0), CoeffSymbol("a", 1, 0), CoeffSymbol("a", 0, 1),
    CoeffSymbol("b", 0, 0), CoeffSymbol("b", 1, 0), CoeffSymbol("b", 0, 1),
    CoeffSymbol("a", 0, 0, 1), CoeffSymbol("b", 0, 0, 1),
]


def random_sympoly(rng: random.Random, max_terms: int = 4,
                   max_exp: int = 3) -> SymPoly:
    total = SymPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        term = SymPoly.const(coeff)
        for _ in range(rng.randint(0, 2)):
            sym = rng.choice(SYMBOL_POOL)
            term = term * SymPoly.symbol(sym) ** rng.randint(1, max_exp)
        total = total + term
    return total


def matrix_from_grid(grid, rows=None, cols=None) -> PolyMatrix:
    """A PolyMatrix of the polynomials in `grid`, one row per grid row, one
    pool entry per nonzero polynomial; rows default to the labels y1^k*f1
    and columns to y^k."""
    pool, row_entries = [], []
    for row in grid:
        columns = tuple(j for j, v in enumerate(row) if v)
        row_entries.append((columns, tuple(range(len(pool), len(pool) + len(columns)))))
        pool += [row[j] for j in columns]
    if rows is None:
        rows = [RowLabel(F1, YMonomial(0, k, 0)) for k in range(len(grid))]
    if cols is None:
        cols = [YMonomial(k, 0, 0) for k in range(max(map(len, grid), default=0))]
    return PolyMatrix(rows, cols, pool, row_entries)


@pytest.fixture
def rng():
    return random.Random(20240811)
